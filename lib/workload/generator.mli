(** Workload generators (§6): queries of controllable size, shape and
    commonality.

    Shapes follow the paper's taxonomy: star queries (clique state
    graphs — the hard case), chains (the average case), cycles,
    random-graph queries (sparse and dense variants) and mixed workloads.
    Commonality controls how much structure (properties, constants and
    whole atom groups) queries share, which drives view-fusion
    opportunities.

    Two generators are provided, mirroring the paper's two: {!generate}
    outputs arbitrary workloads with maximum flexibility, and
    {!generate_satisfiable} samples constants from an actual dataset so
    that every query has a non-empty answer. *)

type shape = Star | Chain | Cycle | Random_sparse | Random_dense | Mixed

type commonality = High | Low

type spec = {
  shape : shape;
  n_queries : int;
  atoms_per_query : int;
  commonality : commonality;
  seed : int;
}

val default_spec : spec
(** 5 star queries of 5 atoms, high commonality, seed 0. *)

val shape_name : shape -> string
val shape_of_string : string -> shape option
val commonality_name : commonality -> string

val generate : spec -> Query.Cq.t list
(** Deterministic in [spec.seed].  Queries are named [q1..qn], are
    connected, contain at least one constant, and have no duplicate
    atoms. *)

exception Store_too_small
(** The store holds too little data of the needed shape to build one
    of the queries. *)

val generate_satisfiable : Rdf.Store.t -> spec -> Query.Cq.t list
(** Like {!generate} but all properties and constants are sampled from
    the store by random walks, so each query is non-empty on it.  Cycle
    and random shapes degrade to data-backed stars and chains.
    @raise Store_too_small after 50 failed tries at one query. *)

val generalize :
  Rdf.Schema.t -> float -> int -> Query.Cq.t list -> Query.Cq.t list
(** [generalize schema probability seed queries] lifts, with the given
    probability per query, the constant of one randomly chosen atom:
    property constants to a direct super-property, class constants (in
    [rdf:type] atoms) to a direct super-class.  Used to build workloads
    whose complete answers require reasoning, so that the reformulated
    workload Qr is substantially larger than Q (Table 3). *)
