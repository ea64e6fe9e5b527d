(** State graphs (Definition 3.1): the visual/combinatorial representation
    of a view's body as a multigraph.

    Nodes are the view's atoms (identified by their index in the body);
    join edges connect two occurrences of a variable in two distinct
    atoms; selection edges loop on an atom position holding a constant.
    The transitions of {!Transition} are defined in terms of these
    edges. *)

type join_edge = {
  atom_a : int;
  pos_a : Query.Atom.position;
  atom_b : int;
  pos_b : Query.Atom.position;
  var : string;
}

(** A constant occurrence: atom index, position within it, and the
    constant found there — a selection-cut candidate (SC). *)
type selection_edge = {
  atom : int;
  pos : Query.Atom.position;
  constant : Rdf.Term.t;
}

val join_edges : Query.Cq.t -> join_edge list
(** All join edges of the view's graph: one per unordered pair of distinct
    atom-position occurrences of the same variable, normalized with
    [atom_a < atom_b] (or equal atoms ordered by position). *)

val selection_edges : Query.Cq.t -> selection_edge list

val subset_checker : Query.Cq.t -> int list -> bool
(** [subset_checker q nodes]: whether the subgraph of [q]'s view graph
    induced by the atom indices [nodes] is connected (false when
    [nodes] is empty).  Partial application precomputes the view's
    edge pairs once; use it when testing many subsets of one view (the
    VB split enumeration). *)

val components_without_edge : Query.Cq.t -> join_edge -> int list list
(** Connected components (lists of atom indices) of the view graph after
    removing exactly one occurrence of the given join edge; multi-edges
    between the same atoms survive. *)

val components_without_occurrence :
  Query.Cq.t -> int -> Query.Atom.position -> int list list
(** Connected components after removing {e every} join edge incident to
    the given atom-position occurrence — the connectivity that results
    from replacing that occurrence with a fresh variable (JC case 1). *)

val edge_to_string : join_edge -> string
(** Diagnostic rendering, e.g. ["0.s=1.o (?x)"]. *)
