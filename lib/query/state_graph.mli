(** State graphs (Definition 3.1): the visual/combinatorial representation
    of a view's body as a multigraph, and the one place that derives a
    body's variable occurrences and connectivity.

    Nodes are the view's atoms (identified by their index in the body);
    join edges connect two occurrences of a variable in two distinct
    atoms; selection edges loop on an atom position holding a constant.
    The transitions of {!Core.Transition} are defined in terms of these
    edges, a view may not be a Cartesian product ({!is_connected}), and
    the cardinality estimate folds the occurrence table. *)

type place = int * Atom.position
(** An atom index in the body and a position within that atom. *)

type occurrences
(** Each variable of a body with its places. *)

val occurrences : Cq.t -> occurrences

val places : occurrences -> string -> place list
(** The variable's places in body order (atoms in order, [s; p; o]
    within one); [[]] for a variable that does not occur. *)

val fold : (string -> place list -> 'a -> 'a) -> occurrences -> 'a -> 'a
(** Folds the variables in one fixed order that depends only on the
    sequence of variables in the body (a [Hashtbl] of initial size 16
    filled in body order), so float products taken in this order are
    the same on every run. *)

type join_edge = {
  atom_a : int;
  pos_a : Atom.position;
  atom_b : int;
  pos_b : Atom.position;
  var : string;
}

(** A constant occurrence: atom index, position within it, and the
    constant found there — a selection-cut candidate (SC). *)
type selection_edge = {
  atom : int;
  pos : Atom.position;
  constant : Rdf.Term.t;
}

val join_edges : Cq.t -> join_edge list
(** All join edges of the view's graph: one per unordered pair of distinct
    atom-position occurrences of the same variable, normalized with
    [atom_a < atom_b] (or equal atoms ordered by position). *)

val selection_edges : Cq.t -> selection_edge list

val is_connected : Cq.t -> bool
(** True when every atom joins (shares a variable) transitively with
    every other — i.e. the body has no Cartesian product. *)

val subset_checker : Cq.t -> int list -> bool
(** [subset_checker q nodes]: whether the subgraph of [q]'s view graph
    induced by the atom indices [nodes] is connected (false when
    [nodes] is empty).  Partial application precomputes the view's
    edge pairs once; use it when testing many subsets of one view (the
    VB split enumeration). *)

val components_without_edge : Cq.t -> join_edge -> int list list
(** Connected components (lists of atom indices) of the view graph after
    removing exactly one occurrence of the given join edge; multi-edges
    between the same atoms survive. *)

val components_without_occurrence : Cq.t -> int -> Atom.position -> int list list
(** Connected components after removing {e every} join edge incident to
    the given atom-position occurrence — the connectivity that results
    from replacing that occurrence with a fresh variable (JC case 1). *)

val edge_to_string : join_edge -> string
(** Diagnostic rendering, e.g. ["n0.s=n1.o (x)"]. *)
