(** Materialized relations: a name, column labels and one
    {!Rdf.Rowset.t} of dictionary-encoded tuples — the physical
    representation of a materialized view.

    Membership, insertion and removal are the row set's own: a probe
    allocates nothing, and a removal moves the last tuple into the
    freed place.  Row enumeration order is unspecified (set
    semantics).  A relation only carries its column names: the position
    of a column is {!Core.Rewriting.column_index}'s to find. *)

type t

val of_rowset : name:string -> cols:string list -> Rdf.Rowset.t -> t
(** Wraps the set in place; the relation may share the set.  A relation
    that shares a materialized view's set (an executor result does) is
    read-only: only {!Maintenance} writes a view's rows, through the
    view's own relation. *)

val make : name:string -> cols:string list -> int array list -> t
(** Builds a relation, deduplicating rows (set semantics). *)

val name : t -> string
val cols : t -> string list

val rowset : t -> Rdf.Rowset.t
(** The tuples, read in place. *)

val cardinality : t -> int

val mem : t -> int array -> bool

val add_row : t -> int array -> bool
(** Insert a tuple; [false] when already present.  The codes are
    copied. *)

val remove_row : t -> int array -> bool
(** Remove a tuple; [false] when absent. *)

val fold_rows : (int array -> 'a -> 'a) -> t -> 'a -> 'a

val size_bytes : Rdf.Store.t -> t -> int
(** Actual storage footprint: the summed byte sizes of the decoded terms
    of every tuple. *)

val to_term_rows : Rdf.Store.t -> t -> Rdf.Term.t array list
(** The decoded tuples, in row order; one fresh array per tuple. *)
