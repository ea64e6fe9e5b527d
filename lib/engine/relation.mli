(** Materialized relations: named, column-labeled sets of
    dictionary-encoded tuples — the physical representation of a
    materialized view.

    Rows live in a growable array with a row → slot hash index
    ([Query.Rowset.Tbl], so membership never allocates a list key);
    insertion is amortized O(1) and removal is an O(1) swap-remove.
    Row enumeration order is unspecified (set semantics). *)

type t

val make : name:string -> cols:string list -> int array list -> t
(** Builds a relation, deduplicating rows (set semantics). *)

val name : t -> string
val cols : t -> string list

val cardinality : t -> int

val mem : t -> int array -> bool

val add_row : t -> int array -> bool
(** Insert a tuple; [false] when already present.  The array is
    retained — do not mutate it afterwards. *)

val remove_row : t -> int array -> bool
(** Swap-remove a tuple; [false] when absent. *)

val rows : t -> int array list
(** The stored rows (shared, not copied — treat as read-only). *)

val fold_rows : (int array -> 'a -> 'a) -> t -> 'a -> 'a

val project_indices : t -> string list -> int list
(** Column indices of the given column names.  Raises [Failure] on an
    unknown column. *)

val size_bytes : Rdf.Store.t -> t -> int
(** Actual storage footprint: the summed byte sizes of the decoded terms
    of every tuple. *)

val to_term_rows : Rdf.Store.t -> t -> Rdf.Term.t array list
