(** Hash sets and tables of dictionary-encoded rows ([int array]).

    Replaces the former pattern of keying a generic [Hashtbl] by
    [Array.to_list row]: rows are hashed directly (FNV-1a over the
    elements) and compared element-wise, so a membership probe
    allocates nothing.  Keys are stored by reference — never mutate a
    row after handing it to a table. *)

module Key : sig
  type t = int array

  val equal : t -> t -> bool
  val hash : t -> int
end

module Tbl : Hashtbl.S with type key = int array
(** Row-keyed table with arbitrary values (used e.g. by
    [Engine.Relation] for its row → position index). *)

type t
(** A set of rows (set semantics; the common case).  Open-addressed
    over a packed int arena: one probe sequence per membership test or
    insert, no per-row allocation, and iteration in insertion order. *)

val create : int -> t
(** [create n] sizes the table for about [n] rows (it grows as
    needed). *)

val add : t -> int array -> bool
(** [add t row] records [row] and returns [true] when unseen, [false]
    otherwise.  The row's elements are copied into the set, so the
    caller may reuse (or mutate) the array afterwards. *)

val add_columns : t -> int array array -> int -> int
(** [add_columns t cols n] — bulk {!add} of rows [0, n) stored
    column-major ([cols.(c).(r)] is column [c] of row [r]; every
    column holds at least [n] values): slot-array and arena growth are
    checked once up front, then each row is one probe sequence hashing
    and comparing directly against the column vectors — no scratch
    row.  Returns how many rows were new. *)

val cardinal : t -> int

val fold : (int array -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (int array -> unit) -> t -> unit

val elements : t -> int array list
