(** Hash sets of dictionary-encoded rows ([int array]): the one row
    table, from the evaluator's answers to a materialized view and the
    executor's result.

    A set's width is fixed by its first row; adding, finding or
    removing a row of another width raises [Invalid_argument].  Rows
    are stored column-major, hashed directly (FNV-1a over the codes)
    and compared in place, so a probe allocates nothing.  Enumeration
    follows row order: insertion order until a {!remove}, which moves
    the last row into the freed place. *)

type t

val create : int -> t
(** [create n] sizes the set for about [n] rows (it grows as
    needed). *)

val add : t -> int array -> bool
(** [add t row] records [row] and returns [true] when unseen, [false]
    otherwise.  The codes are copied into the set, so the caller may
    reuse (or mutate) the array afterwards. *)

val add_columns : t -> int array array -> int -> int
(** [add_columns t cols n] adds rows [0, n) stored column-major
    ([cols.(c).(r)] is column [c] of row [r]; every column holds at
    least [n] values) and returns how many were new. *)

val find : t -> int array -> int
(** The row's index in {!columns}, or [-1] when absent.  An index stays
    valid until the next {!remove}. *)

val mem : t -> int array -> bool

val remove : t -> int array -> bool
(** [remove t row] deletes [row] and returns [true], or returns [false]
    when absent.  The last row takes the freed index. *)

val cardinal : t -> int

val columns : t -> int array array
(** The set's own column vectors, read in place: [(columns t).(c).(r)]
    is code [c] of row [r], for [r < cardinal t].  Treat them as
    read-only; an {!add} may replace them.  [[||]] until the first row
    fixes the width. *)

val fold : (int array -> 'a -> 'a) -> t -> 'a -> 'a
(** Each row is a fresh array. *)

val elements : t -> int array list
