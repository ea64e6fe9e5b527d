(** The one table of dictionary-encoded rows: the store's triple set
    ({!Hash_backend}, and so the compact backend's memtables), the
    saturated triples whose derivations {!Incremental} counts, the
    evaluator's answer sets, a materialized view's tuples and the
    executor's key and result sets.

    A table's width is fixed by {!of_width} or by its first row; adding,
    finding or removing a row of another width raises
    [Invalid_argument].  Rows are packed row-major in one [int array]
    ({!data}), hashed directly and compared in place, so a probe
    allocates nothing.  Enumeration follows row order: insertion order
    until a removal, which moves the last row into the freed place. *)

type t

val create : int -> t
(** [create n] sizes the table for about [n] rows (it grows as needed);
    the first row fixes its width. *)

val of_width : int -> int -> t
(** [of_width w n] is [create n] with its width fixed at [w]. *)

val hash : int array -> int
(** The slot hash of a row: its home is [hash row land mask]. *)

val key : t -> int array
(** The table's own probe row, of its width ([[||]] until the width is
    fixed).  A caller holding its codes in scalars fills it and passes
    it to {!add}, {!find_or_add}, {!find}, {!mem} or {!remove}, so the
    call allocates nothing.  Every caller of the table shares it: fill
    it right before the call. *)

val key3 : t -> int -> int -> int -> int array
(** [key3 t s p o] is {!key} filled with [s; p; o], for a table of
    width 3. *)

val add : t -> int array -> bool
(** [add t row] records [row] and returns [true] when unseen, [false]
    otherwise; a new row takes index [cardinal t - 1].  The codes are
    copied into the table, so the caller may reuse (or mutate) the
    array afterwards. *)

val find_or_add : t -> int array -> int
(** [find_or_add t row] is the row's index, after adding it when
    absent: it is new exactly when the index is the former
    [cardinal t].  One probe, where {!find} then {!add} take two. *)

val add_rows : t -> width:int -> int array -> int -> int
(** [add_rows t ~width data n] adds the [n] rows of [width] codes packed
    at the start of [data] and returns how many were new. *)

val find : t -> int array -> int
(** The row's index, or [-1] when absent.  An index stays valid until
    the next removal. *)

val mem : t -> int array -> bool

val remove : t -> int array -> bool
(** [remove t row] deletes [row] and returns [true], or returns [false]
    when absent.  The last row takes the freed index. *)

val remove_row : t -> int -> int
(** [remove_row t r] removes the row at index [r]; the last row moves
    into [r].  Returns that last row's old index ([r] itself when [r]
    was last). *)

val cardinal : t -> int

val data : t -> int array
(** The table's own rows, read in place: row [r < cardinal t] is the
    [w] codes from [w * r], for the table's width [w].  Treat it as
    read-only; an {!add} may replace it. *)

val fold : (int array -> 'a -> 'a) -> t -> 'a -> 'a
(** In row order; each row is a fresh array. *)

val elements : t -> int array list
(** In row order. *)

val resident_words : t -> int
(** The row and slot arrays, headers included. *)

(** Non-negative int keys mapped to buckets, each an [int array] and
    its used length: the six indexes of {!Hash_backend} (and so of the
    compact backend's memtables) and the compact backend's scan memo.
    The keys are a width-1 table; a key's row index addresses its
    bucket.  An index stays valid until the next insertion or
    deletion. *)
module Buckets : sig
  type t

  val pair_key : int -> int -> int
  (** One non-negative key for a pair of codes below [2^31]. *)

  val create : unit -> t
  val length : t -> int
  (** Keys present. *)

  val find : t -> int -> int
  (** The key's index, or [-1]. *)

  val data : t -> int -> int array
  (** The bucket's live storage. *)

  val rows : t -> int -> int
  (** Used rows (of three cells each, for {!push}) or cells (for
      {!replace}) of the bucket. *)

  val push : t -> int -> int -> int -> int -> int
  (** [push t key s p o] appends the row [s; p; o] to the key's bucket,
      creating it, and returns the row's index in it.  A full bucket is
      copied to a new array twice its size: arrays already returned by
      {!data} are never written again. *)

  val replace : t -> int -> int array -> int -> unit
  (** [replace t key data rows] binds the key to this bucket. *)

  val set_rows : t -> int -> int -> unit
  (** [set_rows t j n] truncates the bucket at index [j] to [n] rows;
      at 0 the key is removed and the last key, with its bucket, takes
      index [j]. *)

  val fold : t -> (int -> int array -> int -> 'a -> 'a) -> 'a -> 'a
  (** Over (key, bucket, rows) in index order. *)

  val resident_words : t -> int
  (** The key table, the bucket arrays and the buckets, headers
      included. *)
end
