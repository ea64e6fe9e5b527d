(** Open-addressed tables of unboxed ints: linear probing over
    power-of-two slot arrays grown 4x, load at most 3/4, backward-shift
    deletion (no tombstones).  Keys are compared in place, so a lookup
    allocates nothing and follows no pointer but the one to its result.
    The six indexes of {!Hash_backend} (and so of the compact backend's
    memtable) and the compact backend's scan memo; the rows themselves
    live in {!Rowset}. *)

val hash : int -> int
(** The slot hash: a key's home is [hash key land mask]. *)

val pair_key : int -> int -> int
(** One non-negative key for a pair of codes below [2^31]. *)

(** Non-negative int keys mapped to buckets, each an [int array] and
    its used length, stored inline in parallel slot arrays.  A slot index stays valid until the next insertion or
    deletion. *)
module Buckets : sig
  type t

  val create : unit -> t
  val length : t -> int
  (** Keys present. *)

  val find : t -> int -> int
  (** The slot holding the key, or [-1]. *)

  val data : t -> int -> int array
  (** The slot's live bucket storage. *)

  val rows : t -> int -> int
  (** Used rows (of three cells each, for {!push}) or cells (for
      {!replace}) of the slot's bucket. *)

  val push : t -> int -> int -> int -> int -> int
  (** [push t key s p o] appends the row [s; p; o] to the key's bucket,
      creating it, and returns the row's index in it.  A full bucket is
      copied to a new array twice its size: arrays already returned by
      {!data} are never written again. *)

  val replace : t -> int -> int array -> int -> unit
  (** [replace t key data rows] binds the key to this bucket. *)

  val set_rows : t -> int -> int -> unit
  (** [set_rows t slot n] truncates the slot's bucket to [n] rows; at 0
      the key is removed. *)

  val clear : t -> unit
  (** Remove every key; a table past 256 slots shrinks back to the
      initial few. *)

  val fold : t -> (int -> int array -> int -> 'a -> 'a) -> 'a -> 'a
  (** Over (key, bucket, rows) in slot order. *)

  val resident_words : t -> int
  (** Slot arrays and buckets, headers included. *)
end
