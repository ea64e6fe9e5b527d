(** Immutable sorted segment: the unit of storage of the compact
    backend.

    A segment holds [n] distinct rows [(a, b, c)] in lexicographic
    order, split into fixed-size blocks (the last may be short), each
    delta/varint-encoded by {!Block}.  Alongside the encoded bytes the
    segment keeps per-block zone maps — first/last leading value and
    first/last second value — so lookups bracket the candidate block
    range by binary search over the zone arrays and skip every other
    block, then gallop within the bracketed rows.
    Row positions double as ranks: [count = hi - lo] is exact without
    decoding interior blocks.

    Segments are immutable, so the bounded decoded-block cache needs
    no invalidation.  The cache is plain mutable state: one domain at
    a time reads a segment, as it reads the store that holds it
    (CONCURRENCY.md). *)

type t

val n : t -> int
(** Total rows. *)

val empty : t

(** Streaming constructor: [push] rows in nondecreasing lexicographic
    order (duplicates are the caller's bug), then [finish].  Used by
    the LSM merge so a 10M-row store never materializes a decoded
    copy of itself. *)
module Builder : sig
  type b

  val create : ?block_rows:int -> unit -> b
  val push : b -> int -> int -> int -> unit
  val finish : b -> t
end

val of_sorted_array : ?block_rows:int -> int array -> rows:int -> t
(** Build from the first [rows] rows of a packed (stride 3) sorted
    array — the test/bootstrap path. *)

val locate1 : t -> int -> int * int
(** [locate1 t a] is the rank interval [\[lo, hi)] of rows whose
    leading column equals [a] (empty when [lo >= hi]). *)

val locate2 : t -> int -> int -> int * int
(** Rank interval of rows with leading column [a] and second column
    [b]. *)

val mem : t -> int -> int -> int -> bool

(** One operation's block reads.  A reader counts the blocks it
    serves from the cache, decodes and skips by zone map, and
    {!Reader.finish} adds them to [store.block_cache_hits],
    [store.block_decodes] and [store.block_skips]: a scan that locates
    its rows and then copies them uses one reader, so it reads the
    ambient sink once.  {!locate1}, {!locate2} and {!mem} each run
    on a reader of their own.  A block decoded past a full cache stays
    in the reader's scratch until it decodes another, and reading it
    again meanwhile counts as a cache hit. *)
module Reader : sig
  type segment := t
  type t

  val create : segment -> t

  val locate1 : t -> int -> int * int
  (** The one-shot [locate1], on this reader. *)

  val locate2 : t -> int -> int -> int * int
  (** The one-shot [locate2], on this reader. *)

  val iter_range : t -> int -> int -> (int -> int -> int -> unit) -> unit
  (** [iter_range r lo hi f] applies [f a b c] to each row of the rank
      interval [\[lo, hi)], in order. *)

  val blit_range : t -> int -> int -> int array -> da:int -> db:int -> dc:int -> unit
  (** [blit_range r lo hi dst ~da ~db ~dc] writes the rows of
      [\[lo, hi)] into [dst] packed with stride 3 starting at cell 0,
      placing the leading column at offset [da] of each row, the
      second at [db], the third at [dc] — the inverse of the segment's
      column permutation, so every segment emits [s; p; o] order. *)

  val finish : t -> unit
  (** Add the reader's block counts to the sink.  Call it once, when
      the operation is done. *)
end

val iter_all : t -> (int -> int -> int -> unit) -> unit
(** Stream every row in order, decoding block by block (bypasses the
    cache: the merge path). *)

val resident_bytes : t -> int
(** Encoded bytes + zone maps + offsets + currently cached decoded
    blocks. *)
