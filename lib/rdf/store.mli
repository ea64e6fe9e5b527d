(** In-memory dictionary-encoded triple store.

    Mirrors the paper's storage layout (§6): a single triple table
    [t(s, p, o)] over integer codes, answering every pattern lookup —
    any subset of positions bound to constants — from the best index.
    Two storage backends implement the layout (see {!Backend}): the
    hexastore-style hash-bucket layout ([Hash], the default) and the
    sorted compressed-segment layout ([Compact], 32.9x fewer bytes per
    triple at 2M triples and 42.8x at 10M in
    [bench/baselines/BENCH_store.json], Barton-scale capable).  The
    store owns the dictionary and the version stamp; everything else
    dispatches to the backend picked at creation.  Its reads count
    nothing: a caller that reports store work counts its own rows and
    probes and adds them to the sink once per operation, as
    {!Query.Plan} does once per execution and once per compilation. *)

type t

type encoded = int * int * int
(** A dictionary-encoded triple [(s, p, o)]. *)

type pattern = { ps : int option; pp : int option; po : int option }
(** A lookup pattern: [None] positions are wildcards. *)

val create : ?backend:Backend.kind -> unit -> t
(** A fresh empty store on the given backend (default [Hash]). *)

val backend : t -> Backend.kind

val id : t -> int
(** A process-unique stamp, assigned at creation.  A compiled query
    plan ({!Query.Plan}) records it and refuses any other store: codes
    are only meaningful against the dictionary that produced them. *)

type cache = ..
(** What an upper layer derives from a store and keeps on it, so that
    it dies with the store: {!Query.Plan}'s compiled plans,
    [Engine.Maintenance]'s prepared views.  Each layer adds its own
    constructor, and at most one cache per store; a fresh store and a
    {!copy} have none. *)

val find_cache : t -> (cache -> 'a option) -> 'a option

val add_cache : t -> cache -> unit

val version : t -> int
(** Mutation counter: bumped on every successful {!add}/{!remove}.
    Compiled plans do not read it (they check {!dict_size}); tests read
    it as a witness that a read did not write. *)

val dict_size : t -> int
(** Number of distinct encoded terms ([Dictionary.size]).  A compiled
    plan that proved an atom unsatisfiable because a constant was
    absent from the dictionary is only valid while the dictionary has
    not grown. *)

val encode_term : t -> Term.t -> int
(** Encode a term, assigning a fresh code if needed. *)

val find_term : t -> Term.t -> int option
(** Encode without assigning. *)

val decode_term : t -> int -> Term.t

val add : t -> Triple.t -> bool
(** Insert a triple; returns [false] when it was already present. *)

val encode_triple : t -> Triple.t -> encoded
(** Encode a triple's three terms, assigning fresh codes as {!add}
    does. *)

val add_encoded : t -> encoded -> bool

val remove : t -> Triple.t -> bool
(** Delete a triple; returns [false] when absent. *)

val remove_encoded : t -> encoded -> bool

val mem : t -> Triple.t -> bool
val mem_encoded : t -> encoded -> bool

val size : t -> int
(** Number of distinct triples. *)

val fold_matching : t -> pattern -> (encoded -> 'a -> 'a) -> 'a -> 'a
(** Fold over all triples matching the pattern, using the most selective
    available index. *)

val iter_matching : t -> pattern -> (encoded -> unit) -> unit

val count_matching : t -> pattern -> int
(** Exact number of triples matching the pattern; O(1) for patterns with
    at most two constants thanks to the indexes (the query planner's
    join ordering reads it). *)

val matching : t -> pattern -> encoded list

(** {2 Raw scan access}

    Scans that read rows in place, with no tuple per triple: each call
    returns [(data, n)] where the first [3*n] cells of [data] hold the
    matching triples packed as [s; p; o].  On the hash backend the
    array is the {e live} bucket storage (zero-copy); on the compact
    backend it is a fresh exactly-sized copy of the bracketed block
    range.  Either way it stays valid across further scans — treat it
    as read-only, and do not mutate the store while iterating.

    A read may write the backend: a hash store indexes all its rows on
    its first [scan1], [scan2], count or {!distinct_in_column} (never
    on {!scan_all}, {!fold_all}, {!mem} or {!size}), and the compact
    backend memoizes scan results.  Neither changes contents or
    {!version}.  One domain at a time reads a store (CONCURRENCY.md).
    A hash bucket lists its rows in the triple set's order at that
    first read, then in add order, with removes moving a bucket's last
    row into the hole: the same adds and removes give the same order,
    whenever the store is read after its first read. *)

val scan_all : t -> int array * int
(** Every triple in the store. *)

val scan1 : t -> [ `S | `P | `O ] -> int -> int array * int
(** Triples with the given code in one column. *)

val scan2 : t -> [ `SP | `SO | `PO ] -> int -> int -> int array * int
(** Triples with the given codes in two columns (arguments in the
    order named by the variant). *)

val distinct_in_column : t -> [ `S | `P | `O ] -> int
(** Number of distinct codes in a column, as the query planner's join
    ordering reads it.  O(1) on both backends: the hash backend reads
    its column index's size; the compact backend keeps a count per
    column that each write adjusts when a code's live count crosses
    between 0 and 1, so no memtable or segment is scanned. *)

val fold_all : t -> (encoded -> 'a -> 'a) -> 'a -> 'a

val copy : t -> t
(** Deep copy on the same backend, sharing no mutable state.  The
    dictionary is copied too, so every term keeps its code. *)

val of_triples : Triple.t list -> t

val to_triples : t -> Triple.t list

(** {2 Backend controls} *)

val compact : t -> unit
(** Settle the layout now: the compact backend merges its memtable
    into the segments, and a hash store that no read has indexed yet
    indexes all its rows, one index at a time.  Contents and version
    are unchanged — only the internal layout moves.  A loader calls it
    to pay for the indexes inside its own timing. *)

val resident_bytes : t -> int
(** Estimated live bytes of the backend's index structures as they
    stand (the shared dictionary is excluded): a hash store that no
    read or {!compact} has indexed yet counts its triple set only.  The
    [store] bench experiment reports this as bytes/triple per backend,
    after {!compact}. *)
