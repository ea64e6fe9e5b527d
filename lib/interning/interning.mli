(** Hash-consing interner for canonical strings.

    Maps each distinct canonical form to a dense non-negative integer
    id, assigned on first sight and stable for the life of the process.
    State identity ([Core.State.key]), fusion-candidate detection
    ([Core.Transition]) and the compiled-plan cache ([Query.Plan])
    compare these ids instead of the underlying strings.  The library
    depends on [multicore] alone: both [core] and [query] sit on top of
    the same process-global table.

    All operations are domain-safe: the string → id map is one table
    under one spinlock, so parallel search domains ([Core.Search])
    intern concurrently while ids stay dense, unique and stable.  Only
    {!reset} assumes a single domain. *)

type id = int

module Int_tbl : Hashtbl.S with type key = int
(** A hash table keyed by ints (interned ids, view ids, store ids) that
    hashes a key by its own value, without the polymorphic hash
    ([Int.hash] is missing before OCaml 5.1). *)

val of_canonical : string -> id
(** The id of a canonical string, allocating a fresh one on first
    sight.  Total and idempotent: equal strings always map to equal
    ids, distinct strings to distinct ids, and the ids handed out since
    the last {!reset} are exactly [0 .. size () - 1]. *)

val size : unit -> int
(** Number of distinct canonical forms interned so far — exported as
    the [intern.size] gauge at the end of every search run. *)

val reset : unit -> unit
(** Drop all ids and restart numbering from 0.  Only for reproducible
    tests; never call while states built against the old numbering
    are still alive. *)
