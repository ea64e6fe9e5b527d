(** Domain-safe dedup table over state keys.

    The search's seen-set, shared by its domains: a {!State.Tbl} split
    into independently spinlocked shards selected by
    {!State.hash_key}, so domains contend only on keys hashing to the
    same shard.  Implements the rank-reopen rule — a state is
    re-admitted only when rediscovered at a strictly lower stratum
    rank. *)

type t

val create : unit -> t
(** An empty table (16 shards, each with its own spinlock). *)

type outcome =
  | New  (** key never seen: admitted and recorded at [rank] *)
  | Reopened
      (** key seen before at a strictly higher rank: re-admitted, the
          recorded rank lowered to [rank] *)
  | Duplicate  (** key already recorded at a rank [<= rank]: rejected *)

val visit : t -> State.key -> int -> outcome
(** [visit t key rank] atomically applies the rank-reopen rule for
    [key] at stratum [rank].  The probe and the update are one critical
    section, so exactly one of two racing domains observes [New] for a
    given fresh key. *)

val population : t -> int
(** Number of distinct keys across all shards (i.e. [New] outcomes). *)
