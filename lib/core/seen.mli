(** Domain-safe seen-table over state keys.

    The search's seen-set, at any job count: a {!State.Tbl} from state
    key to the lowest stratum rank seen so far, behind one spinlock
    shared by the search's domains.  Implements the rank-reopen rule — a
    state is re-admitted only when rediscovered at a strictly lower
    stratum rank. *)

type t

val create : unit -> t
(** An empty table. *)

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
(** Number of distinct keys (i.e. [New] outcomes). *)
