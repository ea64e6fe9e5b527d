(** Inert entry points kept for the pipeline ledger benchmark.

    The multi-query optimizer that lived here (shared-prefix capture
    and a result cache above the plan cache) has been removed: every
    query now runs its compiled plan ({!Plan.exec_into}).  The ledger
    still calls these three functions; each does nothing, and the
    next change to the benchmark deletes the module. *)

val reset : unit -> unit
(** No-op. *)

val set_enabled : bool -> unit
(** No-op: there is no optimizer to toggle. *)

val stats : unit -> int * int
(** Always [(0, 0)]: nothing is cached. *)
