(** Search strategies over the space of candidate view sets (§5).

    - [Exnaive] — Algorithm 2: unrestricted exhaustive search, any
      transition anywhere (BFS order).
    - [Exstr] — exhaustive stratified search: every path respects the
      regular language VB* SC* JC* VF* (Definition 5.3); states reached at
      a lower stratum are re-opened so the strategy stays exhaustive
      (Theorem 5.3).
    - [Dfs] — the depth-first stratified strategy of §5.2: same reachable
      set as [Exstr] but explores deeper strata first, keeping the
      candidate set small.
    - [Gstr] — greedy stratified: develops the full VB closure of S0,
      keeps only the best state, then its SC closure, and so on (§5.2).

    Options toggle aggressive view fusion (AVF) and the stop conditions
    stoptt, stopvar and stoptime; [max_states] caps the number of
    distinct states held, standing in for the memory limit that makes the
    competitor strategies of [21] fail on large workloads (§6.2). *)

type strategy = Exnaive | Exstr | Dfs | Gstr

type options = {
  strategy : strategy;
  avf : bool;           (** aggressive view fusion *)
  stop_tt : bool;       (** discard states containing the full triple table *)
  stop_var : bool;      (** discard states containing an all-variable view *)
  time_budget : float option;  (** stoptime, in seconds *)
  max_states : int option;     (** memory stand-in; exceeded → out_of_memory *)
  weights : Cost.weights;
  on_accept : (State.t -> unit) option;
      (** called once per distinct accepted state (the initial state
          included), after stop conditions and deduplication; used to
          trace every state the search retains *)
}

val default_options : options
(** DFS-AVF-STV with no time budget, the paper's default weights and no
    accept hook. *)

type report = {
  best : State.t;
      (** the cheapest state generated; a duplicate of an accepted key
          counts, since it may carry other rewritings *)
  best_cost : float;
  initial_cost : float;
  created : int;     (** states produced by transitions *)
  duplicates : int;  (** states reached again through another path *)
  discarded : int;   (** states rejected by a stop condition *)
  explored : int;    (** states fully expanded *)
  elapsed : float;   (** seconds *)
  trajectory : (float * float) list;
      (** (elapsed, best-cost) samples, oldest first — Fig. 7's curves *)
  completed : bool;      (** the reachable space was exhausted *)
  out_of_memory : bool;  (** stopped by [max_states] *)
}

val violates_stop : options -> State.t -> bool
(** Whether a state is rejected by the active stop conditions (stoptt /
    stopvar).  Exposed for the competitor strategies, which honour the
    same conditions during their per-query development. *)

val stop_test : options -> (View.t -> bool) option
(** The same conditions on a single view (a state violates them when one
    of its views does), as {!Transition.successors_with_delta} takes
    them; [None] when both are off. *)

val rcr : report -> float
(** Relative cost reduction [(cε(S0) − cε(Sb)) / cε(S0)] (§6.1). *)

val run_from : Cost.t -> options -> State.t -> report
(** Search from a given initial state (used for pre-reformulation and by
    the competitor harness).  When [RDFVIEWS_STRICT] is set
    ({!Invariant.strict_enabled}), the reference semantics is recovered
    from the initial state and {!Invariant.assert_valid} runs on every
    accepted state; the first violation aborts the search with
    {!Invariant.Violation}. *)

val run : Stats.Statistics.t -> options -> Query.Cq.t list -> report
(** Search from the standard initial state S0 of the workload. *)

val strategy_name : strategy -> string
val strategy_of_string : string -> strategy option

(** Building blocks of the sequential engine, exposed for
    {!Parallel_search} only — no stability guarantees.  A parallel run
    is the sequential engine's own {!expand} driven from several
    domains, each on an engine {!fork}ed from the coordinator's, and
    folded back with {!merge} after the join. *)
module Internal : sig
  type engine
  (** The mutable per-run accounting record: estimator, options,
      seen-table, counters, incumbent best.  Created by {!prologue}. *)

  type prologue = {
    p_engine : engine;
    p_initial : State.t;  (** the initial state after the AVF closure *)
    p_initial_cost : float;
  }

  val prologue : Cost.t -> options -> State.t -> prologue
  (** Everything a run does before the strategy loop: initial cost,
      strict reference recovery, AVF closure of the initial state,
      strategy run counter, engine construction, seen-table seeding. *)

  val epilogue : prologue -> completed:bool -> report
  (** Final gauges, the [search.trajectory] series, and the report.
      Under a parallel run this follows the merges, so the series holds
      the merged trajectory. *)

  val with_run_metrics : (unit -> 'a) -> 'a
  (** Bumps the run counter and times the whole run, exactly as
      {!Search.run_from} does around its body. *)

  val expand : engine -> State.t -> int -> (State.t * int) list
  (** [expand engine state rank] generates the successors of a state
      reached at stratum [rank], admits each one (stop conditions,
      checked before the successor is built; AVF collapse of the views
      the transition added; dedup, cost, strict check, [on_accept]) and
      returns those to expand further, with their ranks. *)

  val should_stop : engine -> bool
  (** Time budget exceeded or seen-table over [max_states] (the latter
      also latches the engine's out-of-memory flag). *)

  val fork : engine -> engine
  (** An engine for another domain: it shares the options, seen-table,
      start time and strict reference, and has its own estimator,
      counters and incumbent. *)

  val merge : into:engine -> engine -> unit
  (** Fold a forked engine's counters, out-of-memory flag, incumbent
      and trajectory into [into].  Exact cost ties keep the state with
      the smaller key. *)
end
