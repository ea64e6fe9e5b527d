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

val run_from : ?jobs:int -> Cost.t -> options -> State.t -> report
(** [run_from ~jobs estimator options initial] searches from a given
    initial state (used for pre-reformulation and by the competitor
    harness).

    EXNAIVE, EXSTR and DFS run one worklist loop over [jobs] domains,
    the coordinating one included (default 1: the same loop on the
    calling domain, spawning nothing).  Every domain pops one shared
    frontier, under DFS a stack and under EXSTR/EXNAIVE a FIFO queue,
    and one expansion's successors are pushed so that they are popped
    in the order they were generated.  An item carries its state's
    {!Cost.node}, computed when the state arrived, so whichever domain
    expands it costs the successors from that node; the estimator
    itself keeps no per-state cost.  At one domain the search is
    therefore the paper's depth-first (resp. breadth-first) order;
    several domains interleave that one order.  Their counters and
    exploration order are schedule-dependent, but a completed run
    accepts the same state set and, since every arrival of a key is
    costed, reaches the same best cost up to cost ties.  The run's
    books ([search.*], [transition.<K>.*], [cost.*]) are the engines'
    and their estimators': each domain's are merged after the join and
    added to the caller's sink once, also when the run raises, with the
    [parallel.domain.*] utilization counters; no worker domain touches
    a sink.  [estimator]'s own counts are left as they were.  An
    [on_accept] hook must be safe to call from any domain.  GSTR, a
    chain of closures each seeded by the
    previous stage's single best state, always runs on the calling
    domain, as does everything on OCaml 4.x ({!Multicore.available} is
    false).

    The domains share the estimator's statistics and only read them:
    first, on the calling domain, {!Stats.Statistics.prewarm} fills
    their memo from [initial]'s view bodies.

    When [RDFVIEWS_STRICT] is set ({!Query.Evaluation.strict_enabled},
    read once at the start of the run), the reference semantics is
    recovered from the initial state and {!Invariant.assert_valid} runs
    on every accepted state, on whichever domain admits it; the first
    violation aborts the search with {!Invariant.Violation}.  The same
    reading makes {!Transition} check every successor and
    {!Cost.child} cross-check every incremental cost.
    @raise Invalid_argument when [jobs < 1]. *)

val run :
  ?jobs:int -> Stats.Statistics.t -> options -> Query.Cq.t list -> report
(** Search from the standard initial state S0 of the workload. *)

val strategy_name : strategy -> string
val strategy_of_string : string -> strategy option
