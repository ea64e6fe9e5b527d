(** Parallel view-selection search over OCaml 5 domains.

    Shards the search frontier across per-domain work-stealing deques
    behind the same {!Search.options} interface as the sequential
    engine.  Every domain runs the sequential engine's own expansion on
    an engine forked from the coordinator's, over one shared sharded
    seen-table ({!Shard_tbl}); the forks are merged into the
    coordinator's engine after the join.

    Counters and exploration order are schedule-dependent.  On runs
    that complete (no time or state budget hit) the accepted state set
    reaches the same fixpoint as the sequential search.  States reaching
    the same key along different paths may differ in their rewritings,
    hence in cost, and every one of them is costed, so the best cost
    does not hinge on which path reached a key first and matches the
    sequential result up to cost ties.  Each domain counts into its
    own [Obs] registry, merged into the coordinator's after the join,
    so a [--metrics] dump covers the states every domain admitted.  An
    [on_accept] hook must be safe to call from any domain.

    Falls back to {!Search.run_from} when [jobs = 1], on OCaml 4.x
    ({!Multicore.available} is false), and for [Gstr] — the greedy
    strategy is a chain of closures each seeded by the previous stage's
    single best state, which serializes by construction.

    [RDFVIEWS_STRICT=1] asserts on whichever domain admits the state,
    with that domain's estimator. *)

val run_from : ?jobs:int -> Cost.t -> Search.options -> State.t -> Search.report
(** [run_from ~jobs estimator options initial] — like {!Search.run_from}
    with the work spread over [jobs] domains (coordinator included).
    Default [jobs = 1] (sequential).  The forks share the estimator's
    statistics and only read them: before any fork, the coordinator
    fills their memo with {!Stats.Statistics.prewarm} on [initial]'s
    view bodies.
    @raise Invalid_argument when [jobs < 1]. *)

val run :
  ?jobs:int -> Stats.Statistics.t -> Search.options -> Query.Cq.t list -> Search.report
(** Like {!Search.run}, parallelized the same way. *)
