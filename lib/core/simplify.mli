(** Algebraic simplification of rewritings.

    Transitions build rewritings by textual substitution (§3.2), which
    piles up projections, renamings and nested selections.  Before
    handing rewritings to an execution engine (§6.6 suggests translating
    them into the target platform's logical plans), this module
    normalizes them:

    - nested selections are merged, empty selections dropped;
    - consecutive projections collapse; projections that keep every
      column disappear;
    - renamings compose; identity renamings disappear;
    - selections commute through projections and renamings towards the
      scans, and split across join branches when they mention only one
      side;
    - nested unions flatten and duplicate branches collapse.

    The result is executor-equivalent (property-tested) and usually
    reads like the paper's select-project-join examples. *)

val simplify : Rewriting.env -> Rewriting.t -> Rewriting.t
(** Normalize the expression.  The output columns (names and order) are
    preserved exactly.  Raises [Failure] on unknown view symbols. *)

val node_count : Rewriting.t -> int
(** Number of operator nodes, for measuring the simplification. *)

val state_rewritings : State.t -> State.t * Delta.t
(** Normalize every rewriting of the state.  The views are unchanged (so
    the state's interned {!State.key} is preserved); the returned delta
    has empty view lists and names the queries whose expression actually
    changed.  Used on final states for reporting — the search keeps raw
    expressions so the incremental cost path can share untouched
    rewriting estimates bit-for-bit. *)
