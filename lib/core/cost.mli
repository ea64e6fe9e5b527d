(** The estimated state cost cε (§3.3):

    [cε(S) = cs·VSOε(S) + cr·RECε(S) + cm·VMCε(S)] with
    [RECε(S) = Σ_r (c1·ioε(r) + c2·cpuε(r))] and
    [VMCε(S) = Σ_v f^len(v)].

    CPU costs follow the textbook formulas: a selection costs its input
    cardinality, a hash join costs [|L| + |R| + |out|], projections and
    renamings are free (column pruning during the producing scan — this
    makes view fusion never increase the cost, as claimed at the end of
    §3.3), and a union costs the sum of its branch cardinalities
    (duplicate elimination). *)

type weights = {
  cs : float;  (** weight of view space occupancy *)
  cr : float;  (** weight of rewriting evaluation cost *)
  cm : float;  (** weight of view maintenance cost *)
  c1 : float;  (** weight of I/O inside REC *)
  c2 : float;  (** weight of CPU inside REC *)
  f : float;   (** per-join fan-out factor of VMC *)
}

val default_weights : weights
(** The paper's §6 settings: cs = cr = c1 = c2 = 1, cm = 0.5, f = 2. *)

type t
(** A cost estimator: statistics plus weights plus memo tables. *)

val create : Stats.Statistics.t -> weights -> t
(** A fresh estimator with empty memo tables.  Memoization keys on
    interned view identity, so one estimator must only be used with one
    interner epoch (see {!Interning.reset}). *)

val weights : t -> weights
(** The weights the estimator was created with. *)

val stats : t -> Stats.Statistics.t
(** The statistics the estimator was created with — exposed so a
    per-domain clone can be built ({!Parallel_search}). *)

val view_cardinality : t -> View.t -> float
(** [|v|ε] (memoized). *)

val view_size : t -> View.t -> float
(** Estimated space occupancy of the view in bytes: cardinality times the
    summed average size of its head columns. *)

val vso : t -> State.t -> float
(** [VSOε(S)]: summed space occupancy of the state's views. *)

val vmc : t -> State.t -> float
(** [VMCε(S)]: summed maintenance cost, [f^len(v)] per view. *)

val rec_cost : t -> State.t -> float
(** [RECε(S)]: summed evaluation cost of the state's rewritings. *)

val rewriting_cost : t -> State.t -> Rewriting.t -> float * float
(** [(io, cpu)] estimation for one rewriting in the given state. *)

val rewriting_cardinality : t -> State.t -> Rewriting.t -> float
(** Estimated output cardinality of a rewriting. *)

val state_cost : t -> State.t -> float
(** cε(S), memoized on {!State.key} (compact interned-id keys, hashed
    once per state).  States with the same key have the same views but
    may differ in their rewritings, hence in REC: the memo keeps one
    representative per key and answers only for it, so the result is
    always the cost of [S] itself. *)

val state_cost_delta :
  ?memoize:bool ->
  strict:bool ->
  t ->
  parent:State.t ->
  delta:Delta.t ->
  State.t ->
  float
(** cε(child), computed incrementally from the parent's memoized cost:
    VSO and VMC are updated by the delta's removed/added views, and only
    the touched rewritings are re-estimated — every untouched rewriting
    keeps its cached REC contribution bit-for-bit.  Falls back to the
    full recompute when the parent was never costed, when the delta does
    not line up with the child, or after {e max_chain} consecutive
    incremental steps (bounding float drift in VSO/VMC).  With
    [~strict:true] (the search passes strict mode, read once per run)
    every incremental result is cross-checked against the full
    recompute within a relative tolerance of 1e-6; divergence raises
    [Failure].  The result is memoized exactly like
    {!state_cost}, replacing the key's representative, unless
    [memoize] is [false] (for a state that will not be expanded). *)

val memo_counts : t -> int * int
(** Cumulative state-cost memo [(hits, misses)] of this estimator. *)

type breakdown = { vso_part : float; rec_part : float; vmc_part : float; total : float }

val breakdown : t -> State.t -> breakdown
(** Unweighted components and the weighted total, for reporting. *)

val memo_consistent : t -> State.t -> bool
(** True when the memoized cost for the state (if any) agrees with a
    fresh full recomputation within a relative tolerance of 1e-6 (the
    memoized value may have been produced by the incremental path, whose
    VSO/VMC components drift by float re-association).  States never
    memoized are vacuously consistent.  This is the
    incremental-vs-reference cross-check {!Invariant.check_costs} runs
    on every accepted state in strict mode. *)
