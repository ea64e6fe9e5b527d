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
(** A cost estimator: statistics plus weights plus a table of view
    profiles (cardinality, column distincts, width), plus its counts of
    the algebra nodes estimated ([cost.estimate.nodes]) and of the child
    nodes made by the delta path and by a full recompute
    ([cost.delta.incremental], [cost.delta.full]).  It reports to no
    sink on its own: a search run {!publish}es its estimator. *)

val create : Stats.Statistics.t -> weights -> t
(** A fresh estimator with an empty profile table, which times nothing.
    Profiles are keyed by [View.id], which no two views share; a view
    reloaded with {!View.of_cq} keeps its name but gets a fresh id, and
    so its own profile. *)

val for_run : t -> Obs.t -> t
(** An estimator sharing [t]'s statistics, weights and profiles, with
    its counts at zero and {!root} timed in the registry's
    [cost.state.eval]: a search run's own, so an estimator reused across
    runs counts each run apart. *)

val absorb : into:t -> t -> unit
(** Add the second estimator's counts to the first's. *)

val publish : t -> Obs.t -> unit
(** Add the counts to the sink; a zero count registers nothing. *)

val weights : t -> weights
(** The weights the estimator was created with. *)

val stats : t -> Stats.Statistics.t
(** The statistics the estimator was created with — exposed so a
    per-domain clone can be built ({!Search.run_from}). *)

val view_cardinality : t -> View.t -> float
(** [|v|ε] (memoized). *)

val view_size : t -> View.t -> float
(** Estimated space occupancy of the view in bytes: cardinality times the
    summed average size of its head columns. *)

val vmc : t -> State.t -> float
(** [VMCε(S)]: summed maintenance cost, [f^len(v)] per view. *)

val rewriting_cost : t -> State.t -> Rewriting.t -> float * float
(** [(io, cpu)] estimation for one rewriting in the given state. *)

type node
(** A state's cost with the structure the incremental path updates: the
    three unweighted components, the weighted REC contribution of each
    rewriting, and the number of incremental steps since the last full
    recompute.  The estimator keeps no node: the search holds each
    state's node beside the state until the state is expanded. *)

val root : t -> State.t -> node
(** The full recompute of cε(S), timed as {!for_run} says. *)

val child :
  strict:bool -> t -> parent:node -> delta:Delta.t -> State.t -> node
(** The node of a successor, computed from its parent's node: VSO and
    VMC are updated by the delta's removed/added views, and only the
    touched rewritings are re-estimated — every untouched rewriting
    keeps its parent's REC contribution bit-for-bit.  Falls back to
    {!root} when the delta does not line up with the child, or after
    {e max_chain} = 24 consecutive incremental steps (bounding float
    drift in VSO/VMC).  With [~strict:true] (the search passes strict
    mode, read once per run) every incremental result is cross-checked
    against the full recompute within a relative tolerance of 1e-6;
    divergence raises [Failure]. *)

val total : node -> float
(** cε of the node's state. *)

val state_cost : t -> State.t -> float
(** cε(S), from scratch: [total (root t s)]. *)

type breakdown = { vso_part : float; rec_part : float; vmc_part : float; total : float }

val breakdown : t -> State.t -> breakdown
(** Unweighted components and the weighted total, for reporting. *)

