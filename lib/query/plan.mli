(** Compiled query plans: int-slot binding frames over array buckets,
    with a per-store plan cache.

    A plan fixes, at compile time and for good, the join order (greedy
    most-selective-first from the store's O(1) pattern counts), the
    dense slot number of every variable, and — per body atom — which
    positions are constants (resolved to dictionary codes), which bind
    a slot first seen there, and which test a slot bound earlier.
    Execution walks the store's packed [int array] buckets depth-first
    against one mutable frame: no maps, no closures and no per-triple
    allocation.

    A restricted CQ ({!Rcq}, one shape of a reformulation) compiles
    into one plan.  Each restricted variable's constants are resolved
    to sorted codes, and those absent from the dictionary are dropped
    (no triple can hold them).  The first step that mentions the
    variable writes each code into its slot in turn and probes once per
    code; later steps see it bound.  The join order estimate of an atom
    with an unbound restricted variable sums the store's counts over
    its codes.

    Plans are cached on the store they were compiled against
    ({!Rdf.Store.add_cache}), keyed by the query's
    {!Rcq.canonical_string} (the {!Cq.canonical_string} when nothing is
    restricted), so isomorphic queries share one plan and
    the plans die with their store.  A cached plan is recompiled only
    when it found a constant absent (and proved the query empty, or
    dropped the constant from a set) and the dictionary has grown since
    (an absent constant may have appeared).

    A plan may have {e parameter slots} ({!compile} [~params]):
    variables whose codes each execution supplies ({!exec} [~args]).
    They take the first slots of the frame and the planner treats them
    as bound before the first step, so one compiled plan serves every
    argument vector; an atom they fill becomes an index lookup or a
    membership probe.  Only parameterless plans are cached.

    Instruments: [eval.plan.cache_hits] / [eval.plan.cache_misses]
    counters, the [eval.frame.extensions] counter
    (successful per-step frame extensions), and the pre-existing
    [eval.bindings] (complete assignments). *)

type t

val compile : ?params:string list -> Rdf.Store.t -> Cq.t -> t
(** Compile a plan against the store's current dictionary, counts and
    indexes, bypassing the cache.  The [params] variables (default
    none; [Invalid_argument] if one repeats) take slots [0 .. k - 1],
    in order; the join order estimates each as a bound variable of
    unknown value.  A parameter may appear in the head. *)

val compile_rcq : ?params:string list -> Rdf.Store.t -> Rcq.t -> t
(** {!compile} for a restricted CQ.  A parameter may not be restricted
    ([Invalid_argument]). *)

val cached : Rdf.Store.t -> Cq.t -> t
(** The cached plan for the query's canonical form on this store,
    compiling (or transparently recompiling, see above) on miss.  The
    store's table has no lock: only the coordinating domain may call
    this, which [tool/analyze] checks ([@@coordinator_only]). *)

val cached_rcq : Rdf.Store.t -> Rcq.t -> t
(** {!cached} for a restricted CQ, keyed by its canonical form, sets
    included. *)

val exec : ?args:int array -> t -> Rdf.Store.t -> (int array -> unit) -> unit
(** Stream every complete binding's projected row (duplicates
    included; set semantics is the caller's), with the parameters set
    to [args] (default [[||]]): one code per parameter, in {!compile}'s
    order, or [Invalid_argument].  The store must be the
    one the plan was compiled against ([Invalid_argument] otherwise)
    and must not be mutated during execution.  The emitted array is ONE
    scratch buffer reused across emissions — copy it (or insert it
    into a {!Rdf.Rowset}, which copies) to retain a row past the
    callback. *)

val exec_into : ?args:int array -> t -> Rdf.Store.t -> Rdf.Rowset.t -> unit
(** {!exec} with set-semantics accumulation into a row table.  Records
    the plan's cardinality delta as its {!size_hint}. *)

val last_bindings : t -> int
(** Complete assignments (duplicates included) counted by this plan's
    most recent execution. *)

val size_hint : t -> int
(** Cardinality of the result set last produced via {!exec_into} (0
    before the first execution).
    Callers use it to pre-size the next execution's row table, so
    steady-state re-evaluation of a cached plan never pays hash-table
    growth. *)

val is_impossible : t -> bool
(** The plan proved the query empty at compile time: some body
    constant was absent from the store's dictionary, or every constant
    of a restricted variable was. *)

val reset_cache : unit -> unit
(** Drop every cached plan of every store: it bumps one process-wide
    generation number, and a store's table filled at an older
    generation is emptied on its next use.  For benchmarks that time
    cold evaluation on a store they keep. *)

val cached_plan_count : Rdf.Store.t -> int
(** Number of plans currently cached for this store. *)
