(** Run-level observability: named counters, log-bucketed histograms
    (which also time sections), gauges, point series and nested trace
    spans, gathered in a registry that serializes to JSON — plus the
    renderer of a dump ({!Report}).

    The registry dump is the one record of a search: the paper-style
    search telemetry (states created / duplicates / best cost over time,
    §6) and for
    profiling the hot layers ([Transition], [Search], [Cost],
    [Rdf.Store], [Query.Evaluation]).  Design constraints:

    {ul
    {- {b near-zero cost when disabled} — a sink is either [disabled] (a
       no-op: incrementing a counter in hand is one predictable branch,
       timing a function is a single [if]) or an enabled registry.  The sink in
       effect is selected once at startup via {!set_global};}
    {- {b cheap when enabled} — hot paths keep plain counts in locals
       and add them to a sink once per run (the search, its transitions
       and its cost estimator) or once per operation, when it returns:
       one {!global} read, then one {!counter} lookup by name per count
       ([let sink = Obs.global () in Obs.add (Obs.counter sink "name") n]),
       never one per row, bucket or block;}
    {- {b deterministic accounting} — counters and span nesting are
       exact; only durations depend on the clock.}} *)

val now_ns : unit -> int
(** The monotonic clock, in nanoseconds from an arbitrary origin — the
    clock every duration and span timestamp is read from.
    Exposed for call sites that must time a section without allocating
    a closure. *)

(** {1 Sinks} *)

type t
(** A metrics sink: either disabled or an enabled registry. *)

val disabled : t
(** The no-op sink: every operation on handles derived from it does
    (almost) nothing and allocates nothing. *)

val create : unit -> t
(** A fresh enabled registry.  Span timestamps are relative to the
    moment of creation. *)

val is_enabled : t -> bool

val reset : t -> unit
(** Zero all counters and histograms, unset gauges and series, drop
    recorded spans, re-base the span clock, and zero the span nesting
    depth.  A span still open across the reset is dropped (not
    recorded) when it closes, so reusing one registry across benchmark
    experiments starts each experiment clean.  No-op on [disabled]. *)

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** The counter registered under the given name, created at zero on
    first use.  On a disabled sink, returns the shared no-op counter. *)

val incr : counter -> unit
(** Add one. *)

val add : counter -> int -> unit
(** Add an arbitrary (possibly negative) amount. *)

val value : counter -> int
(** Current count; [0] for the no-op counter. *)

(** {1 Histograms}

    Log-bucketed distribution of integer samples (latencies in ns,
    sizes): bucket 0 holds non-positive samples, bucket [i >= 1] holds
    samples in [[2^(i-1), 2^i)].  64 buckets cover the whole [int]
    range, so recording never branches on overflow.  Percentiles are
    bucket-resolution approximations (within a factor of ~1.5).  A
    duration histogram ({!time}) holds one sample per timed call, in
    ns: its count is the number of calls and its sum the total time. *)

type histogram

val histogram : t -> string -> histogram
(** The histogram registered under the given name; the shared no-op
    histogram on a disabled sink. *)

val observe : histogram -> int -> unit
(** Record one sample.  No-op (and allocation-free) on the no-op
    histogram. *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f], observing its elapsed nanoseconds in [h] (also
    when [f] raises).  On the no-op histogram this is just [f ()]: one
    branch, no clock read, no allocation. *)

val histogram_count : histogram -> int
(** Number of recorded samples. *)

val histogram_sum : histogram -> int
(** Sum of all recorded samples. *)

val percentile : histogram -> float -> float
(** [percentile h q] for [q] in [0..100]: the representative value of
    the bucket holding the ⌈q/100·count⌉-th smallest sample; [nan]
    when empty. *)

val bucket_of_sample : int -> int
(** The bucket index a sample lands in (exposed for tests). *)

val bucket_representative : int -> float
(** The representative sample of a bucket: 0 for bucket 0, the
    geometric middle of [[2^(i-1), 2^i)] otherwise. *)

(** {1 Gauges}

    A gauge holds the last value set — for end-of-run point facts
    (best cost, peak heap words) that are not sums. *)

type gauge

val gauge : t -> string -> gauge
(** The gauge registered under the given name, created unset on first
    use.  On a disabled sink, returns the shared no-op gauge. *)

val set_gauge : gauge -> float -> unit
(** Overwrite the gauge's value (last write wins). *)

val gauge_value : gauge -> float option
(** [None] until the first {!set_gauge} (and always for the no-op
    gauge). *)

(** {1 Series}

    A series holds the last point list set, like a gauge holds the last
    value — for curves known only at the end of a run, such as the
    search's (elapsed seconds, best cost) trajectory. *)

type series

val series : t -> string -> series
(** The series registered under the given name, created unset on first
    use.  On a disabled sink, returns the shared no-op series. *)

val set_series : series -> (float * float) list -> unit
(** Overwrite the series' points (last write wins). *)

(** {1 Spans}

    Spans are begin/end trace events with nesting, for coarse phases
    (one per benchmark experiment, one per search run): each completed
    span records its name, depth, start offset and duration. *)

type span_event = {
  span_name : string;
  depth : int;           (** 0 = top level *)
  start_ns : int;        (** offset from registry creation *)
  elapsed_ns : int;
}

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span (recorded also when [f]
    raises).  On a disabled sink this is just [f ()].  A span crossing
    a {!reset} is dropped. *)

val spans : t -> span_event list
(** Completed spans in chronological order of their start. *)

(** {1 Reading a registry} *)

val counters : t -> (string * int) list
(** All registered counters, sorted by name. *)

val gauges : t -> (string * float) list
(** All {e set} gauges, sorted by name. *)

val all_series : t -> (string * (float * float) list) list
(** All {e set} series, sorted by name. *)

val find_counter : t -> string -> int option
(** The value of a counter, [None] if never registered. *)

val find_histogram : t -> string -> histogram option

val find_gauge : t -> string -> float option
(** The value of a gauge, [None] if never registered or never set. *)

(** {1 Merging registries} *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] adds [src]'s counters and histograms (buckets,
    counts and sums) to [into]'s; gauges, series and spans stay where
    they are.  Both registries must be quiescent: call this after
    joining the domain that owned [src].  A [Disabled] sink on either
    side makes this a no-op. *)

(** {1 The global sink}

    Instrumented modules report to an ambient sink, [disabled] unless
    the entry point (CLI, bench harness, test) installs a registry.

    The ambient sink is {e domain-local}: a freshly spawned domain
    starts disabled.  Only the coordinating domain reads or installs
    it ([tool/analyze] checks that no worker-domain entry point reaches
    {!global} or {!set_global}); a parallel search's workers count into
    their own engines, which the coordinator merges and publishes. *)

val set_global : t -> unit
(** Install the registry as the calling domain's ambient sink. *)

val global : unit -> t
(** The calling domain's ambient sink; {!disabled} until the first
    {!set_global} in this domain.  One [Domain.DLS] read: an
    instrumented operation reads it once, when it returns, and adds its
    counts by name.  On the disabled sink that lookup allocates
    nothing. *)

(** {1 JSON} *)

(** A minimal JSON tree — enough to serialize a registry and to parse
    it back (round-trip tested); no external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : ?indent:bool -> t -> string
  (** Non-finite floats (NaN, ±∞) serialize as [null] — JSON has no
      literal for them and the output must always re-parse. *)

  exception Parse_error of string

  val of_string : string -> t
  (** Inverse of {!to_string}.  @raise Parse_error on malformed input. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)
end

val schema_version : int
(** The version {!to_json} writes: [4]. *)

val to_json : t -> Json.t
(** Serialize a registry:
    {[ { "schema_version": 4,
         "counters":   { name: int, ... },
         "histograms": { name: { "count": int, "total": int,
                                 "p50": num, "p90": num, "p99": num }, ... },
         "gauges":     { name: float, ... },
         "series":     { name: [ [x, y], ... ], ... },
         "spans":      [ { "name": string, "depth": int,
                           "start_ns": int, "elapsed_ns": int }, ... ] } ]}
    A disabled sink serializes to the same shape with empty members.
    EXPERIMENTS.md lists what each earlier version held. *)

val to_string : t -> string
(** [Json.to_string ~indent:true (to_json t)]. *)

(** {1 The metrics file}

    The [--metrics FILE] flag: one JSON dump of a registry, written
    before the run and again after it, read by [rdfviews report]. *)
module Export : sig
  (** A histogram's frozen contents: raw log-buckets (see
      {!bucket_of_sample}) and sample count. *)
  type hist_snap = { hsn_buckets : int array; hsn_count : int }

  type snapshot = { snap_histograms : (string * hist_snap) list }
  (** A deep copy of a registry's histograms at one instant. *)

  val snapshot : t -> snapshot

  val dump : t -> string
  (** [dump registry] first sets the registry's GC gauges — process
      totals of [gc.minor_collections], [gc.major_collections],
      [gc.compactions], [gc.promoted_words] and [gc.top_heap_words] from
      one [Gc.quick_stat ()], and [gc.minor_words] from
      [Gc.minor_words ()], which also counts the current minor heap —
      then returns its {!to_string}. *)

  val with_dump : path:string -> t -> (unit -> 'a) -> 'a
  (** [with_dump ~path registry f] runs [f] between two writes of
      {!dump} to [path], each atomic (tmp + rename): one before [f], so
      a bad path raises [Sys_error] before any work, and one after it,
      also when [f] raises (the run's exception then wins over a failed
      final write).
      @raise Sys_error if a write fails. *)
end

(** {1 The search report}

    Turns a [--metrics] registry dump into the run summary behind
    [rdfviews report]: state totals, convergence curve,
    time-to-within-x%, per-transition acceptance, stratum population,
    the GC totals and per-domain utilization.  Pure — rendering returns
    a string; printing is the caller's business. *)
module Report : sig
  type kind_row = {
    kind : string;         (** transition kind / stratum label *)
    applied : int;
    rejected : int;
    created_k : int;       (** states created in this stratum *)
    accepted_k : int;      (** [created_k - duplicates_k - discarded_k] *)
    reopened_k : int;
    duplicates_k : int;    (** includes [reopened_k] *)
    discarded_k : int;
    time_ns : int;         (** total time spent building successors *)
  }

  type summary = {
    strategy : string option;
        (** the strategies run, comma-separated *)
    initial_cost : float option;
    final_cost : float option;
    created : int;
    explored : int;
    duplicates : int;  (** includes [reopened] *)
    discarded : int;
    accepted : int;    (** [created - duplicates - discarded] *)
    reopened : int;
    completed : bool option;
    wall_ns : int option;
    convergence : (float * float) list;
        (** (elapsed seconds, new best cost), oldest first: the
            [search.trajectory] series *)
    kinds : kind_row list;
  }

  exception Bad_dump of string
  (** A JSON document that is not a registry dump as {!to_json} writes
      it; the message names the offending member. *)

  val of_metrics : Json.t -> summary
  (** The search summary of a [--metrics] registry dump.
      @raise Bad_dump unless [schema_version] is {!schema_version},
      [counters], [histograms], [gauges] and [series] are objects and
      [spans] is a list. *)

  val rcr : summary -> float option
  (** Relative cost reduction (initial − final) / initial. *)

  val time_to_within : summary -> float -> float option
  (** [time_to_within s pct]: the elapsed seconds of the earliest
      convergence point whose cost is ≤ final·(1 + pct/100). *)

  val render : Json.t -> string
  (** Human-readable multi-section report of a dump: header and totals,
      convergence table, time-to-within table, transition acceptance,
      stratum population, then, when the dump has them, the GC totals
      {!Export.dump} sampled and per-domain utilization.
      @raise Bad_dump as {!of_metrics}. *)
end
