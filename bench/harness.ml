(* Shared infrastructure for the per-figure/table benchmark harnesses.

   Scale: the paper runs 30-minute to 3-hour searches on a 35M-triple
   PostgreSQL database.  The harness reproduces the *shape* of every
   result at laptop scale; BENCH_SCALE=full enlarges workload sizes and
   time budgets. *)

type scale = Quick | Full

let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some ("full" | "FULL") -> Full
  | _ -> Quick

let scale_name = match scale with Quick -> "quick" | Full -> "full"

let search_budget = match scale with Quick -> 1.0 | Full -> 30.0
let long_budget = match scale with Quick -> 3.0 | Full -> 120.0
let barton_entities = match scale with Quick -> 400 | Full -> 5000

(* ---------- metrics ------------------------------------------------------ *)

(* With --metrics FILE, main.ml runs the experiments inside
   [with_metrics]: one Obs registry is installed before any experiment
   runs, every search/transition/cost/store event of every figure lands
   in it, grouped under per-experiment spans, and FILE is written before
   the first experiment and again after the last (also when one raises).
   Without the flag the global sink stays the no-op one and the runs are
   unmetered. *)

let with_metrics path f =
  let registry = Obs.create () in
  Obs.set_global registry;
  Obs.Export.with_dump ~path registry f;
  Printf.printf "\nmetrics written to %s\n" path

(* Wrap one experiment (or sub-experiment) in a named trace span; a
   no-op when metrics are disabled. *)
let experiment name f = Obs.span (Obs.global ()) name f

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

(* ---------- table printing ---------------------------------------------- *)

let print_table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width i =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    let cells =
      List.mapi
        (fun i cell -> Printf.sprintf "%-*s" (List.nth widths i) cell)
        row
    in
    print_endline ("  " ^ String.concat "  " cells)
  in
  print_row header;
  print_endline
    ("  " ^ String.concat "--" (List.map (fun w -> String.make w '-') widths));
  List.iter print_row rows

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e6 then
    Printf.sprintf "%.0f" f
  else if Float.abs f >= 1000. then Printf.sprintf "%.3e" f
  else Printf.sprintf "%.3f" f

let fmt_rcr r = Printf.sprintf "%.3f" r

let fmt_ms ns = Printf.sprintf "%.3f" (ns /. 1e6)

(* ---------- machine-readable baselines (BENCH_<experiment>.json) --------- *)

(* Without --metrics, every top-level experiment runs against its own
   fresh registry and its headline numbers — states/sec, expand-latency
   percentiles, best cost, peak heap — are written to
   BENCH_<experiment>.json for CI to archive and diff.  With --metrics
   the single shared registry wins and no BENCH files are written (the
   two modes want incompatible registry lifetimes). *)

let bench_dir : string option ref = ref (Some ".")

let set_bench_dir dir = bench_dir := Some dir

let disable_bench_json () = bench_dir := None

let baseline : (string * Obs.Json.t) option ref = ref None

let fail_over : float option ref = ref None

(* Warn-only default: regressions are reported but do not fail the run
   unless --fail-over sets an explicit threshold. *)
let warn_threshold = 20.

let regressions = ref 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_baseline path =
  baseline := Some (path, Obs.Json.of_string (read_file path))

let set_fail_over pct = fail_over := Some pct

let bench_file_name name =
  "BENCH_" ^ String.map (fun c -> if c = '/' then '-' else c) name ^ ".json"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Experiment-specific extras appended to the BENCH json — e.g. the
   parallel experiment's scaling section.  Cleared by [toplevel] before
   each experiment so extras never leak across BENCH files. *)
let extra_bench_fields : (string * Obs.Json.t) list ref = ref []

let add_bench_field key json =
  extra_bench_fields := (key, json) :: !extra_bench_fields

(* Query-evaluation section, present only when the experiment drove the
   evaluator under the "eval.run" histogram (the eval experiment).  The
   count fields (queries, answers, bindings, probes) are deterministic
   for a fixed workload and participate in the exact baseline compare;
   the rates are wall-clock-derived and only threshold-compared. *)
let eval_json registry =
  match Obs.find_histogram registry "eval.run" with
  | None -> None
  | Some run ->
    let run_ns = Obs.histogram_sum run in
    let counter n = Option.value ~default:0 (Obs.find_counter registry n) in
    let pctl q =
      match Obs.find_histogram registry "eval.query.ns" with
      | Some h -> Obs.Json.Float (Obs.percentile h q)
      | None -> Obs.Json.Null
    in
    let gauge n =
      match Obs.find_gauge registry n with
      | Some v -> Obs.Json.Float v
      | None -> Obs.Json.Null
    in
    let bindings = counter "eval.bindings" in
    let per_sec =
      if run_ns = 0 then 0.
      else float_of_int bindings /. (float_of_int run_ns /. 1e9)
    in
    Some
      (Obs.Json.Obj
         [
           ("queries", Obs.Json.Int (counter "eval.queries"));
           ("answers", Obs.Json.Int (counter "eval.answers"));
           ("bindings", Obs.Json.Int bindings);
           ("probes", Obs.Json.Int (counter "eval.frame.extensions"));
           ("plan_compiles", Obs.Json.Int (counter "eval.plan.cache_misses"));
           ("plan_cache_hits", Obs.Json.Int (counter "eval.plan.cache_hits"));
           ("run_ns", Obs.Json.Int run_ns);
           ("bindings_per_sec", Obs.Json.Float per_sec);
           ( "query_ns",
             Obs.Json.Obj
               [ ("p50", pctl 50.); ("p90", pctl 90.); ("p99", pctl 99.) ] );
           ("reference_bindings_per_sec", gauge "eval.reference.bindings_per_sec");
           ("speedup_vs_reference", gauge "eval.reference.speedup");
         ])

(* [gc0]/[gc1] are [Gc.quick_stat] readings bracketing the experiment,
   so the collection counts are this experiment's own, not the process's
   cumulative ones.  They are environment-dependent (like
   peak_heap_words and the rates) and stay out of the exact baseline
   compare. *)
let gc_json gc0 gc1 =
  Obs.Json.Obj
    [
      ( "minor_collections",
        Obs.Json.Int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
      ( "major_collections",
        Obs.Json.Int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("compactions", Obs.Json.Int (gc1.Gc.compactions - gc0.Gc.compactions));
    ]

let bench_json name registry ~gc0 ~gc1 =
  let counter n = Option.value ~default:0 (Obs.find_counter registry n) in
  let pctl q =
    match Obs.find_histogram registry "search.expand.ns" with
    | Some h -> Obs.percentile h q
    | None -> Float.nan
  in
  let gauge n =
    match Obs.find_gauge registry n with
    | Some v -> Obs.Json.Float v
    | None -> Obs.Json.Null
  in
  let created = counter "search.created" in
  let run_ns =
    match Obs.find_histogram registry "search.run" with
    | Some h -> Obs.histogram_sum h
    | None -> 0
  in
  let states_per_sec =
    if run_ns = 0 then 0.
    else float_of_int created /. (float_of_int run_ns /. 1e9)
  in
  Obs.Json.Obj
    ([
      (* v3: added the gc section (collection counts, compactions, max
         pause when runtime events were collected).
         v4: added host_cores and ocaml_version — environment stamps
         the baseline compare consults: rate thresholds turn warn-only
         when the core counts differ (different hardware).
         v5: dropped gc.max_pause_ns — runtime events run only under
         --metrics, which writes no BENCH files, so it was always
         null. *)
      ("schema_version", Obs.Json.Int 5);
      ("experiment", Obs.Json.String name);
      ("scale", Obs.Json.String scale_name);
      ("host_cores", Obs.Json.Int (Multicore.recommended_domain_count ()));
      ("ocaml_version", Obs.Json.String Sys.ocaml_version);
      ("states_created", Obs.Json.Int created);
      ("states_explored", Obs.Json.Int (counter "search.explored"));
      ("search_run_ns", Obs.Json.Int run_ns);
      ("states_per_sec", Obs.Json.Float states_per_sec);
      ( "expand_ns",
        Obs.Json.Obj
          [
            ("p50", Obs.Json.Float (pctl 50.));
            ("p90", Obs.Json.Float (pctl 90.));
            ("p99", Obs.Json.Float (pctl 99.));
          ] );
      ("best_cost", gauge "search.best_cost");
      ("initial_cost", gauge "search.initial_cost");
      (* process-wide interner population after the run: deterministic
         for a fixed workload, so it participates in the exact compare *)
      ("interned_views", gauge "intern.size");
      ("peak_heap_words", Obs.Json.Int (Gc.quick_stat ()).Gc.top_heap_words);
      ("gc", gc_json gc0 gc1);
    ]
    @ (match eval_json registry with
      | Some section -> [ ("eval", section) ]
      | None -> [])
    @ List.rev !extra_bench_fields)

(* Numeric lookup along a dotted path ("expand_ns.p50"). *)
let bench_number path json =
  let rec go j = function
    | [] -> (
      match j with
      | Obs.Json.Float f -> Some f
      | Obs.Json.Int i -> Some (float_of_int i)
      | _ -> None)
    | key :: rest -> (
      match Obs.Json.member key j with Some j' -> go j' rest | None -> None)
  in
  go json (String.split_on_char '.' path)

(* Compare one experiment's fresh BENCH json against the loaded
   baseline (matched by experiment name).  Search outcomes must be
   identical — the search is deterministic — while throughput may
   drift up to the threshold before counting as a regression. *)
let compare_to_baseline name current =
  match !baseline with
  | None -> ()
  | Some (path, base) ->
    let base_name =
      match Obs.Json.member "experiment" base with
      | Some (Obs.Json.String s) -> s
      | _ -> ""
    in
    if String.equal base_name name then begin
      let threshold = Option.value ~default:warn_threshold !fail_over in
      subsection
        (Printf.sprintf "baseline compare: %s (threshold %.0f%%%s)" path
           threshold
           (match !fail_over with None -> ", warn-only" | Some _ -> ""));
      List.iter
        (fun key ->
          match (bench_number key base, bench_number key current) with
          | Some b, Some c ->
            if Float.abs (c -. b) > 1e-9 *. Float.max 1. (Float.abs b) then begin
              incr regressions;
              Printf.printf "  REGRESSION %s: %s -> %s (expected identical)\n"
                key (fmt_float b) (fmt_float c)
            end
            else Printf.printf "  ok %s: %s\n" key (fmt_float c)
          | _ -> Printf.printf "  skip %s (absent)\n" key)
        [
          "states_created"; "states_explored"; "best_cost"; "interned_views";
          (* eval-experiment determinism: answer/binding/probe counts of
             the fixed workload (absent, hence skipped, elsewhere) *)
          "eval.queries"; "eval.answers"; "eval.bindings"; "eval.probes";
          (* parallel-experiment fixpoint flag: a completed parallel
             run must reach the sequential best cost (absent, hence
             skipped, elsewhere) *)
          "parallel.free_best_cost_matches";
        ];
      (* Rates compare hardware as much as code: when the baseline was
         recorded on a host with a different core count (v4 stamp;
         absent in pre-v4 baselines counts as different), rate
         regressions are reported as warnings and never fail the
         run. *)
      let same_host =
        match (bench_number "host_cores" base, bench_number "host_cores" current)
        with
        | Some b, Some c -> b = c
        | _ -> false
      in
      if not same_host then
        Printf.printf
          "  note: baseline from a different host (core count differs); \
           rate thresholds are warn-only\n";
      let rate key =
        match (bench_number key base, bench_number key current) with
        | Some b, Some c when b > 0. ->
          let drop = (b -. c) /. b *. 100. in
          if drop > threshold then
            if same_host then begin
              incr regressions;
              Printf.printf "  REGRESSION %s: %s -> %s (-%.1f%%)\n" key
                (fmt_float b) (fmt_float c) drop
            end
            else
              Printf.printf "  WARN %s: %s -> %s (-%.1f%%, different host)\n"
                key (fmt_float b) (fmt_float c) drop
          else
            Printf.printf "  ok %s: %s -> %s (%+.1f%%)\n" key (fmt_float b)
              (fmt_float c) (-.drop)
        | _ -> Printf.printf "  skip %s (absent)\n" key
      in
      rate "states_per_sec";
      rate "eval.bindings_per_sec";
      rate "parallel.free_4.states_per_sec";
      (* store-experiment rates (absent, hence skipped, elsewhere).
         The bytes ratio is deterministic in spirit but depends on
         stdlib Hashtbl growth, so it rides the rate compare: a drop
         means the compact layout lost compression ground to hash *)
      rate "store.bytes_per_triple_ratio";
      rate "store.compact.ingest_triples_per_sec";
      rate "store.compact.probes_per_sec";
      rate "store.compact_eval_bindings_per_sec"
    end

(* Exit status for main: 0 unless --fail-over turned regressions
   fatal.  Also prints the verdict line CI greps for. *)
let finish_bench () =
  match !baseline with
  | None -> 0
  | Some (path, _) ->
    Printf.printf "\n%d regression(s) against baseline %s\n" !regressions path;
    if !regressions > 0 && !fail_over <> None then 1 else 0

(* Run one *top-level* experiment (main.ml only; sub-experiments keep
   using [experiment]).  When it writes BENCH json (never under
   --metrics), the experiment gets a fresh registry so its BENCH json
   reflects this experiment alone; the registry is uninstalled
   afterwards even if the experiment raises. *)
let toplevel name f =
  match !bench_dir with
  | None -> experiment name f
  | Some dir ->
    extra_bench_fields := [];
    let registry = Obs.create () in
    Obs.set_global registry;
    let gc0 = Gc.quick_stat () in
    Fun.protect
      ~finally:(fun () -> Obs.set_global Obs.disabled)
      (fun () ->
        let result = experiment name f in
        let gc1 = Gc.quick_stat () in
        let json = bench_json name registry ~gc0 ~gc1 in
        mkdir_p dir;
        let file = Filename.concat dir (bench_file_name name) in
        let oc = open_out file in
        output_string oc (Obs.Json.to_string ~indent:true json);
        output_char oc '\n';
        close_out oc;
        Printf.printf "\n  benchmark json written to %s\n" file;
        compare_to_baseline name json;
        result)

(* ---------- common setups ------------------------------------------------ *)

let barton_store = lazy (Workload.Barton.store ~n_entities:barton_entities ~seed:11 ())
let barton_schema = lazy (Workload.Barton.schema ())

let spec shape n_queries atoms commonality seed =
  {
    Workload.Generator.shape;
    n_queries;
    atoms_per_query = atoms;
    commonality;
    seed;
  }

let options ?(strategy = Core.Search.Dfs) ?(avf = true) ?(stop_var = true)
    ?(budget = search_budget) ?max_states () =
  {
    Core.Search.strategy;
    avf;
    stop_tt = true;
    stop_var;
    time_budget = Some budget;
    max_states;
    weights = Core.Cost.default_weights;
    on_accept = None;
  }

let stats_for store = Stats.Statistics.create store

(* Average number of atoms in the best state's views (§6.4 reports 3.2
   for DFS vs 6.5 for GSTR). *)
let avg_view_atoms (state : Core.State.t) =
  match state.Core.State.views with
  | [] -> 0.
  | views ->
    float_of_int
      (List.fold_left (fun acc v -> acc + Core.View.atom_count v) 0 views)
    /. float_of_int (List.length views)

(* ---------- bechamel ------------------------------------------------------ *)

(* Runs a group of Bechamel tests and returns (name, ns/run) pairs,
   OLS-estimated on the monotonic clock. *)
let measure_tests ?(quota = 0.5) tests =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second quota) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name v acc ->
      let estimate =
        match Analyze.OLS.estimates v with
        | Some (e :: _) -> e
        | Some [] | None -> Float.nan
      in
      (name, estimate) :: acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)
