(* The Obs observability library: deterministic counter/histogram/span
   semantics, JSON round-trip, and the consistency of the telemetry a
   real search run emits against its own report. *)

open Support

(* ---------- counters ----------------------------------------------------- *)

let test_counter_semantics () =
  let reg = Obs.create () in
  let c = Obs.counter reg "a.b" in
  check_int "fresh counter is zero" 0 (Obs.value c);
  Obs.incr c;
  Obs.incr c;
  Obs.add c 40;
  check_int "incr/add accumulate" 42 (Obs.value c);
  let c' = Obs.counter reg "a.b" in
  Obs.incr c';
  check_int "same name, same counter" 43 (Obs.value c);
  check_int "registry sees the counter" 43
    (Option.get (Obs.find_counter reg "a.b"));
  Obs.reset reg;
  check_int "reset zeroes" 0 (Obs.value c)

let test_disabled_counter () =
  let c = Obs.counter Obs.disabled "x" in
  Obs.incr c;
  Obs.add c 10;
  check_int "no-op counter stays zero" 0 (Obs.value c);
  check_bool "disabled sink has no counters" true (Obs.counters Obs.disabled = []);
  check_bool "disabled is not enabled" false (Obs.is_enabled Obs.disabled)

(* ---------- histograms ---------------------------------------------------- *)

let test_histogram_bucketing () =
  check_int "non-positive samples land in bucket 0" 0 (Obs.bucket_of_sample 0);
  check_int "negative samples land in bucket 0" 0 (Obs.bucket_of_sample (-5));
  check_int "1 lands in bucket 1" 1 (Obs.bucket_of_sample 1);
  check_int "2 lands in bucket 2" 2 (Obs.bucket_of_sample 2);
  check_int "3 lands in bucket 2" 2 (Obs.bucket_of_sample 3);
  check_int "4 lands in bucket 3" 3 (Obs.bucket_of_sample 4);
  check_int "1024 lands in bucket 11" 11 (Obs.bucket_of_sample 1024);
  check_int "max_int does not overflow" 62 (Obs.bucket_of_sample max_int);
  check_bool "bucket 0 represents 0" true (Obs.bucket_representative 0 = 0.);
  (* the representative of a sample's bucket stays within the bucket's
     factor-of-two bounds *)
  List.iter
    (fun sample ->
      let r = Obs.bucket_representative (Obs.bucket_of_sample sample) in
      check_bool
        (Printf.sprintf "representative of %d within 2x" sample)
        true
        (r >= float_of_int sample /. 2. && r <= float_of_int sample *. 2.))
    [ 1; 2; 3; 7; 100; 1024; 999_999 ]

let test_histogram_percentiles () =
  let reg = Obs.create () in
  let h = Obs.histogram reg "h" in
  check_bool "empty percentile is nan" true (Float.is_nan (Obs.percentile h 50.));
  for i = 1 to 100 do
    Obs.observe h i
  done;
  check_int "count" 100 (Obs.histogram_count h);
  check_int "sum" 5050 (Obs.histogram_sum h);
  (* bucket-resolution approximation: p50 of 1..100 is within a factor
     of 2 of the exact median *)
  let p50 = Obs.percentile h 50. in
  check_bool "p50 near exact median" true (p50 >= 25. && p50 <= 100.);
  let p99 = Obs.percentile h 99. in
  check_bool "p99 >= p50" true (p99 >= p50);
  Obs.reset reg;
  check_int "reset zeroes histogram" 0 (Obs.histogram_count h);
  (* disabled sink: shared no-op histogram *)
  let dh = Obs.histogram Obs.disabled "h" in
  Obs.observe dh 42;
  check_int "no-op histogram records nothing" 0 (Obs.histogram_count dh)

(* [time] records one sample per call, in ns: the count is the number
   of calls and the sum the total elapsed time. *)
let test_histogram_time () =
  let reg = Obs.create () in
  let h = Obs.histogram reg "t" in
  let result = Obs.time h (fun () -> 1 + 1) in
  check_int "time returns the result" 2 result;
  let _ = Obs.time h (fun () -> ()) in
  check_int "two calls recorded" 2 (Obs.histogram_count h);
  check_bool "elapsed is non-negative" true (Obs.histogram_sum h >= 0);
  (* the sample is recorded also when the thunk raises *)
  (try Obs.time h (fun () -> failwith "boom") with Failure _ -> ());
  check_int "raising call recorded" 3 (Obs.histogram_count h);
  let dh = Obs.histogram Obs.disabled "t" in
  check_int "no-op handle passes through" 7 (Obs.time dh (fun () -> 7));
  check_int "no-op handle records nothing" 0 (Obs.histogram_count dh)

(* ---------- gauges -------------------------------------------------------- *)

let test_gauge_semantics () =
  let reg = Obs.create () in
  let g = Obs.gauge reg "g" in
  check_bool "fresh gauge is unset" true (Obs.gauge_value g = None);
  check_bool "unset gauge not listed" true (Obs.gauges reg = []);
  Obs.set_gauge g 3.5;
  Obs.set_gauge g 7.25;
  check_bool "gauge keeps the last value" true (Obs.gauge_value g = Some 7.25);
  check_bool "find_gauge sees it" true (Obs.find_gauge reg "g" = Some 7.25);
  Obs.reset reg;
  check_bool "reset unsets the gauge" true (Obs.gauge_value g = None);
  let dg = Obs.gauge Obs.disabled "g" in
  Obs.set_gauge dg 1.;
  check_bool "no-op gauge stays unset" true (Obs.gauge_value dg = None);
  (* a series is a gauge over a point list *)
  let sr = Obs.series reg "s" in
  check_bool "unset series not listed" true (Obs.all_series reg = []);
  Obs.set_series sr [ (0., 3.) ];
  Obs.set_series sr [ (0., 3.); (1.5, 2.) ];
  check_bool "series keeps the last points" true
    (Obs.all_series reg = [ ("s", [ (0., 3.); (1.5, 2.) ]) ]);
  Obs.reset reg;
  check_bool "reset unsets the series" true (Obs.all_series reg = []);
  Obs.set_series (Obs.series Obs.disabled "s") [ (0., 1.) ];
  check_bool "no-op series records nothing" true
    (Obs.all_series Obs.disabled = [])

(* ---------- spans -------------------------------------------------------- *)

let test_span_nesting () =
  let reg = Obs.create () in
  let result =
    Obs.span reg "outer" (fun () ->
        Obs.span reg "inner1" (fun () -> ());
        Obs.span reg "inner2" (fun () -> ());
        17)
  in
  check_int "span returns the result" 17 result;
  let spans = Obs.spans reg in
  check_int "three spans recorded" 3 (List.length spans);
  let by_name name = List.find (fun s -> s.Obs.span_name = name) spans in
  check_int "outer at depth 0" 0 (by_name "outer").Obs.depth;
  check_int "inner at depth 1" 1 (by_name "inner1").Obs.depth;
  check_int "inner2 at depth 1" 1 (by_name "inner2").Obs.depth;
  (match spans with
  | first :: _ -> check_string "chronological: outer starts first" "outer" first.Obs.span_name
  | [] -> Alcotest.fail "no spans");
  check_bool "inner1 starts before inner2" true
    ((by_name "inner1").Obs.start_ns <= (by_name "inner2").Obs.start_ns);
  check_bool "outer encloses inner1" true
    ((by_name "outer").Obs.elapsed_ns >= (by_name "inner1").Obs.elapsed_ns)

(* ---------- JSON --------------------------------------------------------- *)

let sample_json =
  Obs.Json.(
    Obj
      [
        ("null", Null);
        ("flag", Bool true);
        ("off", Bool false);
        ("int", Int 42);
        ("neg", Int (-17));
        ("float", Float 3.25);
        ("whole", Float 2.0);
        ("text", String "line\n\"quoted\"\\slash\tand control \001");
        ("empty_list", List []);
        ("empty_obj", Obj []);
        ("nested", List [ Int 1; List [ String "x" ]; Obj [ ("k", Null) ] ]);
      ])

let test_json_roundtrip () =
  let compact = Obs.Json.to_string sample_json in
  let pretty = Obs.Json.to_string ~indent:true sample_json in
  check_bool "compact round-trips" true
    (Obs.Json.of_string compact = sample_json);
  check_bool "indented round-trips" true
    (Obs.Json.of_string pretty = sample_json)

(* Non-finite floats have no JSON literal; they must serialize as null
   so the output always re-parses (a p99 of an empty histogram is nan). *)
let test_json_nonfinite () =
  let doc =
    Obs.Json.(
      Obj
        [
          ("nan", Float Float.nan);
          ("pinf", Float Float.infinity);
          ("ninf", Float Float.neg_infinity);
          ("fine", Float 1.5);
        ])
  in
  let text = Obs.Json.to_string doc in
  let reparsed = Obs.Json.of_string text in
  check_bool "nan serializes as null" true
    (Obs.Json.member "nan" reparsed = Some Obs.Json.Null);
  check_bool "+inf serializes as null" true
    (Obs.Json.member "pinf" reparsed = Some Obs.Json.Null);
  check_bool "-inf serializes as null" true
    (Obs.Json.member "ninf" reparsed = Some Obs.Json.Null);
  check_bool "finite float survives" true
    (Obs.Json.member "fine" reparsed = Some (Obs.Json.Float 1.5));
  check_bool "indented form also reparses" true
    (Obs.Json.of_string (Obs.Json.to_string ~indent:true doc) = reparsed)

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"open"; "1 2" ] in
  List.iter
    (fun text ->
      match Obs.Json.of_string text with
      | exception Obs.Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" text))
    bad

let test_registry_serialization () =
  let reg = Obs.create () in
  Obs.add (Obs.counter reg "c1") 5;
  Obs.observe (Obs.histogram reg "h1") 100;
  Obs.set_gauge (Obs.gauge reg "g1") 2.5;
  Obs.set_series (Obs.series reg "s1") [ (0., 4.); (0.5, 1.25) ];
  Obs.span reg "phase" (fun () -> ());
  let json = Obs.Json.of_string (Obs.to_string reg) in
  check_bool "schema version present" true
    (Obs.Json.member "schema_version" json = Some (Obs.Json.Int 4));
  check_bool "series serialized as point pairs" true
    (Option.bind (Obs.Json.member "series" json) (Obs.Json.member "s1")
    = Some
        Obs.Json.(
          List [ List [ Float 0.; Float 4. ]; List [ Float 0.5; Float 1.25 ] ]));
  (match Obs.Json.member "histograms" json with
  | Some hists -> (
    match Obs.Json.member "h1" hists with
    | Some h1 ->
      check_bool "histogram count serialized" true
        (Obs.Json.member "count" h1 = Some (Obs.Json.Int 1));
      check_bool "histogram total serialized" true
        (Obs.Json.member "total" h1 = Some (Obs.Json.Int 100));
      check_bool "histogram p50 present" true
        (Obs.Json.member "p50" h1 <> None)
    | None -> Alcotest.fail "no h1 histogram")
  | None -> Alcotest.fail "no histograms member");
  (match Obs.Json.member "gauges" json with
  | Some gauges ->
    check_bool "gauge serialized" true
      (Obs.Json.member "g1" gauges = Some (Obs.Json.Float 2.5))
  | None -> Alcotest.fail "no gauges member");
  (match Obs.Json.(member "counters" json) with
  | Some counters ->
    check_bool "counter value serialized" true
      (Obs.Json.member "c1" counters = Some (Obs.Json.Int 5))
  | None -> Alcotest.fail "no counters member");
  check_bool "no timers member" true (Obs.Json.member "timers" json = None);
  match Obs.Json.(member "spans" json) with
  | Some (Obs.Json.List [ span ]) ->
    check_bool "span name serialized" true
      (Obs.Json.member "name" span = Some (Obs.Json.String "phase"))
  | _ -> Alcotest.fail "expected exactly one span"

(* A reset in the middle of an open span must not poison later spans:
   the open span is dropped when it closes (its start offset predates
   the re-based clock) and the nesting depth returns to zero, so spans
   recorded after the reset sit at depth 0 with small offsets. *)
let test_reset_inside_span () =
  let reg = Obs.create () in
  (try
     Obs.span reg "stale" (fun () ->
         Obs.reset reg;
         (* nested span inside the stale one, after the reset *)
         Obs.span reg "nested" (fun () -> ());
         failwith "escape")
   with Failure _ -> ());
  Obs.span reg "fresh" (fun () -> ());
  let names = List.map (fun s -> s.Obs.span_name) (Obs.spans reg) in
  check_bool "stale span dropped" false (List.mem "stale" names);
  check_bool "fresh span recorded" true (List.mem "fresh" names);
  let fresh = List.find (fun s -> s.Obs.span_name = "fresh") (Obs.spans reg) in
  check_int "depth re-based to zero" 0 fresh.Obs.depth;
  check_bool "start offset re-based" true (fresh.Obs.start_ns >= 0);
  (* the nested span recorded after the reset is also at depth 0: the
     stale enclosing frame no longer counts *)
  match List.find_opt (fun s -> s.Obs.span_name = "nested") (Obs.spans reg) with
  | Some nested -> check_int "post-reset nested span at depth 0" 0 nested.Obs.depth
  | None -> Alcotest.fail "nested span missing"

(* ---------- the global sink ----------------------------------------------- *)

(* An operation reads the ambient sink when it returns and adds its
   counts by name: the counts land in whichever sink is installed at
   that moment, and nowhere while it is disabled. *)
let test_counts_follow_global () =
  let bump () =
    let sink = Obs.global () in
    Obs.incr (Obs.counter sink "global.c")
  in
  Obs.set_global Obs.disabled;
  bump ();
  check_int "disabled: stays zero" 0 (Obs.value (Obs.counter (Obs.global ()) "global.c"));
  let reg = Obs.create () in
  Obs.set_global reg;
  bump ();
  bump ();
  check_int "enabled after set_global" 2
    (Option.get (Obs.find_counter reg "global.c"));
  Obs.set_global Obs.disabled;
  bump ();
  check_int "re-disabled: registry unchanged" 2
    (Option.get (Obs.find_counter reg "global.c"))

(* ---------- integration: a real search run ------------------------------- *)

let fig3_query =
  cq ~name:"q"
    [ v "Y"; v "Z" ]
    [ atom (v "X") (v "Y") (c "ex:c1"); atom (v "X") (v "Z") (c "ex:c2") ]

let fig3_store =
  store_of
    [
      triple (uri "s1") (uri "p1") (uri "ex:c1");
      triple (uri "s1") (uri "p2") (uri "ex:c2");
      triple (uri "s2") (uri "p1") (uri "ex:c1");
      triple (uri "s2") (uri "p1") (uri "ex:c2");
    ]

(* The Figure 3 workload, searched exhaustively with no pruning, into
   a fresh registry installed as the global sink. *)
let fig3_search ?on_accept ~jobs () =
  let options =
    {
      Core.Search.default_options with
      strategy = Core.Search.Exnaive;
      avf = false;
      stop_tt = false;
      stop_var = false;
      on_accept;
    }
  in
  let reg = Obs.create () in
  Obs.set_global reg;
  Fun.protect ~finally:(fun () -> Obs.set_global Obs.disabled) @@ fun () ->
  let result =
    match
      Core.Search.run ~jobs
        (Stats.Statistics.create fig3_store)
        options [ fig3_query ]
    with
    | report -> Ok report
    | exception e -> Error e
  in
  (result, reg)

let counter_in reg name = Option.value ~default:0 (Obs.find_counter reg name)

(* Σ search.stratum.<K>.created over the strata *)
let stratum_created reg =
  List.fold_left
    (fun acc k ->
      acc
      + counter_in reg
          ("search.stratum." ^ Core.Transition.kind_name k ^ ".created"))
    0 Core.Transition.all_kinds

(* Σ transition.<K>.applied over the kinds *)
let transitions_applied reg =
  List.fold_left
    (fun acc k ->
      acc
      + counter_in reg ("transition." ^ Core.Transition.kind_name k ^ ".applied"))
    0 Core.Transition.all_kinds

(* Search.run end-to-end against an enabled global sink, on one domain
   and on two; the emitted counters must agree with the report and with
   each other. *)
let check_search_counters jobs =
  let check_int msg = check_int (Printf.sprintf "%s (--jobs %d)" msg jobs) in
  let report, reg =
    match fig3_search ~jobs () with
    | Ok report, reg -> (report, reg)
    | Error e, _ -> raise e
  in
  let counter = counter_in reg in
  check_int "search.runs" 1 (counter "search.runs");
  check_int "obs created mirrors the report" report.Core.Search.created
    (counter "search.created");
  check_int "obs duplicates mirrors the report" report.Core.Search.duplicates
    (counter "search.duplicates");
  check_int "obs discarded mirrors the report" report.Core.Search.discarded
    (counter "search.discarded");
  check_int "obs explored mirrors the report" report.Core.Search.explored
    (counter "search.explored");
  (* every created state is a successor some transition produced, and
     every successor is created *)
  check_int "transitions applied = states created" report.Core.Search.created
    (transitions_applied reg);
  check_bool "some states were created" true (report.Core.Search.created > 0);
  (* per-stratum created counts partition the global count *)
  check_int "stratum created partitions created" report.Core.Search.created
    (stratum_created reg);
  (* duplicate-free creations are exactly the distinct non-S0 states *)
  check_int "created minus duplicates = distinct states"
    (report.Core.Search.explored - 1)
    (report.Core.Search.created - report.Core.Search.duplicates);
  (* every costed arrival (a successor that was built, not pruned) went
     through exactly one of the two costing paths: the timed full
     recompute or the delta application.  The one other full recompute
     is S0's, before the search starts (AVF is off, so S0 is not
     collapsed and costed again). *)
  (match Obs.find_histogram reg "cost.state.eval" with
  | Some h ->
    check_int "arrivals are timed or delta-applied"
      (report.Core.Search.created - report.Core.Search.discarded + 1)
      (Obs.histogram_count h + counter "cost.delta.incremental");
    check_int "every full recompute after S0 is a delta fallback"
      (counter "cost.delta.full" + 1) (Obs.histogram_count h)
  | None -> Alcotest.fail "cost.state.eval histogram missing");
  check_bool "incremental path was taken" true
    (counter "cost.delta.incremental" > 0);
  (* the statistics read the store's triples by one scan *)
  check_bool "store scanned by the statistics" true
    (counter "store.scanned_triples" >= Rdf.Store.size fig3_store);
  (* expansion timing covers every explored state *)
  (match Obs.find_histogram reg "search.expand.ns" with
  | Some h ->
    check_int "one histogram sample per explored state"
      report.Core.Search.explored (Obs.histogram_count h)
  | None -> Alcotest.fail "search.expand.ns histogram missing");
  (* end-of-run gauges record the cost trajectory endpoints *)
  (match (Obs.find_gauge reg "search.initial_cost",
          Obs.find_gauge reg "search.best_cost") with
  | Some initial, Some best ->
    check_bool "best cost <= initial cost" true (best <= initial);
    check_bool "best cost mirrors the report" true
      (Float.abs (best -. report.Core.Search.best_cost) < 1e-9)
  | _ -> Alcotest.fail "search cost gauges missing")

let test_search_emits_consistent_counters () =
  List.iter check_search_counters [ 1; 2 ]

(* A run whose accept hook raises at the k-th accepted state still
   publishes what its engines and their estimators counted before the
   raise, on one domain and on two.  S0 and the three states of its expansion are the first
   four accepted, so the raise comes after the second domain starts. *)
let test_raise_publishes_partial_counts () =
  List.iter
    (fun jobs ->
      let accepted = Atomic.make 0 in
      let hook _ =
        if Atomic.fetch_and_add accepted 1 + 1 >= 6 then failwith "injected"
      in
      match fig3_search ~on_accept:hook ~jobs () with
      | Ok _, _ -> Alcotest.failf "--jobs %d: the injected raise was lost" jobs
      | Error e, reg ->
        check_bool "the hook's own exception" true (e = Failure "injected");
        let counter = counter_in reg in
        let label what = Printf.sprintf "%s (--jobs %d)" what jobs in
        check_bool (label "created published") true
          (counter "search.created" > 0);
        check_bool (label "explored published") true
          (counter "search.explored" > 0);
        (match Obs.find_histogram reg "search.expand.ns" with
        | Some h ->
          check_int (label "one expansion sample per explored state")
            (counter "search.explored") (Obs.histogram_count h)
        | None -> Alcotest.fail "search.expand.ns histogram missing");
        check_int (label "stratum created partitions created")
          (counter "search.created") (stratum_created reg);
        check_int (label "transitions applied = states created")
          (counter "search.created") (transitions_applied reg);
        check_bool (label "incremental costing published") true
          (counter "cost.delta.incremental" > 0);
        (* the hook ran on S0 and on every state a domain created new,
           the raising calls included: each domain's books were merged *)
        check_int (label "every accepted state published")
          (Atomic.get accepted)
          (1 + counter "search.created" - counter "search.duplicates"
          - counter "search.discarded"))
    [ 1; 2 ]

let test_disabled_sink_changes_nothing () =
  Obs.set_global Obs.disabled;
  let query =
    cq ~name:"q" [ v "X" ] [ atom (v "X") (c "p") (c "o") ]
  in
  let store = store_of [ triple (uri "s") (uri "p") (uri "o") ] in
  let report =
    Core.Search.run (Stats.Statistics.create store)
      Core.Search.default_options [ query ]
  in
  check_bool "search still runs" true (report.Core.Search.explored >= 1)

(* ---------- exact store and plan counts --------------------------------- *)

(* The executor adds its scanned rows once per execution, and a segment
   read adds its block counts once per operation: the totals must stay
   what per-scan and per-block counting gave.  Each fixture runs one
   evaluation, one materialization and one UCQ evaluation on a fresh
   store of each backend (flushed into segments on the compact one),
   with strict mode off: it would add Reference's work. *)
let pinned_counters =
  [
    "store.scanned_triples";
    "store.count_probes";
    "store.block_decodes";
    "store.block_cache_hits";
    "store.block_skips";
    "eval.bindings";
    "eval.frame.extensions";
  ]

let fig3_ops () =
  let view = cq ~name:"v" [ v "X"; v "Y" ] [ atom (v "X") (v "Y") (c "ex:c1") ] in
  let swapped =
    cq ~name:"q2" [ v "Y"; v "Z" ]
      [ atom (v "X") (v "Y") (c "ex:c2"); atom (v "X") (v "Z") (c "ex:c1") ]
  in
  let triples = Rdf.Store.to_triples fig3_store in
  (triples, fig3_query, view, Query.Ucq.make ~name:"u" [ fig3_query; swapped ])

(* A Barton store of several blocks: a typed star to evaluate, a
   two-property star to materialize, and a class-and-property star
   whose reformulation under the Barton schema has 104 disjuncts in 3
   shapes. *)
let barton_ops () =
  let store = Workload.Barton.store ~n_entities:300 ~seed:7 () in
  let props = Array.of_list (Workload.Barton.properties ()) in
  let p i = Query.Qterm.Cst props.(i) in
  let ty = Query.Qterm.Cst rdf_type in
  let class4 = Query.Qterm.Cst (List.nth (Workload.Barton.classes ()) 4) in
  let typed =
    cq ~name:"typed" [ v "X"; v "C" ] [ atom (v "X") ty (v "C"); atom (v "X") (p 46) (v "Y") ]
  in
  let star =
    cq ~name:"star" [ v "X"; v "A"; v "B" ]
      [ atom (v "X") (p 51) (v "A"); atom (v "X") (p 52) (v "B") ]
  in
  let classed =
    cq ~name:"classed" [ v "X"; v "Y" ] [ atom (v "X") ty class4; atom (v "X") (p 1) (v "Y") ]
  in
  ( Rdf.Store.to_triples store,
    typed,
    star,
    Query.Reformulation.reformulate classed (Workload.Barton.schema ()) )

(* [f] run with strict mode off and a fresh registry installed *)
let counted f =
  let reg = Obs.create () in
  let strict = Sys.getenv_opt "RDFVIEWS_STRICT" in
  Unix.putenv "RDFVIEWS_STRICT" "0";
  Obs.set_global reg;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_global Obs.disabled;
      Unix.putenv "RDFVIEWS_STRICT" (Option.value ~default:"" strict))
    f;
  reg

let counts_of_ops kind (triples, q, view, u) =
  let store = store_on kind triples in
  let reg =
    counted (fun () ->
        ignore (Query.Evaluation.eval_cq_codes store q : int array list);
        ignore (Engine.Materialize.materialize_cq store view : Engine.Relation.t);
        ignore (Query.Evaluation.eval_ucq_codes store u : int array list))
  in
  List.map (fun name -> (name, Obs.find_counter reg name)) pinned_counters

(* Pinned from the build that counted per scan and per block read.
   [None]: never registered (a hash store reads no segment block); a
   zone-map search registers its skips even when it skipped nothing.
   A single-column count on compact reads its live-code counts, so
   only pair counts and scans read blocks. *)
let expected_counts =
  let shared scanned probes bindings extensions =
    [
      ("store.scanned_triples", Some scanned);
      ("store.count_probes", Some probes);
      ("eval.bindings", Some bindings);
      ("eval.frame.extensions", Some extensions);
    ]
  in
  let blocks decodes hits skips =
    [
      ("store.block_decodes", decodes);
      ("store.block_cache_hits", hits);
      ("store.block_skips", skips);
    ]
  in
  [
    ( ("fig3", Rdf.Backend.Hash),
      shared 14 7 8 14 @ blocks None None None );
    ( ("fig3", Rdf.Backend.Compact),
      shared 14 7 8 14 @ blocks (Some 1) (Some 29) (Some 0) );
    ( ("barton", Rdf.Backend.Hash),
      shared 836 64 294 836 @ blocks None None None );
    ( ("barton", Rdf.Backend.Compact),
      shared 836 64 294 836 @ blocks (Some 26) (Some 24466) (Some 35032) );
  ]

let test_exact_counts () =
  let show = function None -> "absent" | Some n -> string_of_int n in
  List.iter
    (fun (fixture, ops) ->
      let ops = ops () in
      let counts kind =
        let got = counts_of_ops kind ops in
        List.iter
          (fun (name, want) ->
            Alcotest.(check string)
              (Printf.sprintf "%s %s %s" fixture (Rdf.Backend.kind_name kind) name)
              (show want)
              (show (List.assoc name got)))
          (List.assoc (fixture, kind) expected_counts);
        got
      in
      let hash = counts Rdf.Backend.Hash and compact = counts Rdf.Backend.Compact in
      List.iter
        (fun name ->
          check_int
            (Printf.sprintf "%s: %s equal on both backends" fixture name)
            (Option.get (List.assoc name hash))
            (Option.get (List.assoc name compact)))
        [ "store.scanned_triples"; "store.count_probes"; "eval.bindings" ])
    [ ("fig3", fig3_ops); ("barton", barton_ops) ];
  (* an execution whose one scan reads no row still adds its sum, 0; an
     impossible plan scans nothing and adds nothing *)
  let scanned_by q =
    let store = store_of (Rdf.Store.to_triples fig3_store) in
    let reg =
      counted (fun () -> ignore (Query.Evaluation.eval_cq_codes store q : int array list))
    in
    show (Obs.find_counter reg "store.scanned_triples")
  in
  Alcotest.(check string) "an empty scan is counted" "0"
    (scanned_by (cq [ v "X" ] [ atom (v "X") (c "p2") (c "ex:c1") ]));
  Alcotest.(check string) "an impossible plan is not" "absent"
    (scanned_by (cq [ v "X" ] [ atom (v "X") (c "p9") (c "ex:c1") ]))

(* Store reads count no rows and no probes: only a caller that reports
   store work adds to [store.scanned_triples], as one evaluation does
   over the same store.  The compact backend still counts the segment
   blocks a read touches. *)
let test_store_reads_count_nothing () =
  List.iter
    (fun kind ->
      let name = Rdf.Backend.kind_name kind in
      let store = store_on kind (Rdf.Store.to_triples fig3_store) in
      let code term = Option.get (Rdf.Store.find_term store term) in
      let c1 = code (uri "ex:c1") and s1 = code (uri "s1") in
      let reg =
        counted (fun () ->
            ignore (Rdf.Store.scan_all store : int array * int);
            ignore (Rdf.Store.scan1 store `O c1 : int array * int);
            ignore (Rdf.Store.scan2 store `SO s1 c1 : int array * int);
            ignore
              (Rdf.Store.count_matching store
                 { Rdf.Store.ps = Some s1; pp = None; po = Some c1 }
                : int);
            ignore
              (Rdf.Store.fold_matching store
                 { Rdf.Store.ps = None; pp = None; po = Some c1 }
                 (fun _ n -> n + 1) 0
                : int))
      in
      let not_block (counter, _) =
        not (String.starts_with ~prefix:"store.block_" counter)
      in
      Alcotest.(check (list string))
        (name ^ ": reads register no row or probe count")
        []
        (List.map fst (List.filter not_block (Obs.counters reg)));
      let reg =
        counted (fun () ->
            ignore (Query.Evaluation.eval_cq_codes store fig3_query : int array list))
      in
      check_bool (name ^ ": an evaluation adds its scanned rows") true
        (Option.value ~default:0 (Obs.find_counter reg "store.scanned_triples") > 0))
    [ Rdf.Backend.Hash; Rdf.Backend.Compact ]

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "semantics" `Quick test_counter_semantics;
          Alcotest.test_case "disabled" `Quick test_disabled_counter;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "time" `Quick test_histogram_time;
        ] );
      ("gauges", [ Alcotest.test_case "semantics" `Quick test_gauge_semantics ]);
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "reset inside span" `Quick test_reset_inside_span;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "registry serialization" `Quick
            test_registry_serialization;
        ] );
      ( "global sink",
        [
          Alcotest.test_case "counts follow the global sink" `Quick
            test_counts_follow_global;
        ] );
      ( "integration",
        [
          Alcotest.test_case "search counters consistent" `Quick
            test_search_emits_consistent_counters;
          Alcotest.test_case "disabled sink is inert" `Quick
            test_disabled_sink_changes_nothing;
          Alcotest.test_case "raise publishes partial counts" `Quick
            test_raise_publishes_partial_counts;
          Alcotest.test_case "exact store and plan counts" `Quick
            test_exact_counts;
          Alcotest.test_case "store reads count nothing" `Quick
            test_store_reads_count_nothing;
        ] );
    ]
