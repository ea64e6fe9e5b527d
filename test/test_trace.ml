(* The streaming search-trace layer (Obs.Trace) and its offline
   analyzer (Obs.Report): writer/reader round-trip, crash tolerance,
   consistency of a real traced search against its own report, strict
   mode, and the allocation-free disabled path. *)

open Support

let tmp_trace name =
  Filename.temp_file ("rdfviews_" ^ name) ".trace.jsonl"

let with_tmp_trace name f =
  let path = tmp_trace name in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---------- writer / reader round-trip ----------------------------------- *)

let test_roundtrip () =
  with_tmp_trace "roundtrip" @@ fun path ->
  let trace = Obs.Trace.create path in
  check_bool "open trace is enabled" true (Obs.Trace.is_enabled trace);
  Obs.Trace.run_start trace ~strategy:"DFS"
    ~strata:[| "VB"; "SC"; "JC"; "VF" |]
    ~initial_cost:100.5;
  Obs.Trace.state trace ~cls:Obs.Trace.Accepted ~id:0 ~stratum:0 ~cost:100.5;
  Obs.Trace.state trace ~cls:Obs.Trace.Accepted ~id:1 ~stratum:2 ~cost:90.25;
  Obs.Trace.state trace ~cls:Obs.Trace.Duplicate ~id:2 ~stratum:1
    ~cost:Float.nan;
  Obs.Trace.state trace ~cls:Obs.Trace.Discarded ~id:3 ~stratum:3
    ~cost:Float.nan;
  Obs.Trace.state trace ~cls:Obs.Trace.Reopened ~id:4 ~stratum:2
    ~cost:Float.nan;
  Obs.Trace.transition trace ~kind:"SC" ~applied:3 ~rejected:1 ~elapsed_ns:250;
  Obs.Trace.cost_memo trace ~hits:10 ~misses:5;
  Obs.Trace.heartbeat trace ~created:4 ~explored:2 ~best_cost:90.25
    ~elapsed_ns:1_000;
  Obs.Trace.run_end trace ~best_cost:90.25 ~created:4 ~explored:2 ~duplicates:1
    ~discarded:1 ~completed:true;
  check_int "event count tracks emissions" 11 (Obs.Trace.event_count trace);
  Obs.Trace.close trace;
  Obs.Trace.close trace (* idempotent *);
  (* an emitter on a closed trace is a no-op, not an error *)
  Obs.Trace.cost_memo trace ~hits:11 ~misses:5;
  let events = Obs.Trace.read_file path in
  check_int "all events read back" 11 (List.length events);
  (match events with
  | Obs.Trace.Meta { version } :: _ ->
    check_int "meta carries the schema version" Obs.Trace.schema_version version
  | _ -> Alcotest.fail "first event is not meta");
  (match List.nth events 1 with
  | Obs.Trace.Run_start { strategy; strata; initial_cost; _ } ->
    check_string "strategy survives" "DFS" strategy;
    check_int "strata arity survives" 4 (Array.length strata);
    check_string "stratum label survives" "JC" strata.(2);
    check_bool "initial cost survives" true (initial_cost = 100.5)
  | _ -> Alcotest.fail "second event is not run_start");
  (match List.nth events 3 with
  | Obs.Trace.State { cls; id; stratum; cost; _ } ->
    check_bool "class survives" true (cls = Obs.Trace.Accepted);
    check_int "id survives" 1 id;
    check_int "stratum survives" 2 stratum;
    check_bool "cost survives" true (cost = Some 90.25)
  | _ -> Alcotest.fail "fourth event is not the accepted state");
  (match List.nth events 4 with
  | Obs.Trace.State { cost; _ } ->
    check_bool "nan cost reads back as None" true (cost = None)
  | _ -> Alcotest.fail "fifth event is not the duplicate state");
  (match List.nth events 7 with
  | Obs.Trace.Transition { kind; applied; rejected; elapsed_ns; _ } ->
    check_string "kind survives" "SC" kind;
    check_int "applied survives" 3 applied;
    check_int "rejected survives" 1 rejected;
    check_int "elapsed survives" 250 elapsed_ns
  | _ -> Alcotest.fail "seventh event is not the transition");
  match List.rev events with
  | Obs.Trace.Run_end { best_cost; created; completed; _ } :: _ ->
    check_bool "best cost survives" true (best_cost = 90.25);
    check_int "created survives" 4 created;
    check_bool "completed survives" true completed
  | _ -> Alcotest.fail "last event is not run_end"

let test_state_class_names () =
  List.iter
    (fun cls ->
      match Obs.Trace.(class_of_name (class_name cls)) with
      | Some back -> check_bool "class name round-trips" true (back = cls)
      | None -> Alcotest.fail "class name does not round-trip")
    [
      Obs.Trace.Accepted;
      Obs.Trace.Discarded;
      Obs.Trace.Duplicate;
      Obs.Trace.Reopened;
    ];
  check_bool "unknown class name rejected" true
    (Obs.Trace.class_of_name "exploded" = None)

(* ---------- crash tolerance and malformed input --------------------------- *)

let test_truncated_last_line () =
  with_tmp_trace "truncated" @@ fun path ->
  let trace = Obs.Trace.create path in
  Obs.Trace.run_start trace ~strategy:"DFS" ~strata:[| "SC" |]
    ~initial_cost:10.;
  Obs.Trace.close trace;
  (* simulate a crash cutting the final write mid-line *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"e\":\"state\",\"t\":12,\"k\":\"acc";
  close_out oc;
  let events = Obs.Trace.read_file path in
  check_int "intact prefix still parses" 2 (List.length events)

let test_malformed_middle_line_raises () =
  let text =
    String.concat "\n"
      [
        "{\"e\":\"meta\",\"v\":1}";
        "{\"e\":\"state\",\"t\":12,\"k\":\"acc";
        "{\"e\":\"cost_memo\",\"t\":20,\"hits\":1,\"misses\":2}";
        "";
      ]
  in
  match Obs.Trace.parse_lines text with
  | exception Obs.Trace.Malformed _ -> ()
  | _ -> Alcotest.fail "malformed middle line was accepted"

(* Input that is not a trace at all — empty, or JSON without the meta
   header every trace starts with — is rejected, not read as an empty
   run. *)
let test_missing_header_raises () =
  List.iter
    (fun (label, text) ->
      match Obs.Trace.parse_lines text with
      | exception Obs.Trace.Malformed message ->
        check_bool (label ^ ": error names line 1") true
          (String.length message >= 6 && String.sub message 0 6 = "line 1")
      | _ -> Alcotest.failf "%s accepted as a trace" label)
    [ ("empty input", ""); ("non-trace JSON", "{\"a\":1}\n") ]

let test_unknown_event_kind_skipped () =
  let text =
    String.concat "\n"
      [
        "{\"e\":\"meta\",\"v\":1}";
        "{\"e\":\"wormhole\",\"t\":5,\"payload\":[1,2,3]}";
        "{\"e\":\"cost_memo\",\"t\":20,\"hits\":1,\"misses\":2}";
        "";
      ]
  in
  let events = Obs.Trace.parse_lines text in
  check_int "unknown kind skipped, rest kept" 2 (List.length events)

(* ---------- the disabled path must not allocate --------------------------- *)

let test_disabled_emitters_do_not_allocate () =
  let trace = Obs.Trace.disabled in
  check_bool "disabled trace is off" false (Obs.Trace.is_enabled trace);
  (* warm up so any one-time allocation is out of the measured window *)
  Obs.Trace.state trace ~cls:Obs.Trace.Accepted ~id:1 ~stratum:1 ~cost:1.;
  Obs.Trace.transition trace ~kind:"SC" ~applied:1 ~rejected:0 ~elapsed_ns:1;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Obs.Trace.state trace ~cls:Obs.Trace.Accepted ~id:i ~stratum:1 ~cost:1.5;
    Obs.Trace.transition trace ~kind:"SC" ~applied:1 ~rejected:0 ~elapsed_ns:i;
    Obs.Trace.cost_memo trace ~hits:i ~misses:i;
    Obs.Trace.heartbeat trace ~created:i ~explored:i ~best_cost:1.5
      ~elapsed_ns:i
  done;
  let allocated = Gc.minor_words () -. before in
  (* allow a few words of test-loop noise; 40k emitter calls that each
     allocated even one word would show up as >= 40_000 *)
  check_bool
    (Printf.sprintf "disabled emitters allocate nothing (saw %.0f words)"
       allocated)
    true (allocated < 256.)

(* ---------- a real traced search ------------------------------------------ *)

let museum_queries () =
  [
    cq ~name:"q1"
      [ v "P"; v "N" ]
      [
        atom (v "P") (c "rdf:type") (c "ex:Painter");
        atom (v "P") (c "ex:name") (v "N");
      ];
    cq ~name:"q2"
      [ v "P"; v "W" ]
      [
        atom (v "P") (c "rdf:type") (c "ex:Painter");
        atom (v "P") (c "ex:painted") (v "W");
      ];
  ]

let museum_store () =
  store_of
    [
      triple (uri "ex:picasso") (uri "rdf:type") (uri "ex:Painter");
      triple (uri "ex:picasso") (uri "ex:name") (lit "Picasso");
      triple (uri "ex:picasso") (uri "ex:painted") (uri "ex:guernica");
      triple (uri "ex:rodin") (uri "rdf:type") (uri "ex:Sculptor");
      triple (uri "ex:rodin") (uri "ex:name") (lit "Rodin");
    ]

let run_traced ?(options = Core.Search.default_options) path queries store =
  let trace = Obs.Trace.create path in
  Obs.Trace.set_global trace;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_global Obs.Trace.disabled;
      Obs.Trace.close trace)
    (fun () -> Core.Search.run (Stats.Statistics.create store) options queries)

let test_traced_search_consistent () =
  with_tmp_trace "search" @@ fun path ->
  let report = run_traced path (museum_queries ()) (museum_store ()) in
  let events = Obs.Trace.read_file path in
  (* the run_end totals must mirror the search report exactly *)
  (match
     List.find_opt
       (function Obs.Trace.Run_end _ -> true | _ -> false)
       events
   with
  | Some
      (Obs.Trace.Run_end
        { best_cost; created; explored; duplicates; discarded; completed; _ })
    ->
    check_int "created mirrors report" report.Core.Search.created created;
    check_int "explored mirrors report" report.Core.Search.explored explored;
    check_int "duplicates mirrors report" report.Core.Search.duplicates
      duplicates;
    check_int "discarded mirrors report" report.Core.Search.discarded discarded;
    check_bool "completed mirrors report" true
      (completed = report.Core.Search.completed);
    check_bool "best cost mirrors report" true
      (Float.abs (best_cost -. report.Core.Search.best_cost) < 1e-9)
  | _ -> Alcotest.fail "trace has no run_end");
  (* per-event records partition the run_end totals *)
  let count cls =
    List.length
      (List.filter
         (function
           | Obs.Trace.State { cls = c; id; _ } -> c = cls && id > 0
           | _ -> false)
         events)
  in
  let accepted = count Obs.Trace.Accepted in
  check_int "state events partition created" report.Core.Search.created
    (accepted + count Obs.Trace.Duplicate + count Obs.Trace.Discarded);
  (* the cheapest accepted cost equals the reported best *)
  let min_accepted =
    List.fold_left
      (fun acc -> function
        | Obs.Trace.State { cls = Obs.Trace.Accepted; cost = Some c; _ } ->
          Float.min acc c
        | _ -> acc)
      Float.infinity events
  in
  check_bool "cheapest accepted state is the best" true
    (Float.abs (min_accepted -. report.Core.Search.best_cost) < 1e-9);
  (* the offline report agrees with the live one *)
  let summary = Obs.Report.of_trace events in
  check_string "summary source" "trace" summary.Obs.Report.source;
  check_int "summary created" report.Core.Search.created
    summary.Obs.Report.created;
  check_int "summary explored" report.Core.Search.explored
    summary.Obs.Report.explored;
  (match summary.Obs.Report.final_cost with
  | Some cost ->
    check_bool "summary final cost" true
      (Float.abs (cost -. report.Core.Search.best_cost) < 1e-9)
  | None -> Alcotest.fail "summary has no final cost");
  (match summary.Obs.Report.initial_cost with
  | Some cost ->
    check_bool "summary initial cost" true
      (Float.abs (cost -. report.Core.Search.initial_cost) < 1e-9)
  | None -> Alcotest.fail "summary has no initial cost");
  (* convergence strictly improves and ends at the final cost *)
  let costs = List.map (fun (_, _, c) -> c) summary.Obs.Report.convergence in
  check_bool "convergence non-empty" true (costs <> []);
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  check_bool "convergence strictly improves" true (strictly_decreasing costs);
  (match List.rev costs with
  | last :: _ ->
    check_bool "convergence ends at the best cost" true
      (Float.abs (last -. report.Core.Search.best_cost) < 1e-9)
  | [] -> ());
  (* time-to-within 0% exists and is the last convergence point *)
  (match Obs.Report.time_to_within summary 0. with
  | Some (_, states) ->
    check_bool "time-to-0%% has a state count" true
      (states <= report.Core.Search.created)
  | None -> Alcotest.fail "no time-to-within point");
  (* rendering mentions every section CI greps for *)
  let text = Obs.Report.render summary in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      check_bool ("render mentions " ^ needle) true (contains text needle))
    [ "convergence"; "acceptance"; "stratum"; "states" ]

(* Tracing must also work under the strict invariant checker, which
   re-validates every accepted state. *)
let test_traced_search_strict () =
  with_tmp_trace "strict" @@ fun path ->
  Unix.putenv "RDFVIEWS_STRICT" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "RDFVIEWS_STRICT" "")
    (fun () ->
      let report = run_traced path (museum_queries ()) (museum_store ()) in
      let summary = Obs.Report.of_trace (Obs.Trace.read_file path) in
      check_int "strict-mode trace created total" report.Core.Search.created
        summary.Obs.Report.created)

(* A search aborted mid-run (the accept hook raises) must still leave a
   readable JSONL prefix once the writer is closed, and the offline
   report must reconstruct totals without a run_end event. *)
let test_raise_mid_search_leaves_valid_prefix () =
  with_tmp_trace "crash" @@ fun path ->
  let accepts = ref 0 in
  let options =
    {
      Core.Search.default_options with
      on_accept =
        Some
          (fun _ ->
            accepts := !accepts + 1;
            if !accepts >= 3 then failwith "injected crash");
    }
  in
  (match
     run_traced ~options path (museum_queries ()) (museum_store ())
   with
  | _ -> Alcotest.fail "injected crash did not propagate"
  | exception Failure _ -> ());
  let events = Obs.Trace.read_file path in
  check_bool "crashed trace still parses" true (List.length events >= 2);
  check_bool "no run_end in a crashed trace" true
    (not
       (List.exists
          (function Obs.Trace.Run_end _ -> true | _ -> false)
          events));
  let summary = Obs.Report.of_trace events in
  check_bool "totals reconstructed from events" true
    (summary.Obs.Report.created >= 2);
  check_bool "crashed run not marked completed" true
    (summary.Obs.Report.completed <> Some true)

(* A parallel run traces its coordinating domain, which expands the
   initial state itself: the trace holds the state events of that first
   expansion, and its run_end totals are the merged report's. *)
let test_parallel_traced_run () =
  with_tmp_trace "parallel" @@ fun path ->
  let trace = Obs.Trace.create path in
  Obs.Trace.set_global trace;
  let report =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_global Obs.Trace.disabled;
        Obs.Trace.close trace)
      (fun () ->
        Core.Parallel_search.run ~jobs:2
          (Stats.Statistics.create (museum_store ()))
          Core.Search.default_options (museum_queries ()))
  in
  let events = Obs.Trace.read_file path in
  let successors =
    List.length
      (List.filter
         (function Obs.Trace.State { id; _ } -> id > 0 | _ -> false)
         events)
  in
  check_bool "state events for the initial state's successors" true
    (successors > 0);
  match
    List.find_opt (function Obs.Trace.Run_end _ -> true | _ -> false) events
  with
  | Some
      (Obs.Trace.Run_end
        { best_cost; created; explored; duplicates; discarded; completed; _ })
    ->
    check_int "created mirrors report" report.Core.Search.created created;
    check_int "explored mirrors report" report.Core.Search.explored explored;
    check_int "duplicates mirrors report" report.Core.Search.duplicates
      duplicates;
    check_int "discarded mirrors report" report.Core.Search.discarded discarded;
    check_bool "completed mirrors report" true
      (completed = report.Core.Search.completed);
    check_bool "best cost mirrors report" true
      (Float.abs (best_cost -. report.Core.Search.best_cost) < 1e-9)
  | _ -> Alcotest.fail "trace has no run_end"

(* ---------- Obs.Report unit behavior -------------------------------------- *)

let test_report_of_metrics () =
  let reg = Obs.create () in
  Obs.set_global reg;
  Fun.protect ~finally:(fun () -> Obs.set_global Obs.disabled) @@ fun () ->
  let report =
    Core.Search.run
      (Stats.Statistics.create (museum_store ()))
      Core.Search.default_options (museum_queries ())
  in
  let summary = Obs.Report.of_metrics (Obs.to_json reg) in
  check_string "metrics summary source" "metrics" summary.Obs.Report.source;
  check_int "metrics created" report.Core.Search.created
    summary.Obs.Report.created;
  check_int "metrics explored" report.Core.Search.explored
    summary.Obs.Report.explored;
  check_int "metrics duplicates" report.Core.Search.duplicates
    summary.Obs.Report.duplicates;
  check_bool "metrics convergence empty" true
    (summary.Obs.Report.convergence = []);
  (match summary.Obs.Report.final_cost with
  | Some cost ->
    check_bool "metrics final cost from gauge" true
      (Float.abs (cost -. report.Core.Search.best_cost) < 1e-9)
  | None -> Alcotest.fail "metrics summary has no final cost");
  check_bool "metrics kind rows discovered" true
    (summary.Obs.Report.kinds <> []);
  (* the renderer must not claim per-class stratum data it cannot have *)
  ignore (Obs.Report.render summary)

(* A JSON object is a dump only in [to_json]'s shape; anything else is
   refused by member name, never read as an all-zero run. *)
let test_report_rejects_bad_dump () =
  let rejects text message =
    Alcotest.check_raises text (Obs.Report.Bad_dump message) (fun () ->
        ignore (Obs.Report.of_metrics (Obs.Json.of_string text)))
  in
  rejects {|{"schema_version":2,"counters":[1,2]}|} "counters: expected an object";
  rejects {|{"schema_version":2}|} "missing member counters";
  rejects {|{"schema_version":1,"counters":{}}|} "schema_version: expected 2";
  let empty = Obs.Report.of_metrics (Obs.to_json (Obs.create ())) in
  check_int "empty registry accepted" 0 empty.Obs.Report.created

let test_report_time_to_within () =
  let summary =
    {
      (Obs.Report.of_trace []) with
      Obs.Report.final_cost = Some 100.;
      convergence = [ (10, 1, 200.); (20, 5, 120.); (30, 9, 100.) ];
    }
  in
  (match Obs.Report.time_to_within summary 50. with
  | Some (at_ns, states) ->
    check_int "within 50%% reached at the 120-cost point" 20 at_ns;
    check_int "with 5 states created" 5 states
  | None -> Alcotest.fail "no 50%% point");
  (match Obs.Report.time_to_within summary 0. with
  | Some (at_ns, _) -> check_int "within 0%% is the final point" 30 at_ns
  | None -> Alcotest.fail "no 0%% point");
  match Obs.Report.rcr summary with
  | Some _ -> ()
  | None -> check_bool "rcr needs an initial cost" true true

let () =
  Alcotest.run "trace"
    [
      ( "writer",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "state class names" `Quick test_state_class_names;
        ] );
      ( "crash tolerance",
        [
          Alcotest.test_case "truncated last line" `Quick
            test_truncated_last_line;
          Alcotest.test_case "malformed middle line" `Quick
            test_malformed_middle_line_raises;
          Alcotest.test_case "unknown kind skipped" `Quick
            test_unknown_event_kind_skipped;
          Alcotest.test_case "missing header" `Quick test_missing_header_raises;
        ] );
      ( "disabled path",
        [
          Alcotest.test_case "no allocation" `Quick
            test_disabled_emitters_do_not_allocate;
        ] );
      ( "search integration",
        [
          Alcotest.test_case "trace consistent with report" `Quick
            test_traced_search_consistent;
          Alcotest.test_case "strict mode" `Quick test_traced_search_strict;
          Alcotest.test_case "raise mid-search" `Quick
            test_raise_mid_search_leaves_valid_prefix;
          Alcotest.test_case "parallel run" `Quick test_parallel_traced_run;
        ] );
      ( "report",
        [
          Alcotest.test_case "of_metrics" `Quick test_report_of_metrics;
          Alcotest.test_case "malformed dump" `Quick test_report_rejects_bad_dump;
          Alcotest.test_case "time_to_within" `Quick test_report_time_to_within;
        ] );
    ]
