(* The search record: a --metrics registry dump read back by
   Obs.Report — consistency of a real search (sequential and parallel)
   against its own report, strict mode, a search that raises under the
   metrics writer, and the allocation-free disabled registry handles. *)

open Support

let with_tmp_dump name f =
  let path = Filename.temp_file ("rdfviews_" ^ name) ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_dump path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Obs.Json.of_string (really_input_string ic (in_channel_length ic)))

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ---------- the disabled path must not allocate --------------------------- *)

(* Handles looked up on the disabled sink, as a search engine with a
   disabled registry looks up its timings, and a counter looked up by
   name on the disabled ambient sink, as an instrumented operation adds
   its counts when it returns: every operation a hot path performs on
   them is one branch, no allocation. *)
let test_disabled_handles_do_not_allocate () =
  Obs.set_global Obs.disabled;
  let counter () = Obs.counter (Obs.global ()) "noalloc.counter" in
  let histogram () = Obs.histogram Obs.disabled "noalloc.histogram" in
  let gauge () = Obs.gauge Obs.disabled "noalloc.gauge" in
  let work () = () in
  let round i =
    Obs.incr (counter ());
    Obs.add (counter ()) i;
    Obs.observe (histogram ()) i;
    Obs.set_gauge (gauge ()) 1.5;
    Obs.time (histogram ()) work
  in
  (* warm up so any one-time allocation is out of the measured window *)
  round 0;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    round i
  done;
  let allocated = Gc.minor_words () -. before in
  (* allow a few words of test-loop noise; 50k handle operations that
     each allocated even one word would show up as >= 50_000 *)
  check_bool
    (Printf.sprintf "disabled handles allocate nothing (saw %.0f words)"
       allocated)
    true (allocated < 256.)

(* ---------- a real search --------------------------------------------------- *)

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

(* Runs [f] with a fresh registry installed and returns its result and
   the registry's dump, serialized and parsed back. *)
let with_registry f =
  let reg = Obs.create () in
  Obs.set_global reg;
  let result = Fun.protect ~finally:(fun () -> Obs.set_global Obs.disabled) f in
  (result, Obs.Json.of_string (Obs.to_string reg))

let close a b = Float.abs (a -. b) < 1e-9

(* The dump's summary mirrors the search report: totals, costs, outcome;
   the per-stratum outcomes partition the totals; the trajectory ends at
   the best cost; the rendering has every section. *)
let check_dump_consistent (report : Core.Search.report) dump =
  let s = Obs.Report.of_metrics dump in
  check_int "created mirrors report" report.created s.Obs.Report.created;
  check_int "explored mirrors report" report.explored s.Obs.Report.explored;
  check_int "duplicates mirrors report" report.duplicates s.Obs.Report.duplicates;
  check_int "discarded mirrors report" report.discarded s.Obs.Report.discarded;
  check_bool "completed mirrors report" true
    (s.Obs.Report.completed = Some report.completed);
  check_bool "strategy recorded" true (s.Obs.Report.strategy = Some "DFS");
  (match (s.Obs.Report.initial_cost, s.Obs.Report.final_cost) with
  | Some i, Some f ->
    check_bool "initial cost mirrors report" true (close i report.initial_cost);
    check_bool "final cost mirrors report" true (close f report.best_cost)
  | _ -> Alcotest.fail "summary has no costs");
  let sum field = List.fold_left (fun acc k -> acc + field k) 0 s.Obs.Report.kinds in
  check_int "strata partition created" s.Obs.Report.created
    (sum (fun k -> k.Obs.Report.created_k));
  check_int "strata partition accepted" s.Obs.Report.accepted
    (sum (fun k -> k.Obs.Report.accepted_k));
  check_int "strata partition duplicates" s.Obs.Report.duplicates
    (sum (fun k -> k.Obs.Report.duplicates_k));
  check_int "strata partition discarded" s.Obs.Report.discarded
    (sum (fun k -> k.Obs.Report.discarded_k));
  check_int "strata partition reopened" s.Obs.Report.reopened
    (sum (fun k -> k.Obs.Report.reopened_k));
  (* convergence strictly improves and ends at the best cost *)
  let costs = List.map snd s.Obs.Report.convergence in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  check_bool "convergence strictly improves" true (strictly_decreasing costs);
  (match List.rev costs with
  | last :: _ ->
    check_bool "trajectory ends at the best cost" true (close last report.best_cost)
  | [] -> Alcotest.fail "no trajectory in the dump");
  check_bool "time to within 0%% exists" true
    (Obs.Report.time_to_within s 0. <> None);
  let text = Obs.Report.render dump in
  List.iter
    (fun needle -> check_bool ("render mentions " ^ needle) true (contains text needle))
    [
      "convergence"; "time to within"; "acceptance"; "stratum"; "states"; "outcome";
      (* read from the search.run histogram *)
      "wall time";
    ]

let run_museum ?(options = Core.Search.default_options) () =
  Core.Search.run (Stats.Statistics.create (museum_store ())) options
    (museum_queries ())

let test_dump_consistent () =
  let report, dump = with_registry run_museum in
  check_dump_consistent report dump

(* Under --jobs 2 every domain counts into its own registry, merged after
   the join: the dump covers the states the workers admitted too. *)
let test_parallel_dump_consistent () =
  let report, dump =
    with_registry (fun () ->
        Core.Search.run ~jobs:2
          (Stats.Statistics.create (museum_store ()))
          Core.Search.default_options (museum_queries ()))
  in
  check_dump_consistent report dump

(* The record also holds under the strict invariant checker, which
   re-validates every accepted state. *)
let test_dump_strict () =
  Unix.putenv "RDFVIEWS_STRICT" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "RDFVIEWS_STRICT" "")
    (fun () ->
      let report, dump = with_registry run_museum in
      check_int "strict-mode created total" report.Core.Search.created
        (Obs.Report.of_metrics dump).Obs.Report.created)

(* A search aborted mid-run (the accept hook raises) under the metrics
   writer still leaves a dump the report reads: the counters so far,
   and no outcome, since the run never ended. *)
let test_raise_mid_search_leaves_dump () =
  with_tmp_dump "crash" @@ fun path ->
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
  let reg = Obs.create () in
  (match
     Obs.Export.with_dump ~path reg (fun () ->
         Obs.set_global reg;
         Fun.protect
           ~finally:(fun () -> Obs.set_global Obs.disabled)
           (run_museum ~options))
   with
  | _ -> Alcotest.fail "injected crash did not propagate"
  | exception Failure _ -> ());
  let dump = read_dump path in
  let s = Obs.Report.of_metrics dump in
  check_bool "states counted before the crash" true (s.Obs.Report.created >= 2);
  check_bool "crashed run has no outcome" true (s.Obs.Report.completed = None);
  check_bool "crashed run renders" true
    (contains (Obs.Report.render dump) "stratum population")

(* ---------- Obs.Report unit behavior -------------------------------------- *)

let test_report_of_metrics () =
  let report, dump = with_registry run_museum in
  let summary = Obs.Report.of_metrics dump in
  check_int "metrics created" report.Core.Search.created
    summary.Obs.Report.created;
  check_int "metrics explored" report.Core.Search.explored
    summary.Obs.Report.explored;
  check_int "metrics duplicates" report.Core.Search.duplicates
    summary.Obs.Report.duplicates;
  check_bool "trajectory read back" true
    (summary.Obs.Report.convergence = report.Core.Search.trajectory);
  (match summary.Obs.Report.final_cost with
  | Some cost ->
    check_bool "metrics final cost from gauge" true
      (close cost report.Core.Search.best_cost)
  | None -> Alcotest.fail "metrics summary has no final cost");
  check_bool "metrics kind rows discovered" true
    (summary.Obs.Report.kinds <> [])

(* A JSON object is a dump only in [to_json]'s shape; anything else is
   refused by member name, never read as an all-zero run. *)
let test_report_rejects_bad_dump () =
  let rejects text message =
    Alcotest.check_raises text (Obs.Report.Bad_dump message) (fun () ->
        ignore (Obs.Report.of_metrics (Obs.Json.of_string text)))
  in
  rejects {|{"schema_version":4,"counters":[1,2]}|} "counters: expected an object";
  rejects {|{"schema_version":4}|} "missing member counters";
  rejects {|{"schema_version":2,"counters":{}}|} "schema_version: expected 4";
  (* a complete v3 dump, which still carried a "timers" member *)
  rejects
    {|{"schema_version":3,"counters":{},"timers":{},"histograms":{},"gauges":{},"series":{},"spans":[]}|}
    "schema_version: expected 4";
  rejects
    {|{"schema_version":4,"counters":{},"histograms":{},"gauges":{},"spans":[]}|}
    "missing member series";
  let empty = Obs.Report.of_metrics (Obs.to_json (Obs.create ())) in
  check_int "empty registry accepted" 0 empty.Obs.Report.created

let test_report_time_to_within () =
  let summary =
    {
      (Obs.Report.of_metrics (Obs.to_json (Obs.create ()))) with
      Obs.Report.final_cost = Some 100.;
      convergence = [ (0.5, 200.); (1.5, 120.); (2.5, 100.) ];
    }
  in
  check_bool "within 50%% reached at the 120-cost point" true
    (Obs.Report.time_to_within summary 50. = Some 1.5);
  check_bool "within 0%% is the final point" true
    (Obs.Report.time_to_within summary 0. = Some 2.5);
  check_bool "rcr needs an initial cost" true (Obs.Report.rcr summary = None)

(* ---------- the dump boundary under fuzzing -------------------------------- *)

(* A real v4 dump: a museum search's registry, serialized. *)
let real_dump = lazy (Obs.Json.to_string ~indent:true (snd (with_registry run_museum)))

(* Reading a dump fails only in the two named ways: a malformed
   document is a [Parse_error] with a location, a well-formed one that
   is not a dump is [Bad_dump]. *)
let renders_or_refuses json =
  match (Obs.Report.of_metrics json, Obs.Report.render json) with
  | _ -> true
  | exception Obs.Report.Bad_dump _ -> true

(* Arbitrary strings, strings over the JSON punctuation, and byte
   substitutions and truncations of a real dump. *)
let gen_dump_text =
  let open QCheck.Gen in
  let json_char =
    oneofl (List.of_seq (String.to_seq "{}[]\":,.-+eE0123456789 \n\\utrfalsenul"))
  in
  let mutated st =
    let dump = Lazy.force real_dump in
    let n = String.length dump in
    oneof
      [
        map (fun k -> String.sub dump 0 k) (int_bound n);
        map
          (fun edits ->
            let b = Bytes.of_string dump in
            List.iter (fun (i, c) -> Bytes.set b i c) edits;
            Bytes.to_string b)
          (list_size (int_range 1 8) (pair (int_bound (n - 1)) char));
      ]
      st
  in
  oneof [ string; string_of json_char; mutated ]

let prop_json_errors_located =
  QCheck.Test.make ~name:"dump text parses or fails with a located Parse_error"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_dump_text)
    (fun text ->
      match Obs.Json.of_string text with
      | json -> renders_or_refuses json
      | exception Obs.Json.Parse_error msg -> contains msg "at offset")

(* v4-shaped documents whose members hold random JSON, keyed by the
   names the report reads and by random ones. *)
let gen_v4_shaped =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) (oneof [ small_signed_int; int ]);
        map (fun f -> Obs.Json.Float f) float;
        map (fun s -> Obs.Json.String s) (string_size (int_bound 6));
      ]
  in
  let value =
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map (fun l -> Obs.Json.List l) (list_size (int_bound 3) (self (n - 1))) );
                 ( 1,
                   map
                     (fun l -> Obs.Json.Obj l)
                     (list_size (int_bound 3)
                        (pair (oneofl [ "count"; "total"; "p50"; "x" ]) (self (n - 1)))) );
               ])
  in
  let name =
    oneof
      [
        oneofl
          [
            "search.created"; "search.duplicates"; "search.discarded"; "search.explored";
            "search.reopened"; "search.strategy.DFS"; "search.run"; "search.trajectory";
            "search.best_cost"; "search.initial_cost"; "search.completed";
            "transition.VB.applied"; "transition.VB.time"; "search.stratum.VB.created";
            "cost.delta.incremental"; "cost.delta.full"; "gc.minor_collections";
            "gc.major_collections"; "gc.minor_words"; "gc.top_heap_words";
            "parallel.domain.0.work_ns"; "parallel.domain.x.work_ns";
          ];
        string_size (int_bound 8);
      ]
  in
  let member =
    oneof [ map (fun l -> Obs.Json.Obj l) (list_size (int_bound 6) (pair name value)); value ]
  in
  let* version = frequency [ (9, return (Obs.Json.Int 4)); (1, value) ] in
  let* members =
    flatten_l
      (List.map
         (fun key -> map (fun v -> (key, v)) member)
         [ "counters"; "histograms"; "gauges"; "series" ])
  in
  let* spans =
    frequency [ (4, map (fun l -> Obs.Json.List l) (list_size (int_bound 3) value)); (1, value) ]
  in
  return (Obs.Json.Obj ((("schema_version", version) :: members) @ [ ("spans", spans) ]))

let prop_report_total =
  QCheck.Test.make ~name:"report renders or refuses any v4-shaped dump" ~count:2000
    (QCheck.make ~print:(fun j -> Obs.Json.to_string j) gen_v4_shaped)
    renders_or_refuses

let () =
  Alcotest.run "trace"
    [
      ( "disabled path",
        [
          Alcotest.test_case "no allocation" `Quick
            test_disabled_handles_do_not_allocate;
        ] );
      ( "search integration",
        [
          Alcotest.test_case "metrics consistent with report" `Quick
            test_dump_consistent;
          Alcotest.test_case "strict mode" `Quick test_dump_strict;
          Alcotest.test_case "raise mid-search" `Quick
            test_raise_mid_search_leaves_dump;
          Alcotest.test_case "parallel run" `Quick test_parallel_dump_consistent;
        ] );
      ( "report",
        [
          Alcotest.test_case "of_metrics" `Quick test_report_of_metrics;
          Alcotest.test_case "malformed dump" `Quick test_report_rejects_bad_dump;
          Alcotest.test_case "time_to_within" `Quick test_report_time_to_within;
          to_alcotest prop_json_errors_located;
          to_alcotest prop_report_total;
        ] );
    ]
