(* Telemetry: registry merging under real concurrent domains, the
   --metrics writer and the GC and per-domain sections of the report.
   The test that needs actual domains is gated on [Multicore.available]
   so the suite also passes on an OCaml 4.x build. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub haystack i nn) needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------- merge under real domains -------------------------------------- *)

(* Each domain mutates its own registry (the documented discipline);
   after the join the merged registry must equal the per-domain sum,
   histograms bucket-wise. *)
let test_merge_across_domains () =
  if not Multicore.available then ()
  else begin
    let n_domains = 4 and per_domain = 1000 in
    let handles =
      List.init n_domains (fun d ->
          Multicore.spawn (fun () ->
              let r = Obs.create () in
              let c = Obs.counter r "m.count" in
              let h = Obs.histogram r "m.hist" in
              for i = 1 to per_domain do
                Obs.incr c;
                Obs.observe h ((i mod 7) + d)
              done;
              r))
    in
    let registries = List.map Multicore.join handles in
    let into = Obs.create () in
    List.iter (fun r -> Obs.merge_into ~into r) registries;
    Alcotest.(check (option int))
      "counter sum"
      (Some (n_domains * per_domain))
      (Obs.find_counter into "m.count");
    let merged_h =
      match Obs.find_histogram into "m.hist" with
      | Some h -> h
      | None -> Alcotest.fail "merged histogram missing"
    in
    Alcotest.(check int)
      "histogram count" (n_domains * per_domain)
      (Obs.histogram_count merged_h);
    let expected_sum =
      List.fold_left ( + ) 0
        (List.concat_map
           (fun d -> List.init per_domain (fun i -> ((i + 1) mod 7) + d))
           (List.init n_domains Fun.id))
    in
    Alcotest.(check int)
      "histogram sum" expected_sum
      (Obs.histogram_sum merged_h);
    (* bucket-wise: the merged raw buckets equal the per-domain sums *)
    let buckets_of t =
      let s = Obs.Export.snapshot t in
      (List.assoc "m.hist" s.Obs.Export.snap_histograms).Obs.Export.hsn_buckets
    in
    let merged_buckets = buckets_of into in
    let domain_buckets = List.map buckets_of registries in
    Array.iteri
      (fun i v ->
        let expected =
          List.fold_left (fun acc b -> acc + b.(i)) 0 domain_buckets
        in
        Alcotest.(check int) (Printf.sprintf "bucket %d" i) expected v)
      merged_buckets
  end

(* ---------- the metrics writer (Obs.Export) ------------------------------- *)

let read_dump path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Obs.Json.of_string (really_input_string ic (in_channel_length ic)))

let with_temp_file f =
  let path = Filename.temp_file "rdfviews_metrics" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let created path = (Obs.Report.of_metrics (read_dump path)).Obs.Report.created

(* The dump is written before the run and again after it, each time
   through a tmp file that is renamed over the target. *)
let test_exporter_lifecycle () =
  with_temp_file (fun path ->
      Sys.remove path;
      let t = Obs.create () in
      Obs.add (Obs.counter t "search.created") 7;
      let before =
        Obs.Export.with_dump ~path t (fun () ->
            let before = created path in
            Obs.add (Obs.counter t "search.created") 3;
            before)
      in
      Alcotest.(check int) "first write, before the run" 7 before;
      Alcotest.(check int) "last write, after the run" 10 (created path);
      Alcotest.(check bool)
        "no tmp file left" false
        (Sys.file_exists (path ^ ".tmp")));
  let missing =
    Filename.concat
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "rdfviews-missing-%d" (Unix.getpid ())))
      "m.json"
  in
  let ran = ref false in
  (match Obs.Export.with_dump ~path:missing (Obs.create ()) (fun () -> ran := true) with
  | exception Sys_error _ -> ()
  | () -> Alcotest.fail "a dump into a missing directory did not raise");
  Alcotest.(check bool) "the run never started" false !ran

(* ---------- the report's runtime sections --------------------------------- *)

let render t = Obs.Report.render (Obs.Json.of_string (Obs.to_string t))

let test_render_runtime () =
  let t = Obs.create () in
  Obs.add (Obs.counter t "search.created") 42;
  Obs.set_gauge (Obs.gauge t "search.best_cost") 559.25;
  List.iter
    (fun d ->
      List.iter
        (fun (what, ns) ->
          Obs.add (Obs.counter t (Printf.sprintf "parallel.domain.%d.%s_ns" d what)) ns)
        [ ("work", 4_000_000); ("idle", 1_000_000) ])
    [ 0; 1 ];
  Gc.minor ();
  let dump = Obs.Json.of_string (Obs.Export.dump t) in
  (* the dump's GC gauges *)
  let gauge name =
    match Option.bind (Obs.Json.member "gauges" dump) (Obs.Json.member name) with
    | Some (Obs.Json.Float v) -> v
    | Some (Obs.Json.Int v) -> float_of_int v
    | _ -> Alcotest.failf "gauge %s missing from the dump" name
  in
  Alcotest.(check bool) "minor collections" true (gauge "gc.minor_collections" >= 1.);
  Alcotest.(check bool) "minor words" true (gauge "gc.minor_words" > 0.);
  Alcotest.(check bool) "top heap words" true (gauge "gc.top_heap_words" > 0.);
  List.iter
    (fun name -> Alcotest.(check bool) name true (gauge name >= 0.))
    [ "gc.major_collections"; "gc.compactions"; "gc.promoted_words" ];
  let rendered = Obs.Report.render dump in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains rendered needle))
    [
      "garbage collector (process totals at the last write)\n";
      "minor collections";
      "major collections";
      "compactions";
      "promoted words";
      "top heap words";
      "per-domain utilization";
      "work_ms";
      "idle_ms";
      "busy";
      "80.0%";
      "final best 559.25";
    ];
  Alcotest.(check bool) "no steal column" false (contains rendered "steal");
  (* without GC gauges or per-domain series: no tables *)
  let bare = Obs.create () in
  Obs.add (Obs.counter bare "search.created") 1;
  let rendered = render bare in
  Alcotest.(check bool) "no gc table" false (contains rendered "garbage collector");
  Alcotest.(check bool)
    "no utilization table" false
    (contains rendered "per-domain utilization");
  Alcotest.(check bool)
    "search placeholder" true
    (contains (render (Obs.create ())) "no search in dump")

(* gc.minor_words counts the words of the current minor heap too: after
   a minor collection, allocating a list of [n] cells raises the gauge
   by at least [3 n] words, although no collection runs in between. *)
let test_minor_words_gauge () =
  let t = Obs.create () in
  let gauge () =
    let dump = Obs.Json.of_string (Obs.Export.dump t) in
    match Option.bind (Obs.Json.member "gauges" dump) (Obs.Json.member "gc.minor_words") with
    | Some (Obs.Json.Float v) -> v
    | Some (Obs.Json.Int v) -> float_of_int v
    | _ -> Alcotest.fail "gc.minor_words missing from the dump"
  in
  Gc.minor ();
  let before = gauge () in
  let n = 2000 in
  ignore (Sys.opaque_identity (List.init n Fun.id));
  let after = gauge () in
  Alcotest.(check bool)
    (Printf.sprintf "rose by %.0f words, allocated %d" (after -. before) (3 * n))
    true
    (after -. before >= float_of_int (3 * n))

let () =
  Alcotest.run "telemetry"
    [
      ( "merge",
        [
          Alcotest.test_case "across real domains" `Quick
            test_merge_across_domains;
        ] );
      ( "exporter",
        [
          Alcotest.test_case "lifecycle" `Quick test_exporter_lifecycle;
        ] );
      ( "renderer",
        [
          Alcotest.test_case "runtime sections" `Quick test_render_runtime;
          Alcotest.test_case "minor words" `Quick test_minor_words_gauge;
        ] );
    ]
