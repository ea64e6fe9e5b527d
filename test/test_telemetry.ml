(* Live telemetry: registry merging under real concurrent domains, the
   runtime-events consumer, the live --metrics exporter and the runtime
   sections of the report.  Everything that needs actual domains or Runtime_events is
   gated on the respective [available] flag so the suite also passes on
   an OCaml 4.x build. *)

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

(* ---------- the runtime-events consumer ----------------------------------- *)

let test_runtime_poll () =
  if not Obs.Runtime.available then ()
  else begin
    Alcotest.(check bool) "start" true (Obs.Runtime.start ());
    Alcotest.(check bool) "active" true (Obs.Runtime.active ());
    Alcotest.(check bool) "idempotent" true (Obs.Runtime.start ());
    let t = Obs.create () in
    (* force minor collections so there is something to consume *)
    for _ = 1 to 5 do
      Gc.minor ()
    done;
    let drained = Obs.Runtime.poll t in
    Alcotest.(check bool) "events drained" true (drained > 0);
    let minors =
      Option.value ~default:0 (Obs.find_counter t "runtime.gc.minor.collections")
    in
    Alcotest.(check bool) "minor collections seen" true (minors > 0);
    (match Obs.find_histogram t "runtime.gc.minor.pause_ns" with
    | Some h ->
      Alcotest.(check int) "pause samples" minors (Obs.histogram_count h)
    | None -> Alcotest.fail "minor pause histogram missing");
    (* max-pause gauge mirrors the histogram's largest sample *)
    (match Obs.find_gauge t "runtime.gc.max_pause_ns" with
    | Some v -> Alcotest.(check bool) "max pause positive" true (v > 0.)
    | None -> Alcotest.fail "max pause gauge missing");
    Alcotest.(check int) "disabled sink" 0 (Obs.Runtime.poll Obs.disabled)
  end

let test_runtime_unavailable_noop () =
  if Obs.Runtime.available then ()
  else begin
    Alcotest.(check bool) "start fails" false (Obs.Runtime.start ());
    Alcotest.(check bool) "inactive" false (Obs.Runtime.active ());
    Alcotest.(check int) "poll no-op" 0 (Obs.Runtime.poll (Obs.create ()))
  end

(* ---------- the exporter --------------------------------------------------- *)

let read_dump path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Obs.Json.of_string (really_input_string ic (in_channel_length ic)))

let with_temp_file f =
  let path = Filename.temp_file "rdfviews_metrics" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_exporter_lifecycle () =
  with_temp_file (fun path ->
      let t = Obs.create () in
      Obs.add (Obs.counter t "search.created") 7;
      let e = Obs.Export.start ~path t in
      (* the first write is synchronous: the file is a dump before any tick *)
      Alcotest.(check int)
        "first write" 7
        (Obs.Report.of_metrics (read_dump path)).Obs.Report.created;
      Obs.add (Obs.counter t "search.created") 3;
      Obs.Export.stop e;
      (* stop writes the final dump over the bumped counter *)
      Alcotest.(check int)
        "final write" 10
        (Obs.Report.of_metrics (read_dump path)).Obs.Report.created;
      Alcotest.(check bool)
        "no tmp file left" false
        (Sys.file_exists (path ^ ".tmp"));
      (* idempotent stop *)
      Obs.Export.stop e);
  let missing =
    Filename.concat
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "rdfviews-missing-%d" (Unix.getpid ())))
      "m.json"
  in
  match Obs.Export.start ~path:missing (Obs.create ()) with
  | exception Sys_error _ -> ()
  | e ->
    Obs.Export.stop e;
    Alcotest.fail "start into a missing directory did not raise"

let test_exporter_ticks () =
  with_temp_file (fun path ->
      let t = Obs.create () in
      let e = Obs.Export.start ~path t in
      let ticks () = Option.value ~default:0 (Obs.find_counter t "telemetry.ticks") in
      let deadline = Unix.gettimeofday () +. 30. in
      while ticks () < 1 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.05
      done;
      Obs.Export.stop e;
      Alcotest.(check bool) "ticked at least once" true (ticks () >= 1);
      (* the ticks counter rides along in the file itself *)
      match Obs.Json.member "counters" (read_dump path) with
      | Some counters -> (
        match Obs.Json.member "telemetry.ticks" counters with
        | Some (Obs.Json.Int n) -> Alcotest.(check bool) "ticks in file" true (n >= 1)
        | _ -> Alcotest.fail "telemetry.ticks missing from the file")
      | None -> Alcotest.fail "counters missing from the file")

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
        [ ("work", 3_000_000); ("steal", 1_000_000); ("idle", 1_000_000) ])
    [ 0; 1 ];
  Obs.add (Obs.counter t "runtime.gc.minor.collections") 2;
  Obs.observe (Obs.histogram t "runtime.gc.minor.pause_ns") 1000;
  Obs.observe (Obs.histogram t "runtime.gc.minor.pause_ns") 3000;
  Obs.set_gauge (Obs.gauge t "runtime.gc.max_pause_ns") 3000.;
  let rendered = render t in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains rendered needle))
    [
      "garbage collector\n";
      (* 2 minor collections, mean 0.002 ms, total 0.004 ms *)
      "minor  2            0.002    0.004";
      "max pause: 0.003 ms";
      "per-domain utilization";
      "80.0%";
      "final best 559.25";
    ];
  (* without runtime or per-domain series: placeholders, no tables *)
  let bare = Obs.create () in
  Obs.add (Obs.counter bare "search.created") 1;
  let rendered = render bare in
  Alcotest.(check bool)
    "gc placeholder" true
    (contains rendered "garbage collector: no runtime events");
  Alcotest.(check bool)
    "no utilization table" false
    (contains rendered "per-domain utilization");
  Alcotest.(check bool)
    "search placeholder" true
    (contains (render (Obs.create ())) "no search in dump")

let () =
  Alcotest.run "telemetry"
    [
      ( "merge",
        [
          Alcotest.test_case "across real domains" `Quick
            test_merge_across_domains;
        ] );
      ( "runtime events",
        [
          Alcotest.test_case "start/poll on OCaml 5" `Quick test_runtime_poll;
          Alcotest.test_case "no-op on 4.x" `Quick
            test_runtime_unavailable_noop;
        ] );
      ( "exporter",
        [
          Alcotest.test_case "lifecycle" `Quick test_exporter_lifecycle;
          Alcotest.test_case "periodic ticks" `Quick test_exporter_ticks;
        ] );
      ( "renderer",
        [ Alcotest.test_case "runtime sections" `Quick test_render_runtime ] );
    ]
