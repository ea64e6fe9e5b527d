(* Multicore scaling of the search: the baseline workload run by the
   one worklist loop of [Core.Search.run ~jobs], whose domains all pop
   one shared frontier, first on one domain (the "sequential" row: the
   same loop, spawning nothing), then on 2 and 4 OCaml 5 domains.

   Two kinds of numbers come out of this experiment and they are held to
   different standards.  The fixpoint flag
   (parallel.free_best_cost_matches) must reproduce exactly across runs
   and machines — a completed parallel run must reach the sequential
   best cost.  The throughput and speedup figures are
   wall-clock-derived and machine-dependent: on a single-CPU host the
   domains time-slice one core and the speedup hovers at or below 1.0;
   the committed baseline records whatever the reference host measured
   and the rate comparison only warns.

   Parallel runs leave schedule-dependent totals in the Obs registry,
   so the registry is wiped and a canonical sequential run is replayed
   last: the generic BENCH fields (states_created, best_cost, ...) stay
   deterministic and the parallel numbers travel in their own
   "parallel" section via Harness.add_bench_field. *)

let fmt_speedup s = Printf.sprintf "%.2fx" s

let run () =
  Harness.section "Parallel: multicore scaling on the baseline workload";
  let store = Lazy.force Harness.barton_store in
  let queries =
    Workload.Generator.generate_satisfiable store
      (Harness.spec Workload.Generator.Star 3 2 Workload.Generator.Low 7)
  in
  let stats = Harness.stats_for store in
  let opts = Harness.options ~budget:(10. *. Harness.long_budget) () in
  (* Warm-up: faults in the statistics caches so neither the sequential
     reference nor the first parallel configuration pays them. *)
  ignore (Core.Search.run stats opts queries);
  let seq, seq_s = Harness.time_once (fun () -> Core.Search.run stats opts queries) in
  let seq_rate = float_of_int seq.Core.Search.created /. seq_s in
  let measure jobs =
    let report, secs =
      Harness.time_once (fun () ->
          Core.Search.run ~jobs stats opts queries)
    in
    let rate = float_of_int report.Core.Search.created /. secs in
    (report, secs, rate)
  in
  let row label jobs (report, secs, rate) =
    [
      label;
      string_of_int jobs;
      string_of_int report.Core.Search.created;
      string_of_int report.Core.Search.explored;
      Harness.fmt_float report.Core.Search.best_cost;
      Printf.sprintf "%.1f" (secs *. 1e3);
      Printf.sprintf "%.0f" rate;
      fmt_speedup (seq_s /. secs);
      (if report.Core.Search.completed then "yes" else "cut");
    ]
  in
  if not Multicore.available then begin
    print_endline
      "  OCaml 4.x build: domains unavailable, the search runs on one \
       domain; recording the one-domain run only.";
    Harness.print_table
      ~header:
        [ "mode"; "jobs"; "created"; "explored"; "best cost"; "ms"; "st/s"; "speedup"; "done" ]
      [ row "sequential" 1 (seq, seq_s, seq_rate) ];
    Obs.reset (Obs.global ());
    ignore (Core.Search.run stats opts queries);
    Harness.add_bench_field "parallel"
      (Obs.Json.Obj [ ("available", Obs.Json.Int 0) ])
  end
  else begin
    Printf.printf "  host: %d recommended domain(s)\n"
      (Multicore.recommended_domain_count ());
    let jobs_list = [ 2; 4 ] in
    let free = List.map (fun j -> (j, measure j)) jobs_list in
    Harness.print_table
      ~header:
        [ "mode"; "jobs"; "created"; "explored"; "best cost"; "ms"; "st/s"; "speedup"; "done" ]
      (row "sequential" 1 (seq, seq_s, seq_rate)
      :: List.map (fun (j, m) -> row "free" j m) free);
    (* Free mode explores in schedule order, so counters may differ, but
       a completed run must land on the same best cost. *)
    let free_matches =
      List.for_all
        (fun (_, ((r : Core.Search.report), _, _)) ->
          r.Core.Search.completed
          && Float.abs (r.Core.Search.best_cost -. seq.Core.Search.best_cost)
             <= 1e-6 *. Float.max 1.0 (Float.abs seq.Core.Search.best_cost))
        free
    in
    Printf.printf "  free mode reaches the sequential best cost: %s\n"
      (if free_matches then "yes" else "NO — REGRESSION");
    let config label (report, secs, rate) =
      ( label,
        Obs.Json.Obj
          [
            ("states_created", Obs.Json.Int report.Core.Search.created);
            ("states_explored", Obs.Json.Int report.Core.Search.explored);
            ("best_cost", Obs.Json.Float report.Core.Search.best_cost);
            ("elapsed_s", Obs.Json.Float secs);
            ("states_per_sec", Obs.Json.Float rate);
            ("speedup", Obs.Json.Float (seq_s /. secs));
          ] )
    in
    let fields =
      [
        ("available", Obs.Json.Int 1);
        ( "recommended_domains",
          Obs.Json.Int (Multicore.recommended_domain_count ()) );
        ( "free_best_cost_matches",
          Obs.Json.Int (if free_matches then 1 else 0) );
        config "sequential" (seq, seq_s, seq_rate);
      ]
      @ List.map
          (fun (j, m) -> config (Printf.sprintf "free_%d" j) m)
          free
    in
    (* The free-mode runs above polluted the ambient registry with
       schedule-dependent totals; wipe it and replay the canonical
       sequential run so the generic BENCH fields stay deterministic. *)
    Obs.reset (Obs.global ());
    ignore (Core.Search.run stats opts queries);
    Harness.add_bench_field "parallel" (Obs.Json.Obj fields)
  end
