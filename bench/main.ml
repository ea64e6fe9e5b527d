(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation section (§6), plus ablations and the
   regression baseline.

     dune exec bench/main.exe            # everything, quick scale
     dune exec bench/main.exe fig4       # one experiment
     BENCH_SCALE=full dune exec bench/main.exe   # paper-scale sizes
     dune exec bench/main.exe -- --metrics out.json fig4   # + metrics dump
     dune exec bench/main.exe -- baseline \
       --baseline BENCH_baseline.json --fail-over 20   # regression gate

   Experiments: baseline, eval, table2, table3, fig4, fig5, fig6, fig7,
   fig8, ablation, parallel, store.

   Each top-level experiment writes BENCH_<experiment>.json (states/sec,
   expand-latency percentiles, best cost, peak heap words) unless
   --no-bench-json; --bench-dir DIR redirects the files.  --baseline
   FILE compares the matching experiment's fresh numbers against FILE,
   warn-only by default; --fail-over PCT makes a throughput drop larger
   than PCT%% (or any search-outcome mismatch) fail the run.

   --metrics FILE instead installs one shared Obs registry before any
   experiment runs and writes FILE before the first experiment and again
   after the last, GC totals included (render it with `rdfviews report
   FILE`; schema in EXPERIMENTS.md).  BENCH emission is disabled in
   that mode, since the per-experiment numbers would all alias one
   registry. *)

let experiments =
  [
    ("baseline", Baseline.run);
    ("eval", Eval.run);
    ("table2", fun () -> Tables.run_table2 ());
    ("table3", fun () -> Tables.run_table3 ());
    ("fig4", Fig4.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("ablation", Ablation.run);
    ("parallel", Parallel.run);
    ("store", Store.run);
  ]

let usage () =
  print_endline
    "usage: main.exe [--metrics FILE] [--bench-dir DIR] [--no-bench-json]";
  print_endline
    "                [--baseline FILE] [--fail-over PCT] [experiment...]";
  print_endline "experiments:";
  List.iter (fun (name, _) -> print_endline ("  " ^ name)) experiments

let missing_value flag =
  Printf.eprintf "%s requires a value\n" flag;
  usage ();
  exit 1

(* Split the option flags out of the experiment names.  Both
   "--flag VALUE" and "--flag=VALUE" spellings are accepted. *)
let parse_args args =
  let metrics = ref None in
  let split arg =
    match String.index_opt arg '=' with
    | Some i when String.length arg > 2 && arg.[0] = '-' ->
      Some (String.sub arg 0 i, String.sub arg (i + 1) (String.length arg - i - 1))
    | _ -> None
  in
  let apply flag value =
    match flag with
    | "--metrics" -> metrics := Some value
    | "--bench-dir" -> Harness.set_bench_dir value
    | "--baseline" -> Harness.load_baseline value
    | "--fail-over" -> (
      match float_of_string_opt value with
      | Some pct -> Harness.set_fail_over pct
      | None ->
        Printf.eprintf "--fail-over wants a percentage, got %s\n" value;
        exit 1)
    | _ -> assert false
  in
  let takes_value = [ "--metrics"; "--bench-dir"; "--baseline"; "--fail-over" ] in
  let rec go names = function
    | [] -> (!metrics, List.rev names)
    | "--no-bench-json" :: rest ->
      Harness.disable_bench_json ();
      go names rest
    | flag :: rest when List.mem flag takes_value -> (
      match rest with
      | value :: rest -> apply flag value; go names rest
      | [] -> missing_value flag)
    | arg :: rest -> (
      match split arg with
      | Some (flag, value) when List.mem flag takes_value ->
        apply flag value;
        go names rest
      | _ -> go (arg :: names) rest)
  in
  go [] args

let () =
  let metrics, requested =
    parse_args (match Array.to_list Sys.argv with _ :: args -> args | [] -> [])
  in
  let run () =
    Printf.printf
      "RDFViewS reproduction benchmarks (scale: %s; set BENCH_SCALE=full for paper-scale runs)\n"
      Harness.scale_name;
    let run_named (name, run) = Harness.toplevel name run in
    match requested with
    | [] -> List.iter run_named experiments
    | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some run -> run_named (name, run)
          | None ->
            Printf.printf "unknown experiment: %s\n" name;
            usage ();
            exit 1)
        names
  in
  (match metrics with
  | Some path ->
    Harness.disable_bench_json ();
    Harness.with_metrics path run
  | None -> run ());
  exit (Harness.finish_bench ())
