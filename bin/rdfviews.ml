(* rdfviews — command-line interface to the view-selection library.

   Subcommands:
     select       recommend materialized views for a workload
     check        certify saved states against a workload's semantics
     report       render a --metrics dump
     reformulate  reformulate queries w.r.t. an RDFS (Algorithm 1)
     saturate     saturate a dataset w.r.t. an RDFS
     eval         evaluate queries over a dataset
     generate     generate synthetic or data-backed workloads
     barton       emit the synthetic Barton-like dataset and schema *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  contents

let write_out path text =
  match path with
  | None -> print_endline text
  | Some file ->
    let oc = open_out file in
    output_string oc text;
    output_string oc "\n";
    close_out oc

let load_store ?(backend = Rdf.Backend.Hash) path =
  let store = Rdf.Store.create ~backend () in
  List.iter
    (fun triple -> ignore (Rdf.Store.add store triple))
    (Query.Parser.parse_triples (read_file path));
  store

let load_workload path = Query.Parser.parse_workload (read_file path)
let load_schema path = Query.Parser.parse_schema (read_file path)

(* A combination of options that the argument parser cannot refuse on
   its own, e.g. a reasoning mode given without --schema. *)
exception Usage_error of string

(* Run a command body that returns its exit code, reporting expected
   failures on stderr with exit [code]: 2 for check, whose success path
   returns 0 certified / 1 violations found, and 1 otherwise.  Any other
   exception is a bug and escapes. *)
let exit_on_error code f =
  let fail fmt = Printf.ksprintf (fun message -> prerr_endline message; code) fmt in
  try f () with
  | Query.Parser.Parse_error message -> fail "parse error: %s" message
  | Core.State_io.Syntax_error message -> fail "state file error: %s" message
  | Obs.Report.Bad_dump message -> fail "error: malformed metrics dump: %s" message
  | Usage_error message -> fail "error: %s" message
  | Core.Selector.Unsupported_query message -> fail "error: %s" message
  | Workload.Generator.Store_too_small ->
    fail "error: generate_satisfiable: store too small"
  | Sys_error message -> fail "%s" message

let handle_errors f = exit_on_error 1 (fun () -> f (); 0)

(* ---------- common arguments ---------------------------------------------- *)

let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected N >= %d" s lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let data_arg =
  Arg.(
    required
    & opt (some non_dir_file) None
    & info [ "d"; "data" ] ~docv:"FILE" ~doc:"Triples file (N-Triples-style).")

let schema_opt_arg =
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "s"; "schema" ] ~docv:"FILE" ~doc:"RDFS schema file.")

let schema_req_arg =
  Arg.(
    required
    & opt (some non_dir_file) None
    & info [ "s"; "schema" ] ~docv:"FILE" ~doc:"RDFS schema file.")

let workload_arg =
  Arg.(
    required
    & opt (some non_dir_file) None
    & info [ "w"; "workload" ] ~docv:"FILE" ~doc:"Workload file (Datalog-style).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write output to $(docv).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write run telemetry (named counters, histograms, gauges, series \
           and trace spans — per-transition counts and timings, per-stratum \
           search outcomes, the best-cost trajectory, \
           incremental and full cost evaluations, store probe counts, GC \
           totals) as \
           JSON to $(docv).  $(docv) is written before the run, so a bad \
           path fails early, and again at its end, also when the run \
           fails (render it with $(b,rdfviews report) $(docv)).  Use - to \
           print the dump once to stdout at the end of the run.  See \
           EXPERIMENTS.md for the schema.")

let store_backend_arg =
  Arg.(
    value
    & opt
        (enum [ ("hash", Rdf.Backend.Hash); ("compact", Rdf.Backend.Compact) ])
        Rdf.Backend.Hash
    & info [ "store-backend" ] ~docv:"BACKEND"
        ~doc:
          "Triple-store backend: $(b,hash) (hexastore-style hash buckets; \
           the default, fastest point mutation) or $(b,compact) (sorted \
           delta-compressed segments with zone maps — several times \
           smaller, for Barton-scale datasets).")

(* Telemetry is off (a no-op sink) unless --metrics selects a registry,
   once, before the run starts.  A path error surfaces from the first
   write, before the run, and a failed final write as a plain Sys_error
   (caught by handle_errors).  "-" prints the dump once, after a
   successful run. *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
    let registry = Obs.create () in
    let run () =
      Obs.set_global registry;
      Fun.protect ~finally:(fun () -> Obs.set_global Obs.disabled) f
    in
    if String.equal path "-" then begin
      let result = run () in
      print_endline (Obs.Export.dump registry);
      result
    end
    else Obs.Export.with_dump ~path registry run

(* ---------- select --------------------------------------------------------- *)

let strategy_conv =
  let parse s =
    match Core.Search.strategy_of_string s with
    | Some strategy -> Ok strategy
    | None -> Error (`Msg ("unknown strategy " ^ s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Core.Search.strategy_name s))

let select_cmd =
  let reasoning_arg =
    Arg.(
      value
      & opt (enum [ ("none", `None); ("saturation", `Saturation);
                    ("pre", `Pre); ("post", `Post) ])
          `None
      & info [ "r"; "reasoning" ] ~docv:"MODE"
          ~doc:"Reasoning mode: none, saturation, pre (pre-reformulation) or \
                post (post-reformulation). All but none require --schema.")
  in
  let strategy_arg =
    Arg.(
      value
      & opt strategy_conv Core.Search.Dfs
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:"Search strategy: dfs, gstr, exstr or exnaive.")
  in
  let seconds =
    let parse s =
      match float_of_string_opt s with
      | Some p when Float.is_finite p && p > 0. -> Ok p
      | Some _ | None ->
        Error
          (`Msg
            (Printf.sprintf "invalid value '%s', expected a finite number of \
                             seconds > 0" s))
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let budget_arg =
    Arg.(
      value
      & opt (some seconds) (Some 30.)
      & info [ "budget" ] ~docv:"SECONDS" ~doc:"Search time budget (stoptime).")
  in
  let no_avf_arg =
    Arg.(value & flag & info [ "no-avf" ] ~doc:"Disable aggressive view fusion.")
  in
  let no_stv_arg =
    Arg.(value & flag & info [ "no-stv" ] ~doc:"Disable the stopvar condition.")
  in
  let materialize_arg =
    Arg.(
      value & flag
      & info [ "materialize" ]
          ~doc:"Also materialize the views and report their sizes and the \
                query answers.")
  in
  let state_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-out" ] ~docv:"FILE"
          ~doc:"Write the best state (views + rewritings) to $(docv), in the \
                format read back by $(b,rdfviews check --state).")
  in
  let trace_states_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-states" ] ~docv:"FILE"
          ~doc:"Write every state the search accepts (after stop conditions \
                and deduplication) to $(docv), for offline certification \
                with $(b,rdfviews check).")
  in
  let jobs_arg =
    Arg.(
      value & opt (int_at_least 0) 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Search with $(docv) parallel domains over work-stealing \
             deques (requires an OCaml 5 build; 0 means the runtime's \
             recommended domain count). The default 1 is the sequential \
             engine; with more domains the counters depend on the \
             schedule, and a completed run reaches the sequential best \
             cost. See CONCURRENCY.md.")
  in
  let run data workload schema reasoning strategy budget no_avf no_stv materialize
      state_out trace_states metrics jobs store_backend =
    handle_errors @@ fun () ->
    with_metrics metrics @@ fun () ->
    let store = load_store ~backend:store_backend data in
    let queries = load_workload workload in
    let schema = Option.map load_schema schema in
    let reasoning =
      match (reasoning, schema) with
      | `None, _ -> Core.Selector.No_reasoning
      | `Saturation, Some s -> Core.Selector.Saturation s
      | `Pre, Some s -> Core.Selector.Pre_reformulation s
      | `Post, Some s -> Core.Selector.Post_reformulation s
      | (`Saturation | `Pre | `Post), None ->
        raise (Usage_error "this reasoning mode requires --schema")
    in
    let jobs = if jobs = 0 then Multicore.recommended_domain_count () else jobs in
    if jobs > 1 && not Multicore.available then
      raise
        (Usage_error "--jobs > 1 requires an OCaml 5 build (this one is sequential)");
    let traced = ref [] in
    (* under --jobs the hook runs on any domain *)
    let traced_lock = Multicore.Spinlock.create () in
    let options =
      {
        Core.Search.default_options with
        strategy;
        avf = not no_avf;
        stop_var = not no_stv;
        time_budget = budget;
        on_accept =
          (match trace_states with
          | None -> None
          | Some _ ->
            Some
              (fun s ->
                Multicore.Spinlock.with_lock traced_lock (fun () ->
                    traced := s :: !traced)));
      }
    in
    let result =
      Obs.span (Obs.global ()) "select" (fun () ->
          Core.Selector.select ~jobs ~store ~reasoning ~options queries)
    in
    let report = result.Core.Selector.report in
    Printf.printf
      "search (%s, %s%s): explored %d states in %.2fs; cost %.4g -> %.4g (rcr %.3f)%s\n\n"
      (Core.Search.strategy_name strategy)
      (Core.Selector.reasoning_name reasoning)
      (match strategy with
      | Core.Search.Gstr when jobs > 1 ->
        (* greedy picks are inherently sequential and GSTR runs on one
           domain, so do not claim a parallel run in the banner *)
        ", jobs ignored (gstr is sequential)"
      | _ when jobs > 1 -> Printf.sprintf ", %d jobs" jobs
      | _ -> "")
      report.Core.Search.explored report.Core.Search.elapsed
      report.Core.Search.initial_cost report.Core.Search.best_cost
      (Core.Search.rcr report)
      (if report.Core.Search.completed then " [complete]" else "");
    print_endline "recommended views:";
    List.iter
      (fun u ->
        List.iter
          (fun d -> Printf.printf "  %s\n" (Query.Parser.query_to_text d))
          (Query.Ucq.disjuncts u))
      result.Core.Selector.recommended;
    print_endline "\nrewritings:";
    List.iter
      (fun (q, r) -> Printf.printf "  %s = %s\n" q (Core.Rewriting.to_string r))
      result.Core.Selector.rewritings;
    (match state_out with
    | Some file ->
      Core.State_io.write_file file [ report.Core.Search.best ];
      Printf.printf "\nbest state written to %s\n" file
    | None -> ());
    (match trace_states with
    | Some file ->
      let states = List.rev !traced in
      Core.State_io.write_file file states;
      Printf.printf "\n%d accepted state(s) written to %s\n"
        (List.length states) file
    | None -> ());
    if materialize then begin
      let mstore = result.Core.Selector.store_for_materialization in
      let env = Engine.Materialize.materialize_views mstore result.Core.Selector.recommended in
      Printf.printf "\nmaterialized: %d tuples, %d bytes\n"
        (Engine.Materialize.total_cardinality env)
        (Engine.Materialize.total_size_bytes mstore env);
      List.iter
        (fun (qname, rewriting) ->
          let answers = Engine.Executor.execute_query mstore env rewriting in
          Printf.printf "  %s: %d answers\n" qname (List.length answers))
        result.Core.Selector.rewritings
    end
  in
  let info =
    Cmd.info "select" ~doc:"Recommend materialized views for a workload."
  in
  Cmd.v info
    Term.(
      const run $ data_arg $ workload_arg $ schema_opt_arg $ reasoning_arg
      $ strategy_arg $ budget_arg $ no_avf_arg $ no_stv_arg $ materialize_arg
      $ state_out_arg $ trace_states_arg $ metrics_arg
      $ jobs_arg $ store_backend_arg)

(* ---------- check ----------------------------------------------------------- *)

let check_cmd =
  let state_arg =
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "state" ] ~docv:"FILE"
          ~doc:"State file to certify (written by $(b,select --state-out) or \
                $(b,--trace-states)).")
  in
  let data_opt_arg =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "d"; "data" ] ~docv:"FILE"
          ~doc:"Triples file; when given, cost-model invariants are checked \
                against statistics of this dataset.")
  in
  let reasoning_arg =
    Arg.(
      value
      & opt (enum [ ("none", `None); ("pre", `Pre) ]) `None
      & info [ "r"; "reasoning" ] ~docv:"MODE"
          ~doc:"Reference semantics: none (each query itself) or pre (each \
                query's reformulation w.r.t. --schema, for states produced \
                under pre-reformulation).")
  in
  let run workload schema reasoning state data =
    exit_on_error 2 @@ fun () ->
    let queries = load_workload workload in
    let reference =
      match (reasoning, Option.map load_schema schema) with
      | `None, _ -> Core.Invariant.reference_of_workload queries
      | `Pre, Some s ->
        Core.Invariant.reference_of_groups
          (List.map
             (fun q ->
               ( q.Query.Cq.name,
                 Query.Ucq.disjuncts (Query.Reformulation.reformulate q s) ))
             queries)
      | `Pre, None -> raise (Usage_error "--reasoning pre requires --schema")
    in
    let estimator =
      Option.map
        (fun path ->
          Core.Cost.create
            (Stats.Statistics.create ~mode:Stats.Statistics.Plain
               (load_store path))
            Core.Cost.default_weights)
        data
    in
    let states = Core.State_io.read_file state in
    if states = [] then raise (Usage_error "state file contains no states");
    let total = ref 0 in
    List.iteri
      (fun i s ->
        let violations = Core.Invariant.check ?estimator reference s in
        total := !total + List.length violations;
        if violations = [] then
          Printf.printf "state %d: ok (%d view(s), %d rewriting(s) certified)\n"
            (i + 1)
            (List.length s.Core.State.views)
            (List.length s.Core.State.rewritings)
        else
          List.iter
            (fun viol ->
              Printf.printf "state %d: %s\n" (i + 1)
                (Core.Invariant.violation_to_string viol))
            violations)
      states;
    if !total = 0 then begin
      Printf.printf "%d state(s) certified\n" (List.length states);
      0
    end
    else begin
      Printf.printf "%d violation(s) found\n" !total;
      1
    end
  in
  let info =
    Cmd.info "check"
      ~doc:
        "Certify saved states: every workload query rewritten, each \
         rewriting equivalent to the query (containment mappings both \
         ways), structure and cost estimates sane.  Exits 0 when all \
         states certify, 1 on violations, 2 on usage or parse errors."
  in
  Cmd.v info
    Term.(
      const run $ workload_arg $ schema_opt_arg $ reasoning_arg $ state_arg
      $ data_opt_arg)

(* ---------- report ---------------------------------------------------------- *)

let report_cmd =
  let input_arg =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE"
          ~doc:"A metrics registry dump (written by $(b,--metrics)).")
  in
  let run input =
    handle_errors @@ fun () ->
    match Obs.Json.of_string (read_file input) with
    | json -> print_string (Obs.Report.render json)
    | exception Obs.Json.Parse_error message -> raise (Obs.Report.Bad_dump message)
  in
  let info =
    Cmd.info "report"
      ~doc:
        "Render a $(b,--metrics) dump: state totals, convergence curve \
         (best cost vs. wall time), time-to-within-x%-of-final-cost, \
         per-transition acceptance, stratum population, GC totals and \
         per-domain work/steal/idle utilization."
  in
  Cmd.v info Term.(const run $ input_arg)

(* ---------- reformulate ---------------------------------------------------- *)

let reformulate_cmd =
  let run workload schema output =
    handle_errors @@ fun () ->
    let queries = load_workload workload in
    let schema = load_schema schema in
    let text =
      String.concat "\n\n"
        (List.map
           (fun q ->
             let u = Query.Reformulation.reformulate q schema in
             Printf.sprintf "# %s: %d union term(s), %d shape(s)\n%s" q.Query.Cq.name
               (Query.Ucq.cardinal u)
               (List.length (Query.Ucq.shapes u))
               (String.concat "\n"
                  (List.map Query.Parser.query_to_text (Query.Ucq.disjuncts u))))
           queries)
    in
    write_out output text
  in
  let info =
    Cmd.info "reformulate"
      ~doc:"Reformulate queries w.r.t. an RDFS (Algorithm 1 of the paper)."
  in
  Cmd.v info Term.(const run $ workload_arg $ schema_req_arg $ output_arg)

(* ---------- saturate -------------------------------------------------------- *)

let saturate_cmd =
  let count_only =
    Arg.(value & flag & info [ "count" ] ~doc:"Only print triple counts.")
  in
  let run data schema output count_only store_backend =
    handle_errors @@ fun () ->
    let store = load_store ~backend:store_backend data in
    let schema = load_schema schema in
    let before = Rdf.Store.size store in
    let added = Rdf.Entailment.saturate store schema in
    if count_only then
      Printf.printf "%d explicit + %d implicit = %d triples\n" before added
        (Rdf.Store.size store)
    else
      write_out output (Query.Parser.triples_to_text (Rdf.Store.to_triples store))
  in
  let info = Cmd.info "saturate" ~doc:"Saturate a dataset w.r.t. an RDFS." in
  Cmd.v info
    Term.(
      const run $ data_arg $ schema_req_arg $ output_arg $ count_only
      $ store_backend_arg)

(* ---------- eval ------------------------------------------------------------ *)

let eval_cmd =
  let run data workload schema metrics store_backend =
    handle_errors @@ fun () ->
    with_metrics metrics @@ fun () ->
    let store = load_store ~backend:store_backend data in
    let queries = load_workload workload in
    let schema = Option.map load_schema schema in
    List.iter
      (fun q ->
        let answers =
          match schema with
          | None -> Query.Evaluation.eval_cq store q
          | Some s ->
            Query.Evaluation.eval_ucq store
              (Query.Reformulation.reformulate q s)
        in
        Printf.printf "%s: %d answer(s)\n" q.Query.Cq.name
          (List.length answers);
        List.iter
          (fun tuple ->
            Printf.printf "  (%s)\n"
              (String.concat ", "
                 (List.map Rdf.Term.to_string (Array.to_list tuple))))
          answers)
      queries
  in
  let info =
    Cmd.info "eval"
      ~doc:"Evaluate queries; with --schema, answers reflect RDFS entailment \
            (via reformulation)."
  in
  Cmd.v info
    Term.(
      const run $ data_arg $ workload_arg $ schema_opt_arg $ metrics_arg
      $ store_backend_arg)

(* ---------- generate --------------------------------------------------------- *)

let generate_cmd =
  let shape_conv =
    let parse s =
      match Workload.Generator.shape_of_string s with
      | Some shape -> Ok shape
      | None -> Error (`Msg ("unknown shape " ^ s))
    in
    Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Workload.Generator.shape_name s))
  in
  let shape_arg =
    Arg.(
      value
      & opt shape_conv Workload.Generator.Star
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:"star, chain, cycle, random-sparse, random-dense or mixed.")
  in
  let queries_arg =
    Arg.(
      value & opt (int_at_least 0) 5
      & info [ "queries" ] ~docv:"N" ~doc:"Number of queries.")
  in
  let atoms_arg =
    Arg.(
      value & opt (int_at_least 1) 5
      & info [ "atoms" ] ~docv:"N" ~doc:"Atoms per query.")
  in
  let commonality_arg =
    Arg.(
      value
      & opt (enum [ ("high", Workload.Generator.High); ("low", Workload.Generator.Low) ])
          Workload.Generator.High
      & info [ "commonality" ] ~docv:"LEVEL" ~doc:"high or low.")
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.") in
  let satisfiable_arg =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "satisfiable-on" ] ~docv:"FILE"
          ~doc:"Sample constants from $(docv) so every query has answers.")
  in
  let run shape queries atoms commonality seed satisfiable output =
    handle_errors @@ fun () ->
    let spec =
      {
        Workload.Generator.shape;
        n_queries = queries;
        atoms_per_query = atoms;
        commonality;
        seed;
      }
    in
    let workload =
      match satisfiable with
      | None -> Workload.Generator.generate spec
      | Some data -> Workload.Generator.generate_satisfiable (load_store data) spec
    in
    write_out output
      (String.concat "\n" (List.map Query.Parser.query_to_text workload))
  in
  let info = Cmd.info "generate" ~doc:"Generate a synthetic query workload." in
  Cmd.v info
    Term.(
      const run $ shape_arg $ queries_arg $ atoms_arg $ commonality_arg
      $ seed_arg $ satisfiable_arg $ output_arg)

(* ---------- barton ----------------------------------------------------------- *)

let barton_cmd =
  let entities_arg =
    Arg.(value & opt int 500 & info [ "entities" ] ~docv:"N" ~doc:"Number of entities.")
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.") in
  let schema_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schema-out" ] ~docv:"FILE" ~doc:"Also write the schema to $(docv).")
  in
  let run entities seed schema_out output =
    handle_errors @@ fun () ->
    let store = Workload.Barton.store ~n_entities:entities ~seed () in
    write_out output (Query.Parser.triples_to_text (Rdf.Store.to_triples store));
    match schema_out with
    | Some file ->
      write_out (Some file) (Query.Parser.schema_to_text (Workload.Barton.schema ()))
    | None -> ()
  in
  let info =
    Cmd.info "barton"
      ~doc:"Emit the synthetic Barton-like dataset (and optionally its schema)."
  in
  Cmd.v info Term.(const run $ entities_arg $ seed_arg $ schema_out_arg $ output_arg)

(* ---------- main -------------------------------------------------------------- *)

let () =
  let info =
    Cmd.info "rdfviews" ~version:"1.0.0"
      ~doc:"Materialized view selection for Semantic Web databases."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ select_cmd; check_cmd; report_cmd; reformulate_cmd;
            saturate_cmd; eval_cmd; generate_cmd; barton_cmd ]))
