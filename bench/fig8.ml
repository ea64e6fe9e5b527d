(* Figure 8: execution times for the Q1 queries under RDFS reasoning,
   over five evaluation methods:

   - materialized views recommended by post-reformulation;
   - materialized views recommended by pre-reformulation;
   - the saturated triple table (the heavily-indexed store — the
     PostgreSQL analog of §6);
   - a restricted saturated triple table holding only the triples
     matching some query atom;
   - the materialized initial state (the queries themselves), which only
     needs view scans;

   plus the §6.5/§6.6 prose numbers: view materialization time and total
   view size as a fraction of the database.

   The "dedicated RDF engine" comparator (RDF-3X) is substituted by the
   indexed store itself (see DESIGN.md); the claim preserved is
   views ≫ triple table and views ≈ indexed evaluation.

   Timing uses one Bechamel Test.make per (query, method) pair. *)

let restricted_store saturated queries =
  let restricted = Rdf.Store.create () in
  List.iter
    (fun (q : Query.Cq.t) ->
      List.iter
        (fun (a : Query.Atom.t) ->
          let bound term =
            match term with
            | Query.Qterm.Cst cst -> Rdf.Store.find_term saturated cst
            | Query.Qterm.Var _ -> None
          in
          let pat =
            { Rdf.Store.ps = bound a.s; pp = bound a.p; po = bound a.o }
          in
          Rdf.Store.iter_matching saturated pat (fun (s, p, o) ->
              let decode = Rdf.Store.decode_term saturated in
              let reencode t = Rdf.Store.encode_term restricted (decode t) in
              ignore (Rdf.Store.add_encoded restricted (reencode s, reencode p, reencode o))))
        q.Query.Cq.body)
    queries;
  restricted

let run () =
  Harness.section "Figure 8: execution times for queries with RDFS";
  let store = Lazy.force Harness.barton_store in
  let schema = Lazy.force Harness.barton_schema in
  let _, _, q1, _ = Tables.reformulation_workloads () in
  let opts = Harness.options ~budget:Harness.search_budget () in

  (* the five competitors *)
  let saturated, saturation_time =
    Harness.time_once (fun () -> Rdf.Entailment.saturated_copy store schema)
  in
  let post =
    Core.Selector.select ~store
      ~reasoning:(Core.Selector.Post_reformulation schema) ~options:opts q1
  in
  let pre =
    Core.Selector.select ~store
      ~reasoning:(Core.Selector.Pre_reformulation schema) ~options:opts q1
  in
  let post_views, post_mat_time =
    Harness.time_once (fun () -> Engine.Pipeline.materialize post)
  in
  let pre_views, pre_mat_time =
    Harness.time_once (fun () -> Engine.Pipeline.materialize pre)
  in
  let initial_env, initial_mat_time =
    Harness.time_once (fun () ->
        (* the initial state materializes the reformulated queries *)
        Engine.Materialize.materialize_views store
          (List.map (fun q -> Query.Reformulation.reformulate q schema) q1))
  in
  let restricted = restricted_store saturated q1 in

  let db_bytes =
    Rdf.Store.fold_all saturated
      (fun (s, p, o) acc ->
        acc
        + Rdf.Term.size (Rdf.Store.decode_term saturated s)
        + Rdf.Term.size (Rdf.Store.decode_term saturated p)
        + Rdf.Term.size (Rdf.Store.decode_term saturated o))
      0
  in
  let report_views label env mat_time =
    let bytes = Engine.Materialize.total_size_bytes store env in
    Printf.printf
      "  %-22s materialized in %.3fs; size %d bytes (%.1f%% of saturated db)\n"
      label mat_time bytes
      (100. *. float_of_int bytes /. float_of_int (max db_bytes 1))
  in
  Printf.printf "  database: %d explicit + %d implicit triples (saturation: %.3fs)\n"
    (Rdf.Store.size store)
    (Rdf.Store.size saturated - Rdf.Store.size store)
    saturation_time;
  report_views "post-reformulation" (Engine.Pipeline.views post_views) post_mat_time;
  report_views "pre-reformulation" (Engine.Pipeline.views pre_views) pre_mat_time;
  report_views "initial state" initial_env initial_mat_time;

  (* per-query timing: one Bechamel test per (query, method) *)
  Harness.subsection "per-query execution time (ms, OLS estimate)";
  let methods (q : Query.Cq.t) =
    [
      ("views-post", fun () -> ignore (Engine.Pipeline.execute post_views q.Query.Cq.name));
      ("views-pre", fun () -> ignore (Engine.Pipeline.execute pre_views q.Query.Cq.name));
      ( "saturated-tt",
        fun () -> ignore (Query.Evaluation.eval_cq saturated q) );
      ( "restricted-tt",
        fun () -> ignore (Query.Evaluation.eval_cq restricted q) );
      ( "initial-state",
        fun () ->
          ignore
            (Engine.Executor.execute store initial_env
               (Core.Rewriting.Scan q.Query.Cq.name)) );
    ]
  in
  let rows =
    List.map
      (fun (q : Query.Cq.t) ->
        let tests =
          List.map
            (fun (label, fn) ->
              Bechamel.Test.make ~name:label (Bechamel.Staged.stage fn))
            (methods q)
        in
        let grouped =
          Bechamel.Test.make_grouped ~name:q.Query.Cq.name ~fmt:"%s/%s" tests
        in
        let measured = Harness.measure_tests ~quota:0.3 grouped in
        q.Query.Cq.name
        :: List.map
             (fun (label, _) ->
               match
                 List.assoc_opt (q.Query.Cq.name ^ "/" ^ label) measured
               with
               | Some ns -> Harness.fmt_ms ns
               | None -> "?")
             (methods q))
      q1
  in
  Harness.print_table
    ~header:
      [ "query"; "views-post"; "views-pre"; "saturated-tt"; "restricted-tt";
        "initial-state" ]
    rows;

  (* completeness cross-check: both view sets answer like the saturated db *)
  let complete =
    List.for_all
      (fun (q : Query.Cq.t) ->
        let expected = Query.Evaluation.eval_cq saturated q in
        let via views = Engine.Pipeline.answer views q.Query.Cq.name in
        Query.Evaluation.same_answers expected (via post_views)
        && Query.Evaluation.same_answers expected (via pre_views))
      q1
  in
  Printf.printf "\n  all methods return complete answers: %b\n" complete
