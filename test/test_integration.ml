open Support

(* End-to-end: run the selector in every reasoning scenario, materialize
   the recommended views, execute the rewritings and compare against
   direct evaluation on the (saturated) database.  This is the paper's
   central promise: all workload queries are answered from the views
   alone, reflecting implicit triples (§1 contribution 1 + 2). *)

let schema =
  Rdf.Schema.of_statements
    [
      Rdf.Schema.Subclass (uri "ex:painting", uri "ex:picture");
      Rdf.Schema.Subproperty (uri "ex:isExpIn", uri "ex:isLocatIn");
      Rdf.Schema.Range (uri "ex:hasPainted", uri "ex:painting");
    ]

let data_store () =
  store_of
    [
      triple (uri "ex:mona") rdf_type (uri "ex:painting");
      triple (uri "ex:guernica") rdf_type (uri "ex:picture");
      triple (uri "ex:mona") (uri "ex:isExpIn") (uri "ex:louvre");
      triple (uri "ex:guernica") (uri "ex:isLocatIn") (uri "ex:reina");
      triple (uri "ex:daVinci") (uri "ex:hasPainted") (uri "ex:mona");
      triple (uri "ex:picasso") (uri "ex:hasPainted") (uri "ex:guernica");
      triple (uri "ex:sunflower") rdf_type (uri "ex:painting");
      triple (uri "ex:sunflower") (uri "ex:isExpIn") (uri "ex:orsay");
    ]

(* §3.3's example query: pictures and where they are located *)
let q_pictures =
  cq ~name:"qpic"
    [ v "X1"; v "X2" ]
    [
      atom (v "X1") (Query.Qterm.Cst rdf_type) (c "ex:picture");
      atom (v "X1") (c "ex:isLocatIn") (v "X2");
    ]

let q_painters =
  cq ~name:"qptr"
    [ v "P"; v "W" ]
    [ atom (v "P") (c "ex:hasPainted") (v "W") ]

let workload = [ q_pictures; q_painters ]

let options =
  { Core.Search.default_options with time_budget = Some 2.0 }

let expected_answers () =
  (* ground truth: evaluation on the saturated database *)
  let saturated = Rdf.Entailment.saturated_copy (data_store ()) schema in
  List.map (fun q -> (q.Query.Cq.name, Query.Evaluation.eval_cq saturated q)) workload

let run_scenario reasoning =
  let store = data_store () in
  Core.Selector.select ~store ~reasoning ~options workload

let check_scenario_complete reasoning =
  let pipeline = Engine.Pipeline.materialize (run_scenario reasoning) in
  List.iter
    (fun (qname, expected) ->
      if not (same_answers expected (Engine.Pipeline.answer pipeline qname)) then
        Alcotest.failf "%s: incomplete answers under %s" qname
          (Core.Selector.reasoning_name reasoning))
    (expected_answers ())

let test_saturation_complete () = check_scenario_complete (Core.Selector.Saturation schema)

let test_post_reformulation_complete () =
  check_scenario_complete (Core.Selector.Post_reformulation schema)

let test_pre_reformulation_complete () =
  check_scenario_complete (Core.Selector.Pre_reformulation schema)

let test_no_reasoning_misses_implicit () =
  (* sanity: without reasoning, implicit answers are (correctly) absent *)
  let pipeline = Engine.Pipeline.materialize (run_scenario Core.Selector.No_reasoning) in
  let via = Engine.Pipeline.answer pipeline "qpic" in
  let direct = Query.Evaluation.eval_cq (Engine.Pipeline.store pipeline) q_pictures in
  check_bool "matches plain evaluation" true (same_answers via direct);
  let _, expected = List.hd (expected_answers ()) in
  check_bool "fewer answers than with reasoning" true
    (List.length via < List.length expected)

let test_saturation_and_post_agree () =
  (* §6.5: "The views recommended in a saturation and a
     post-reformulation context are the same." *)
  let sat = run_scenario (Core.Selector.Saturation schema) in
  let post = run_scenario (Core.Selector.Post_reformulation schema) in
  let key r =
    Core.State.key_string r.Core.Selector.report.Core.Search.best
  in
  check_string "same best view set" (key sat) (key post);
  check_bool "same best cost" true
    (abs_float
       (sat.Core.Selector.report.Core.Search.best_cost
       -. post.Core.Selector.report.Core.Search.best_cost)
    < 1e-6)

let test_post_reformulation_views_are_ucqs () =
  let post = run_scenario (Core.Selector.Post_reformulation schema) in
  (* at least one recommended view must have picked up implicit variants *)
  check_bool "some view reformulated" true
    (List.exists
       (fun u -> Query.Ucq.cardinal u > 1)
       post.Core.Selector.recommended)

(* A query whose body is a Cartesian product, or whose head repeats a
   variable, is refused by name before the search, and so is a query
   whose reformulation has such a disjunct: binding the property
   variable [P] to a constant disconnects the two atoms.  Under
   pre-reformulation, so is a query whose reformulation binds a head
   variable: the class variable [C] becomes [ex:picture] by the
   subclass rule. *)
let test_unviewable_queries_refused () =
  let cartesian =
    cq ~name:"q1" [ v "X"; v "Y" ]
      [ atom (v "X") (c "ex:p") (v "Z"); atom (v "Y") (c "ex:q") (v "W") ]
  in
  let repeated =
    cq ~name:"q1" [ v "X"; v "X" ] [ atom (v "X") (c "ex:hasPainted") (v "Z") ]
  in
  let property_var =
    cq ~name:"q1" [ v "X" ]
      [ atom (v "X") (v "P") (v "O"); atom (v "P") (c "ex:q") (v "L") ]
  in
  let class_var =
    cq ~name:"q1" [ v "X"; v "C" ] [ atom (v "X") (Query.Qterm.Cst rdf_type) (v "C") ]
  in
  let pre = Core.Selector.Pre_reformulation schema in
  List.iter
    (fun (q, reasoning, reason) ->
      match
        Core.Selector.select ~store:(data_store ()) ~reasoning ~options
          [ q_painters; q ]
      with
      | _ -> Alcotest.fail "query accepted"
      | exception Core.Selector.Unsupported_query message ->
        check_bool message true
          (String.starts_with ~prefix:("query q1: " ^ reason ^ ": ") message))
    [
      (cartesian, Core.Selector.No_reasoning, "body is a Cartesian product");
      (cartesian, pre, "body is a Cartesian product");
      (repeated, Core.Selector.No_reasoning, "head repeats a variable");
      (repeated, pre, "head repeats a variable");
      (property_var, pre, "body is a Cartesian product");
      (class_var, pre, "reformulation binds a head variable to a constant");
    ]

let test_pre_reformulation_initial_state_is_union () =
  let store = data_store () in
  let groups =
    List.map
      (fun q ->
        (q.Query.Cq.name, Query.Ucq.disjuncts (Query.Reformulation.reformulate q schema)))
      workload
  in
  let state = Core.State.initial_union groups in
  check_bool "invariants" true (Core.State.invariants_hold state);
  check_bool "more views than queries" true
    (List.length state.Core.State.views > List.length workload);
  ignore store

(* ---------- offline client scenario --------------------------------------- *)

let test_views_answer_without_database () =
  (* the three-tier motivation of §1: after materialization, the original
     store is not consulted — we delete it and still answer *)
  let pipeline = Engine.Pipeline.materialize (run_scenario (Core.Selector.Saturation schema)) in
  let store = Engine.Pipeline.store pipeline in
  let expected = expected_answers () in
  (* simulate losing the database: empty every triple *)
  List.iter (fun tr -> ignore (Rdf.Store.remove store tr)) (Rdf.Store.to_triples store);
  check_int "database gone" 0 (Rdf.Store.size store);
  List.iter
    (fun (qname, expected) ->
      check_bool (qname ^ " still answered") true
        (same_answers expected (Engine.Pipeline.answer pipeline qname)))
    expected

(* ---------- barton-scale end-to-end ---------------------------------------- *)

let test_barton_end_to_end () =
  let store = Workload.Barton.store ~n_entities:150 ~seed:5 () in
  let schema = Workload.Barton.schema () in
  let queries =
    Workload.Generator.generate_satisfiable store
      {
        Workload.Generator.default_spec with
        n_queries = 3;
        atoms_per_query = 3;
        seed = 31;
      }
  in
  let saturated = Rdf.Entailment.saturated_copy store schema in
  let pipeline =
    Engine.Pipeline.materialize
      (Core.Selector.select ~store
         ~reasoning:(Core.Selector.Post_reformulation schema)
         ~options:{ options with time_budget = Some 3.0 }
         queries)
  in
  List.iter
    (fun q ->
      let expected = Query.Evaluation.eval_cq saturated q in
      check_bool (q.Query.Cq.name ^ " complete") true
        (same_answers expected (Engine.Pipeline.answer pipeline q.Query.Cq.name)))
    queries

(* ---------- maintenance through the pipeline ------------------------------ *)

(* Whether the pipeline maintains a selection: every view is a CQ over
   the explicit store, which the saturation's views never are. *)
let maintainable (result : Core.Selector.result) =
  match result.Core.Selector.reasoning with
  | Core.Selector.Saturation _ -> false
  | _ -> List.for_all (fun u -> Query.Ucq.cardinal u = 1) result.Core.Selector.recommended

let museum_updates =
  [
    (`Insert, triple (uri "ex:starry") rdf_type (uri "ex:painting"));
    (`Insert, triple (uri "ex:vanGogh") (uri "ex:hasPainted") (uri "ex:starry"));
    (`Insert, triple (uri "ex:starry") (uri "ex:isExpIn") (uri "ex:moma"));
    (`Delete, triple (uri "ex:mona") (uri "ex:isExpIn") (uri "ex:louvre"));
    (`Delete, triple (uri "ex:picasso") (uri "ex:hasPainted") (uri "ex:guernica"));
    (`Delete, triple (uri "ex:starry") rdf_type (uri "ex:painting"));
  ]

(* After each update, every maintained view equals a fresh
   materialization of the updated store. *)
let check_maintained_views reasoning =
  let result = run_scenario reasoning in
  let pipeline = Engine.Pipeline.materialize result in
  let store = Engine.Pipeline.store pipeline in
  let changed =
    List.fold_left
      (fun changed (op, tr) ->
        let n =
          match op with
          | `Insert -> Engine.Pipeline.insert pipeline tr
          | `Delete -> Engine.Pipeline.delete pipeline tr
        in
        let fresh = Engine.Pipeline.views (Engine.Pipeline.materialize result) in
        Hashtbl.iter
          (fun name rel ->
            check_bool
              (Printf.sprintf "%s after %s" name (Rdf.Triple.to_string tr))
              true
              (same_answers
                 (Engine.Relation.to_term_rows store rel)
                 (Engine.Relation.to_term_rows store (Hashtbl.find fresh name))))
          (Engine.Pipeline.views pipeline);
        changed + n)
      0 museum_updates
  in
  check_bool "some view tuple changed" true (changed > 0)

let test_no_reasoning_maintained () = check_maintained_views Core.Selector.No_reasoning

let test_pre_reformulation_maintained () =
  check_maintained_views (Core.Selector.Pre_reformulation schema)

(* A selection whose views are not CQs over the explicit store is
   refused before the store changes. *)
let check_refused reasoning =
  let result = run_scenario reasoning in
  check_bool "not maintainable" false (maintainable result);
  let pipeline = Engine.Pipeline.materialize result in
  let store = Engine.Pipeline.store pipeline in
  let size = Rdf.Store.size store in
  let tr = snd (List.hd museum_updates) in
  (match Engine.Pipeline.insert pipeline tr with
  | _ -> Alcotest.fail "insert accepted"
  | exception Engine.Pipeline.Not_maintainable reason ->
    check_bool reason true
      (String.starts_with ~prefix:(Core.Selector.reasoning_name reasoning ^ ": ") reason));
  check_int "store size unchanged" size (Rdf.Store.size store);
  check_bool "triple not added" false (Rdf.Store.mem store tr)

let test_saturation_refused () = check_refused (Core.Selector.Saturation schema)

let test_post_reformulation_union_refused () =
  check_refused (Core.Selector.Post_reformulation schema)

let test_unknown_query_named () =
  let pipeline = Engine.Pipeline.materialize (run_scenario Core.Selector.No_reasoning) in
  match Engine.Pipeline.answer pipeline "nope" with
  | _ -> Alcotest.fail "unknown query answered"
  | exception Engine.Pipeline.Unknown_query name -> check_string "named" "nope" name

(* ---------- randomized cross-scenario agreement ---------------------------- *)

(* An update stream: inserts of generated triples, and deletes of the
   store's [i]-th triple (modulo its size). *)
let arb_updates =
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "<%d updates>" (List.length ops))
    QCheck.Gen.(
      list_size (int_range 1 6)
        (oneof [ map (fun tr -> `Insert tr) gen_data_triple; map (fun i -> `Delete i) nat ]))

(* Every scenario's pipeline answers as [Reference] on the saturation
   (on the plain store without reasoning), before and after a random
   update stream when it maintains its views; otherwise it refuses the
   update. *)
let prop_scenarios_agree =
  QCheck.Test.make
    ~name:"all reasoning scenarios produce complete answers" ~count:25
    QCheck.(quad arb_store arb_schema (pair arb_cq arb_cq) arb_updates)
    (fun (store, schema, (qa, qb), updates) ->
      let workload = [ Query.Cq.rename qa "qa"; Query.Cq.rename qb "qb" ] in
      let opts =
        { Core.Search.default_options with
          time_budget = Some 0.3;
          max_states = Some 500 }
      in
      let agrees reasoning pipeline explicit =
        let truth =
          match reasoning with
          | Core.Selector.No_reasoning -> explicit
          | _ -> Rdf.Entailment.saturated_copy explicit schema
        in
        List.for_all
          (fun q ->
            same_answers
              (Query.Evaluation.Reference.eval_cq truth q)
              (Engine.Pipeline.answer pipeline q.Query.Cq.name))
          workload
      in
      let update pipeline = function
        | `Insert tr -> ignore (Engine.Pipeline.insert pipeline tr)
        | `Delete i -> (
          match Rdf.Store.to_triples (Engine.Pipeline.store pipeline) with
          | [] -> ()
          | trs -> ignore (Engine.Pipeline.delete pipeline (List.nth trs (i mod List.length trs))))
      in
      List.for_all
        (fun reasoning ->
          let explicit = Rdf.Store.copy store in
          let result = Core.Selector.select ~store:explicit ~reasoning ~options:opts workload in
          let pipeline = Engine.Pipeline.materialize result in
          agrees reasoning pipeline explicit
          &&
          if maintainable result then begin
            List.iter (update pipeline) updates;
            agrees reasoning pipeline (Engine.Pipeline.store pipeline)
          end
          else
            match Engine.Pipeline.insert pipeline (triple (uri "e0") (uri "P0") (uri "e1")) with
            | _ -> false
            | exception Engine.Pipeline.Not_maintainable _ -> true)
        [
          Core.Selector.No_reasoning;
          Core.Selector.Saturation schema;
          Core.Selector.Post_reformulation schema;
          Core.Selector.Pre_reformulation schema;
        ])

let () =
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "saturation answers completely" `Quick
            test_saturation_complete;
          Alcotest.test_case "post-reformulation answers completely" `Quick
            test_post_reformulation_complete;
          Alcotest.test_case "pre-reformulation answers completely" `Quick
            test_pre_reformulation_complete;
          Alcotest.test_case "no-reasoning misses implicit" `Quick
            test_no_reasoning_misses_implicit;
          Alcotest.test_case "saturation ≡ post-reformulation views" `Quick
            test_saturation_and_post_agree;
          Alcotest.test_case "post views are UCQs" `Quick
            test_post_reformulation_views_are_ucqs;
          Alcotest.test_case "pre-reformulation initial union" `Quick
            test_pre_reformulation_initial_state_is_union;
          Alcotest.test_case "unviewable queries refused" `Quick
            test_unviewable_queries_refused;
        ] );
      ( "offline",
        [
          Alcotest.test_case "views answer without the database" `Quick
            test_views_answer_without_database;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "no-reasoning views maintained" `Quick
            test_no_reasoning_maintained;
          Alcotest.test_case "pre-reformulation views maintained" `Quick
            test_pre_reformulation_maintained;
          Alcotest.test_case "saturation update refused" `Quick
            test_saturation_refused;
          Alcotest.test_case "post-reformulation union update refused" `Quick
            test_post_reformulation_union_refused;
          Alcotest.test_case "unknown query named" `Quick test_unknown_query_named;
        ] );
      ( "barton",
        [ Alcotest.test_case "end to end" `Slow test_barton_end_to_end ] );
      ("random", [ to_alcotest prop_scenarios_agree ]);
    ]
