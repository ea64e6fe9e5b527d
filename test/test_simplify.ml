open Support

let env_of bindings =
  let env = Hashtbl.create 8 in
  List.iter (fun (name, cols) -> Hashtbl.replace env name cols) bindings;
  env

let sample_env = env_of [ ("v1", [ "a"; "b" ]); ("v2", [ "b"; "c" ]) ]

let scan name = Core.Rewriting.Scan name

let test_merge_selects () =
  let expr =
    Core.Rewriting.Select
      ( [ Core.Rewriting.Eq_cst ("a", uri "k") ],
        Core.Rewriting.Select ([ Core.Rewriting.Eq_col ("a", "b") ], scan "v1") )
  in
  match Core.Simplify.simplify sample_env expr with
  | Core.Rewriting.Select (conds, Core.Rewriting.Scan "v1") ->
    check_int "merged conditions" 2 (List.length conds)
  | other -> Alcotest.failf "unexpected: %s" (Core.Rewriting.to_string other)

let test_identity_project_removed () =
  let expr = Core.Rewriting.Project ([ "a"; "b" ], scan "v1") in
  check_bool "identity project gone" true
    (Core.Simplify.simplify sample_env expr = scan "v1")

let test_nested_projects_collapse () =
  let expr =
    Core.Rewriting.Project
      ([ "a" ], Core.Rewriting.Project ([ "a"; "b" ], scan "v1"))
  in
  match Core.Simplify.simplify sample_env expr with
  | Core.Rewriting.Project ([ "a" ], Core.Rewriting.Scan "v1") -> ()
  | other -> Alcotest.failf "unexpected: %s" (Core.Rewriting.to_string other)

let test_select_pushes_through_project () =
  let expr =
    Core.Rewriting.Select
      ( [ Core.Rewriting.Eq_cst ("a", uri "k") ],
        Core.Rewriting.Project ([ "a" ], scan "v1") )
  in
  match Core.Simplify.simplify sample_env expr with
  | Core.Rewriting.Project ([ "a" ], Core.Rewriting.Select (_, Core.Rewriting.Scan "v1"))
    -> ()
  | other -> Alcotest.failf "unexpected: %s" (Core.Rewriting.to_string other)

let test_select_splits_across_join () =
  let expr =
    Core.Rewriting.Select
      ( [
          Core.Rewriting.Eq_cst ("a", uri "k");
          Core.Rewriting.Eq_cst ("c", uri "m");
        ],
        Core.Rewriting.Join ([], scan "v1", scan "v2") )
  in
  match Core.Simplify.simplify sample_env expr with
  | Core.Rewriting.Join
      ( [],
        Core.Rewriting.Select ([ Core.Rewriting.Eq_cst ("a", _) ], Core.Rewriting.Scan "v1"),
        Core.Rewriting.Select ([ Core.Rewriting.Eq_cst ("c", _) ], Core.Rewriting.Scan "v2") )
    -> ()
  | other -> Alcotest.failf "unexpected: %s" (Core.Rewriting.to_string other)

let test_join_condition_stays_above () =
  let expr =
    Core.Rewriting.Select
      ( [ Core.Rewriting.Eq_col ("a", "c") ],
        Core.Rewriting.Join ([], scan "v1", scan "v2") )
  in
  match Core.Simplify.simplify sample_env expr with
  | Core.Rewriting.Select ([ Core.Rewriting.Eq_col ("a", "c") ], Core.Rewriting.Join _)
    -> ()
  | other -> Alcotest.failf "unexpected: %s" (Core.Rewriting.to_string other)

let test_renames_compose () =
  let expr =
    Core.Rewriting.Rename
      ( [ ("x", "y") ],
        Core.Rewriting.Rename ([ ("a", "x"); ("b", "b2") ], scan "v1") )
  in
  match Core.Simplify.simplify sample_env expr with
  | Core.Rewriting.Rename (mapping, Core.Rewriting.Scan "v1") ->
    check_bool "composed" true
      (List.sort compare mapping = [ ("a", "y"); ("b", "b2") ])
  | other -> Alcotest.failf "unexpected: %s" (Core.Rewriting.to_string other)

let test_identity_rename_removed () =
  let expr = Core.Rewriting.Rename ([ ("a", "a"); ("b", "b") ], scan "v1") in
  check_bool "identity rename gone" true
    (Core.Simplify.simplify sample_env expr = scan "v1")

let test_select_through_rename () =
  let expr =
    Core.Rewriting.Select
      ( [ Core.Rewriting.Eq_cst ("x", uri "k") ],
        Core.Rewriting.Rename ([ ("a", "x") ], scan "v1") )
  in
  match Core.Simplify.simplify sample_env expr with
  | Core.Rewriting.Rename
      (_, Core.Rewriting.Select ([ Core.Rewriting.Eq_cst ("a", _) ], Core.Rewriting.Scan "v1"))
    -> ()
  | other -> Alcotest.failf "unexpected: %s" (Core.Rewriting.to_string other)

let test_union_flattens_and_dedups () =
  let expr =
    Core.Rewriting.Union
      [ scan "v1"; Core.Rewriting.Union [ scan "v1"; scan "v2" ] ]
  in
  match Core.Simplify.simplify sample_env expr with
  | Core.Rewriting.Union [ Core.Rewriting.Scan "v1"; Core.Rewriting.Scan "v2" ] -> ()
  | other -> Alcotest.failf "unexpected: %s" (Core.Rewriting.to_string other)

let test_columns_preserved () =
  let exprs =
    [
      Core.Rewriting.Project ([ "b"; "a" ], scan "v1");
      Core.Rewriting.Select
        ( [ Core.Rewriting.Eq_cst ("b", uri "k") ],
          Core.Rewriting.Join ([], scan "v1", scan "v2") );
      Core.Rewriting.Rename ([ ("a", "z") ], scan "v1");
    ]
  in
  List.iter
    (fun expr ->
      let before = Core.Rewriting.columns sample_env expr in
      let after =
        Core.Rewriting.columns sample_env (Core.Simplify.simplify sample_env expr)
      in
      check_bool "columns preserved" true (before = after))
    exprs

(* The big one: along random transition walks, the simplified rewriting
   executes to exactly the same answers as the raw one. *)
let prop_simplify_execution_equivalent =
  QCheck.Test.make
    ~name:"simplified rewritings execute identically" ~count:60
    QCheck.(
      triple arb_store (pair arb_cq arb_cq) (list_of_size (Gen.return 6) small_nat))
    (fun (store, (qa, qb), choices) ->
      let workload = [ Query.Cq.rename qa "qa"; Query.Cq.rename qb "qb" ] in
      let state = ref (Core.State.initial workload) in
      List.iteri
        (fun i choice ->
          let kind = List.nth Core.Transition.all_kinds (i mod 4) in
          match Core.Transition.successors !state kind with
          | [] -> ()
          | succs -> state := List.nth succs (choice mod List.length succs))
        choices;
      let env_cols = Core.State.env !state in
      let env = Engine.Materialize.materialize_state store !state in
      List.for_all
        (fun (_, rewriting) ->
          let raw = Engine.Executor.execute_query store env rewriting in
          let simplified = Core.Simplify.simplify env_cols rewriting in
          let opt = Engine.Executor.execute_query store env simplified in
          Core.Rewriting.well_formed env_cols simplified
          && same_answers raw opt)
        !state.Core.State.rewritings)

let prop_simplify_never_grows =
  QCheck.Test.make ~name:"simplification never adds operator nodes" ~count:60
    QCheck.(
      triple arb_store (pair arb_cq arb_cq) (list_of_size (Gen.return 5) small_nat))
    (fun (_, (qa, qb), choices) ->
      let workload = [ Query.Cq.rename qa "qa"; Query.Cq.rename qb "qb" ] in
      let state = ref (Core.State.initial workload) in
      List.iteri
        (fun i choice ->
          let kind = List.nth Core.Transition.all_kinds (i mod 4) in
          match Core.Transition.successors !state kind with
          | [] -> ()
          | succs -> state := List.nth succs (choice mod List.length succs))
        choices;
      let env_cols = Core.State.env !state in
      List.for_all
        (fun (_, rewriting) ->
          Core.Simplify.node_count (Core.Simplify.simplify env_cols rewriting)
          <= Core.Simplify.node_count rewriting)
        !state.Core.State.rewritings)

(* Every node kind's check, each on its own: [columns] raises Failure
   and [well_formed] is false, while the same shapes with the faults
   taken out pass. *)
let test_ill_formed_rejected () =
  let open Core.Rewriting in
  let v1 = scan "v1" and v2 = scan "v2" in
  List.iter
    (fun (label, expr) ->
      check_bool (label ^ ": well_formed") false (well_formed sample_env expr);
      match columns sample_env expr with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "%s: columns did not raise on %s" label (to_string expr))
    [
      ("unknown view", scan "v9");
      ("unknown view under a project", Project ([ "a" ], scan "v9"));
      ("select on a missing column", Select ([ Eq_cst ("c", uri "k") ], v1));
      ("select equating a missing column", Select ([ Eq_col ("a", "c") ], v1));
      ("project of a missing column", Project ([ "a"; "c" ], v1));
      ("join on a missing left column", Join ([ ("c", "b") ], v1, v2));
      ("join on a missing right column", Join ([ ("a", "a") ], v1, v2));
      ("rename of a missing column", Rename ([ ("c", "d") ], v1));
      ("repeated rename target", Rename ([ ("a", "x"); ("b", "x") ], v1));
      ("rename onto a kept column", Rename ([ ("a", "b") ], v1));
      ("empty union", Union []);
      ("union arity", Union [ v1; Project ([ "a" ], v1) ]);
      ("fault below a good node", Select ([], Project ([ "z" ], v1)));
    ];
  List.iter
    (fun expr -> check_bool (to_string expr) true (well_formed sample_env expr))
    [
      Select ([ Eq_cst ("a", uri "k"); Eq_col ("a", "b") ], v1);
      Project ([ "b"; "b" ], v1);
      Join ([ ("a", "c") ], v1, v2);
      Rename ([ ("a", "b"); ("b", "a") ], v1);
      Union [ v1; Rename ([ ("a", "x") ], v1) ];
    ]

let () =
  Alcotest.run "simplify"
    [
      ( "rules",
        [
          Alcotest.test_case "merge selects" `Quick test_merge_selects;
          Alcotest.test_case "identity project" `Quick
            test_identity_project_removed;
          Alcotest.test_case "nested projects" `Quick
            test_nested_projects_collapse;
          Alcotest.test_case "select through project" `Quick
            test_select_pushes_through_project;
          Alcotest.test_case "select splits across join" `Quick
            test_select_splits_across_join;
          Alcotest.test_case "cross-side condition stays" `Quick
            test_join_condition_stays_above;
          Alcotest.test_case "renames compose" `Quick test_renames_compose;
          Alcotest.test_case "identity rename" `Quick test_identity_rename_removed;
          Alcotest.test_case "select through rename" `Quick
            test_select_through_rename;
          Alcotest.test_case "union flatten/dedup" `Quick
            test_union_flattens_and_dedups;
          Alcotest.test_case "columns preserved" `Quick test_columns_preserved;
          Alcotest.test_case "ill-formed rewritings rejected" `Quick
            test_ill_formed_rejected;
        ] );
      ( "equivalence",
        [
          to_alcotest prop_simplify_execution_equivalent;
          to_alcotest prop_simplify_never_grows;
        ] );
    ]
