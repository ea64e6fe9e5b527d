open Support

(* The museum running example (Fig. 1). *)
let q1_paper =
  cq ~name:"q1"
    [ v "X"; v "Z" ]
    [
      atom (v "X") (c "ex:hasPainted") (c "ex:starryNight");
      atom (v "X") (c "ex:isParentOf") (v "Y");
      atom (v "Y") (c "ex:hasPainted") (v "Z");
    ]

let q2_paper =
  cq ~name:"q2"
    [ v "P" ]
    [ atom (v "P") (c "ex:hasPainted") (v "W") ]

let museum_store =
  store_of
    [
      triple (uri "ex:vanGogh") (uri "ex:hasPainted") (uri "ex:starryNight");
      triple (uri "ex:vanGogh") (uri "ex:isParentOf") (uri "ex:vincentJr");
      triple (uri "ex:vincentJr") (uri "ex:hasPainted") (uri "ex:sunflowers2");
      triple (uri "ex:monet") (uri "ex:hasPainted") (uri "ex:waterLilies");
      triple (uri "ex:monet") (uri "ex:isParentOf") (uri "ex:michel");
      triple (uri "ex:michel") (uri "ex:hasPainted") (uri "ex:starryNight");
    ]

let estimator_for store =
  Core.Cost.create
    (Stats.Statistics.create ~mode:Stats.Statistics.Plain store)
    Core.Cost.default_weights

let has_violation family violations =
  List.exists
    (fun (viol : Core.Invariant.violation) ->
      String.equal viol.Core.Invariant.invariant family)
    violations

let check_clean what violations =
  if violations <> [] then
    Alcotest.failf "%s: unexpected violations:\n%s" what
      (String.concat "\n"
         (List.map Core.Invariant.violation_to_string violations))

(* ---------- positive: the paper example ---------------------------------- *)

let test_initial_state_certified () =
  let workload = [ q1_paper; q2_paper ] in
  let reference = Core.Invariant.reference_of_workload workload in
  let state = Core.State.initial workload in
  check_clean "initial state"
    (Core.Invariant.check
       ~estimator:(estimator_for museum_store)
       reference state)

let test_reference_recovered_from_state () =
  let workload = [ q1_paper; q2_paper ] in
  let state = Core.State.initial workload in
  match Core.Invariant.reference_of_state state with
  | Error m -> Alcotest.failf "reference_of_state failed: %s" m
  | Ok recovered ->
    List.iter
      (fun q ->
        match List.assoc_opt q.Query.Cq.name recovered with
        | None -> Alcotest.failf "query %s missing" q.Query.Cq.name
        | Some disjuncts ->
          check_bool
            ("recovered reference equivalent for " ^ q.Query.Cq.name)
            true
            (Core.Invariant.ucq_equivalent disjuncts [ q ]))
      workload

let test_all_single_transitions_certified () =
  let workload = [ q1_paper ] in
  let reference = Core.Invariant.reference_of_workload workload in
  let state = Core.State.initial workload in
  let count = ref 0 in
  List.iter
    (fun kind ->
      List.iter
        (fun succ ->
          incr count;
          check_clean
            (Core.Transition.kind_name kind ^ " successor")
            (Core.Invariant.check reference succ);
          check_clean "edge replayable"
            (Core.Invariant.check_edge ~parent:state ~child:succ))
        (Core.Transition.successors state kind))
    Core.Transition.all_kinds;
  check_bool "some successors were checked" true (!count > 0)

let test_search_accepts_only_valid_states () =
  let workload = [ q1_paper; q2_paper ] in
  let reference = Core.Invariant.reference_of_workload workload in
  let estimator = estimator_for museum_store in
  let accepted = ref [] in
  let options =
    {
      Core.Search.default_options with
      max_states = Some 150;
      on_accept = Some (fun s -> accepted := s :: !accepted);
    }
  in
  let report =
    Core.Search.run_from estimator options (Core.State.initial workload)
  in
  check_bool "search accepted states" true (List.length !accepted > 1);
  List.iter
    (fun state ->
      check_clean "accepted state"
        (Core.Invariant.check ~estimator reference state))
    !accepted;
  check_bool "best state among accepted" true
    (List.exists
       (fun s ->
         Core.State.equal_key (Core.State.key s)
           (Core.State.key report.Core.Search.best))
       !accepted)

let test_edge_not_replayable () =
  let s1 = Core.State.initial [ q1_paper ] in
  let s2 = Core.State.initial [ q2_paper ] in
  check_bool "unrelated states are not an edge" true
    (has_violation "edge" (Core.Invariant.check_edge ~parent:s1 ~child:s2))

(* ---------- negative: corrupted states ----------------------------------- *)

let test_swapped_rewritings_rejected () =
  let state = Core.State.initial [ q1_paper; q2_paper ] in
  let swapped =
    match state.Core.State.rewritings with
    | [ (n1, r1); (n2, r2) ] ->
      Core.State.make ~views:state.Core.State.views
        ~rewritings:[ (n1, r2); (n2, r1) ]
    | _ -> Alcotest.fail "expected two rewritings"
  in
  let reference = Core.Invariant.reference_of_workload [ q1_paper; q2_paper ] in
  check_bool "swapped rewritings violate equivalence" true
    (has_violation "equivalence" (Core.Invariant.check reference swapped))

let test_view_with_extra_atom_incomplete () =
  (* The view is strictly narrower than the query (one atom too many):
     the rewriting is sound but incomplete, so exactly the completeness
     direction of the containment certificate must fail. *)
  let narrow =
    Core.View.of_cq
      (cq ~name:"v_narrow" [ v "P" ]
         [
           atom (v "P") (c "ex:hasPainted") (v "W");
           atom (v "P") (c "ex:isParentOf") (v "K");
         ])
  in
  let state =
    Core.State.make ~views:[ narrow ]
      ~rewritings:[ ("q2", Core.Rewriting.Scan "v_narrow") ]
  in
  let violations =
    Core.Invariant.check (Core.Invariant.reference_of_workload [ q2_paper ]) state
  in
  check_bool "incomplete rewriting detected" true
    (has_violation "equivalence" violations);
  check_bool "detail names the direction" true
    (List.exists
       (fun (viol : Core.Invariant.violation) ->
         String.length viol.Core.Invariant.detail >= 10
         && String.sub viol.Core.Invariant.detail
              (String.length "rewriting of q2 is ")
              10
            = "incomplete")
       violations)

let test_dropped_selection_unsound () =
  (* The view forgets the starryNight constant of q1's first atom and the
     rewriting never re-applies it: the unfolding is strictly wider than
     the query — sound fails, complete holds. *)
  let wide =
    Core.View.of_cq
      (cq ~name:"v_wide"
         [ v "X"; v "Z" ]
         [
           atom (v "X") (c "ex:hasPainted") (v "S");
           atom (v "X") (c "ex:isParentOf") (v "Y");
           atom (v "Y") (c "ex:hasPainted") (v "Z");
         ])
  in
  let state =
    Core.State.make ~views:[ wide ]
      ~rewritings:[ ("q1", Core.Rewriting.Scan "v_wide") ]
  in
  let violations =
    Core.Invariant.check (Core.Invariant.reference_of_workload [ q1_paper ]) state
  in
  check_bool "unsound rewriting detected" true
    (has_violation "equivalence" violations)

let test_dangling_scan_rejected () =
  let state = Core.State.initial [ q2_paper ] in
  let broken =
    Core.State.make ~views:state.Core.State.views
      ~rewritings:[ ("q2", Core.Rewriting.Scan "ghost") ]
  in
  let reference = Core.Invariant.reference_of_workload [ q2_paper ] in
  let violations = Core.Invariant.check reference broken in
  check_bool "dangling scan is a structure violation" true
    (has_violation "structure" violations);
  check_bool "dangling scan breaks unfolding" true
    (has_violation "rewriting" violations);
  (* an ill-formed state has no defined cost: with an estimator the
     same violations come back, and the cost check, which would fail on
     the unknown view, is not run *)
  check_int "the same violations with an estimator" (List.length violations)
    (List.length
       (Core.Invariant.check ~estimator:(estimator_for museum_store) reference
          broken))

(* A projection on a column the view lacks does not unfold: the column
   lookup's failure is the violation's detail.  An escaped violation
   prints its family and detail, not [Violation(_)]. *)
let test_unknown_column_named () =
  let state = Core.State.initial [ q2_paper ] in
  let scan = Core.Rewriting.Scan (Core.View.name (List.hd state.Core.State.views)) in
  let broken =
    Core.State.make ~views:state.Core.State.views
      ~rewritings:[ ("q2", Core.Rewriting.Project ([ "nope" ], scan)) ]
  in
  let violations =
    Core.Invariant.check (Core.Invariant.reference_of_workload [ q2_paper ]) broken
  in
  check_bool "the unfolding names the unknown column" true
    (List.exists
       (fun (viol : Core.Invariant.violation) ->
         String.equal viol.invariant "rewriting"
         && contains viol.detail "unknown column nope")
       violations);
  List.iter
    (fun (viol : Core.Invariant.violation) ->
      let printed = Printexc.to_string (Core.Invariant.Violation viol) in
      check_bool printed true
        (contains printed ("[" ^ viol.invariant ^ "]") && contains printed viol.detail))
    violations

let test_missing_rewriting_rejected () =
  let state = Core.State.initial [ q2_paper ] in
  let silenced = Core.State.make ~views:state.Core.State.views ~rewritings:[] in
  check_bool "missing rewriting is a coverage violation" true
    (has_violation "coverage"
       (Core.Invariant.check
          (Core.Invariant.reference_of_workload [ q2_paper ])
          silenced))

let test_negative_weights_flagged () =
  let estimator =
    Core.Cost.create
      (Stats.Statistics.create ~mode:Stats.Statistics.Plain museum_store)
      { Core.Cost.default_weights with c1 = -1.; c2 = -1. }
  in
  let state = Core.State.initial [ q1_paper ] in
  check_bool "negative REC estimate flagged" true
    (has_violation "cost" (Core.Invariant.check_costs estimator state))

(* ---------- state files --------------------------------------------------- *)

let test_state_file_round_trip () =
  let workload = [ q1_paper; q2_paper ] in
  let reference = Core.Invariant.reference_of_workload workload in
  let state = Core.State.initial workload in
  (* take a non-trivial state: one VB successor *)
  let successor =
    match Core.Transition.successors state Core.Transition.VB with
    | s :: _ -> s
    | [] -> Alcotest.fail "expected a VB successor"
  in
  let text = Core.State_io.states_to_text [ state; successor ] in
  match Core.State_io.parse_states text with
  | [ state'; successor' ] ->
    check_string "first state round-trips" (Core.State.key_string state)
      (Core.State.key_string state');
    check_string "second state round-trips"
      (Core.State.key_string successor)
      (Core.State.key_string successor');
    check_clean "reloaded state valid" (Core.Invariant.check reference state');
    check_clean "reloaded successor valid"
      (Core.Invariant.check reference successor')
  | states -> Alcotest.failf "expected 2 states, parsed %d" (List.length states)

let test_expr_round_trip () =
  let exprs =
    [
      Core.Rewriting.Scan "v1";
      Core.Rewriting.Select
        ( [
            Core.Rewriting.Eq_cst ("x", uri "ex:starryNight");
            Core.Rewriting.Eq_cst ("y", lit "mona");
            Core.Rewriting.Eq_col ("x", "y");
          ],
          Core.Rewriting.Scan "v1" );
      Core.Rewriting.Project
        ( [ "a"; "b" ],
          Core.Rewriting.Join
            ( [ ("a", "c") ],
              Core.Rewriting.Scan "v1",
              Core.Rewriting.Rename ([ ("d", "c") ], Core.Rewriting.Scan "v2") ) );
      Core.Rewriting.Union
        [ Core.Rewriting.Scan "v1"; Core.Rewriting.Scan "v2" ];
      Core.Rewriting.Join
        ([], Core.Rewriting.Scan "v1", Core.Rewriting.Scan "v2");
    ]
  in
  List.iter
    (fun e ->
      let text = Core.State_io.expr_to_text e in
      check_bool
        ("round-trip " ^ text)
        true
        (Core.Rewriting.equal e (Core.State_io.parse_expr text)))
    exprs

let test_corrupted_state_file_rejected () =
  Alcotest.check_raises "garbage line"
    (Core.State_io.Syntax_error
       "line 2: expected 'state', 'view ...' or 'rewrite ...'") (fun () ->
      ignore (Core.State_io.parse_states "state\nnot a directive\n"));
  match
    Core.State_io.parse_states
      "state\nview v9(?x) :- t(?x, <ex:p>, ?y).\nrewrite q1 := scan ghost\n"
  with
  | [ state ] ->
    let violations =
      Core.Invariant.check
        (Core.Invariant.reference_of_workload
           [ cq ~name:"q1" [ v "A" ] [ atom (v "A") (c "ex:p") (v "B") ] ])
        state
    in
    check_bool "reloaded corrupt state names the violated invariant" true
      (has_violation "structure" violations)
  | states -> Alcotest.failf "expected 1 state, parsed %d" (List.length states)

(* A view the View layer rejects is a syntax error on its own line, not
   a bare Invalid_argument with no position. *)
let test_rejected_view_names_line () =
  List.iter
    (fun (label, view) ->
      match Core.State_io.parse_states ("state\n" ^ view ^ "\n") with
      | exception Core.State_io.Syntax_error message ->
        check_bool (label ^ ": error names line 2") true
          (String.length message >= 7 && String.sub message 0 7 = "line 2:")
      | _ -> Alcotest.failf "%s view accepted" label)
    [
      ("disconnected", "view v1(?x, ?y) :- t(?x, <ex:p>, ?z), t(?y, <ex:q>, ?w).");
      ("duplicate head", "view v1(?x, ?x) :- t(?x, <ex:p>, ?y).");
      ("constant head", "view v1(?x, <ex:a>) :- t(?x, <ex:p>, <ex:a>).");
    ]

(* ---------- strict mode --------------------------------------------------- *)

let test_strict_mode_search () =
  Unix.putenv "RDFVIEWS_STRICT" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "RDFVIEWS_STRICT" "0")
    (fun () ->
      check_bool "strict enabled" true (Query.Evaluation.strict_enabled ());
      let estimator = estimator_for museum_store in
      let options =
        { Core.Search.default_options with max_states = Some 100 }
      in
      (* a valid search must pass all strict assertions *)
      let report =
        Core.Search.run_from estimator options
          (Core.State.initial [ q1_paper ])
      in
      check_bool "strict search explored states" true
        (report.Core.Search.explored > 0));
  check_bool "strict disabled again" false (Query.Evaluation.strict_enabled ())

(* Strict mode is read when a check is due, not latched by the first
   transition of the process: turned on after transitions ran with it
   off, it makes Transition check the states it produces.  The states
   here keep a view no rewriting uses, a structural violation. *)
let test_strict_mode_mid_process () =
  let state = Core.State.initial [ q1_paper ] in
  let broken =
    Core.State.make ~views:state.Core.State.views
      ~rewritings:[ ("q1", Core.Rewriting.Scan "ghost") ]
  in
  Unix.putenv "RDFVIEWS_STRICT" "0";
  check_bool "unchecked with strict mode off" true
    (Core.Transition.successors broken Core.Transition.SC <> []);
  Unix.putenv "RDFVIEWS_STRICT" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "RDFVIEWS_STRICT" "0")
    (fun () ->
      match Core.Transition.successors broken Core.Transition.SC with
      | _ -> Alcotest.fail "strict mode turned on late checked no successor"
      | exception Failure message ->
        check_bool "the check names the transition" true
          (String.starts_with ~prefix:"Transition.SC" message))

(* ---------- randomized ---------------------------------------------------- *)

let test_random_workloads_certified () =
  List.iter
    (fun seed ->
      let workload =
        Workload.Generator.generate
          {
            Workload.Generator.default_spec with
            Workload.Generator.n_queries = 2;
            atoms_per_query = 3;
            seed;
          }
      in
      let reference = Core.Invariant.reference_of_workload workload in
      let store = museum_store in
      let estimator = estimator_for store in
      let checked = ref 0 in
      let options =
        {
          Core.Search.default_options with
          max_states = Some 60;
          on_accept =
            Some
              (fun state ->
                incr checked;
                check_clean
                  (Printf.sprintf "seed %d accepted state" seed)
                  (Core.Invariant.check ~estimator reference state));
        }
      in
      ignore (Core.Search.run_from estimator options (Core.State.initial workload));
      check_bool "states were certified" true (!checked > 0))
    [ 0; 1; 2; 3 ]

let () =
  Alcotest.run "invariant"
    [
      ( "positive",
        [
          Alcotest.test_case "initial state certified" `Quick
            test_initial_state_certified;
          Alcotest.test_case "reference recovered from state" `Quick
            test_reference_recovered_from_state;
          Alcotest.test_case "single transitions certified" `Quick
            test_all_single_transitions_certified;
          Alcotest.test_case "search accepts only valid states" `Quick
            test_search_accepts_only_valid_states;
        ] );
      ( "negative",
        [
          Alcotest.test_case "swapped rewritings rejected" `Quick
            test_swapped_rewritings_rejected;
          Alcotest.test_case "extra atom = incomplete" `Quick
            test_view_with_extra_atom_incomplete;
          Alcotest.test_case "dropped selection = unsound" `Quick
            test_dropped_selection_unsound;
          Alcotest.test_case "dangling scan rejected" `Quick
            test_dangling_scan_rejected;
          Alcotest.test_case "unknown column named" `Quick
            test_unknown_column_named;
          Alcotest.test_case "missing rewriting rejected" `Quick
            test_missing_rewriting_rejected;
          Alcotest.test_case "negative weights flagged" `Quick
            test_negative_weights_flagged;
          Alcotest.test_case "edge not replayable" `Quick
            test_edge_not_replayable;
        ] );
      ( "state-io",
        [
          Alcotest.test_case "state file round trip" `Quick
            test_state_file_round_trip;
          Alcotest.test_case "expression round trip" `Quick
            test_expr_round_trip;
          Alcotest.test_case "corrupted file rejected" `Quick
            test_corrupted_state_file_rejected;
          Alcotest.test_case "rejected view names its line" `Quick
            test_rejected_view_names_line;
        ] );
      ( "strict",
        [
          Alcotest.test_case "strict search" `Quick test_strict_mode_search;
          Alcotest.test_case "strict mode turned on mid-process" `Quick
            test_strict_mode_mid_process;
        ] );
      ( "random",
        [
          Alcotest.test_case "random workloads certified" `Quick
            test_random_workloads_certified;
        ] );
    ]
