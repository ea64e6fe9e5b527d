open Support

let q1_paper =
  cq ~name:"q1"
    [ v "X"; v "Z" ]
    [
      atom (v "X") (c "ex:hasPainted") (c "ex:starryNight");
      atom (v "X") (c "ex:isParentOf") (v "Y");
      atom (v "Y") (c "ex:hasPainted") (v "Z");
    ]

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

(* ---------- state graph -------------------------------------------------- *)

let test_join_edges () =
  let edges = Core.State_graph.join_edges q1_paper in
  (* X joins atoms 0-1 on s; Y joins atoms 1-2 (o,s) *)
  check_int "two join edges" 2 (List.length edges);
  let vars = List.map (fun (e : Core.State_graph.join_edge) -> e.var) edges in
  check_bool "X edge" true (List.mem "X" vars);
  check_bool "Y edge" true (List.mem "Y" vars)

let test_selection_edges () =
  let edges = Core.State_graph.selection_edges q1_paper in
  (* hasPainted ×2, isParentOf, starryNight *)
  check_int "four selection edges" 4 (List.length edges)

let test_connected_subsets () =
  let connected = Core.State_graph.subset_checker q1_paper in
  check_bool "0,1 connected" true (connected [ 0; 1 ]);
  check_bool "0,2 disconnected" false (connected [ 0; 2 ]);
  check_bool "all connected" true (connected [ 0; 1; 2 ])

let test_components_without_edge () =
  let edges = Core.State_graph.join_edges q1_paper in
  List.iter
    (fun e ->
      check_int
        ("cutting " ^ Core.State_graph.edge_to_string e)
        2
        (List.length (Core.State_graph.components_without_edge q1_paper e)))
    edges

let test_multi_edge_survives_cut () =
  (* two atoms sharing two variables: cutting one edge keeps them joined *)
  let q =
    cq [ v "X" ]
      [ atom (v "X") (c "ex:p") (v "Y"); atom (v "Y") (c "ex:q") (v "X") ]
  in
  let edges = Core.State_graph.join_edges q in
  check_int "two edges" 2 (List.length edges);
  List.iter
    (fun e ->
      check_int "still one component" 1
        (List.length (Core.State_graph.components_without_edge q e)))
    edges

(* ---------- states ------------------------------------------------------- *)

let test_initial_state () =
  let s = Core.State.initial [ q1_paper ] in
  check_int "one view" 1 (List.length s.Core.State.views);
  check_int "one rewriting" 1 (List.length s.Core.State.rewritings);
  check_bool "invariants" true (Core.State.invariants_hold s);
  match s.Core.State.rewritings with
  | [ (name, Core.Rewriting.Scan _) ] -> check_string "query name" "q1" name
  | _ -> Alcotest.fail "expected a single scan rewriting"

let test_state_key_stable () =
  let s1 = Core.State.initial [ q1_paper ] in
  let s2 = Core.State.initial [ q1_paper ] in
  check_string "same key despite fresh names" (Core.State.key_string s1)
    (Core.State.key_string s2)

let test_duplicate_query_names_rejected () =
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "State.initial: duplicate query names") (fun () ->
      ignore (Core.State.initial [ q1_paper; q1_paper ]))

(* ---------- executing rewritings after transitions ----------------------- *)

let answers_direct store q = Query.Evaluation.eval_cq store q

let answers_via_views store state qname =
  let env = Engine.Materialize.materialize_state store state in
  let rewriting = List.assoc qname state.Core.State.rewritings in
  Engine.Executor.execute_query store env rewriting

let check_state_equivalent store workload state =
  check_bool "invariants hold" true (Core.State.invariants_hold state);
  List.iter
    (fun q ->
      let direct = answers_direct store q in
      let via = answers_via_views store state q.Query.Cq.name in
      if not (same_answers direct via) then
        Alcotest.failf "rewriting of %s diverges:\nstate: %s" q.Query.Cq.name
          (Core.State.to_string state))
    workload

let test_sc_preserves_answers () =
  let s0 = Core.State.initial [ q1_paper ] in
  let cuts = Core.Transition.successors s0 SC in
  check_int "one SC per selection edge" 4 (List.length cuts);
  List.iter (check_state_equivalent museum_store [ q1_paper ]) cuts

let test_sc_grows_head () =
  let s0 = Core.State.initial [ q1_paper ] in
  List.iter
    (fun s ->
      match s.Core.State.views with
      | [ view ] ->
        check_int "arity + 1" 3 (List.length (Core.View.head view));
        check_int "constants - 1" 3 (Query.Cq.constant_count view.Core.View.cq)
      | _ -> Alcotest.fail "expected one view")
    (Core.Transition.successors s0 SC)

let test_jc_cases () =
  let s0 = Core.State.initial [ q1_paper ] in
  let cuts = Core.Transition.successors s0 JC in
  (* each of the two edges is a bridge: split case only, one state each *)
  check_int "two JC states" 2 (List.length cuts);
  List.iter
    (fun s -> check_int "two views after split" 2 (List.length s.Core.State.views))
    cuts;
  List.iter (check_state_equivalent museum_store [ q1_paper ]) cuts

let test_jc_connected_case () =
  (* triangle: every edge cut leaves the graph connected *)
  let tri =
    cq ~name:"tri" [ v "X" ]
      [
        atom (v "X") (c "ex:p") (v "Y");
        atom (v "Y") (c "ex:p") (v "Z");
        atom (v "Z") (c "ex:p") (v "X");
      ]
  in
  let store =
    store_of
      [
        triple (uri "a") (uri "ex:p") (uri "b");
        triple (uri "b") (uri "ex:p") (uri "c");
        triple (uri "c") (uri "ex:p") (uri "a");
        triple (uri "b") (uri "ex:p") (uri "a");
      ]
  in
  let s0 = Core.State.initial [ tri ] in
  let cuts = Core.Transition.successors s0 JC in
  (* 3 edges × 2 orientations *)
  check_int "six JC states" 6 (List.length cuts);
  List.iter
    (fun s -> check_int "one view" 1 (List.length s.Core.State.views))
    cuts;
  List.iter (check_state_equivalent store [ tri ]) cuts

let test_vb_counts_and_answers () =
  let s0 = Core.State.initial [ q1_paper ] in
  let breaks = Core.Transition.successors s0 VB in
  check_bool "some breaks exist" true (List.length breaks > 0);
  List.iter
    (fun s -> check_int "two views" 2 (List.length s.Core.State.views))
    breaks;
  List.iter (check_state_equivalent museum_store [ q1_paper ]) breaks

let test_vb_requires_three_atoms () =
  let two =
    cq ~name:"two" [ v "X" ]
      [ atom (v "X") (c "ex:p") (v "Y"); atom (v "Y") (c "ex:q") (c "ex:k") ]
  in
  let s0 = Core.State.initial [ two ] in
  check_int "no VB on 2 atoms" 0 (List.length (Core.Transition.successors s0 VB))

let test_vf_on_isomorphic_views () =
  (* two identical queries under renaming: initial views fuse *)
  let qa = cq ~name:"qa" [ v "X" ] [ atom (v "X") (c "ex:p") (c "ex:k") ] in
  let qb = cq ~name:"qb" [ v "A" ] [ atom (v "A") (c "ex:p") (c "ex:k") ] in
  let store =
    store_of
      [ triple (uri "s1") (uri "ex:p") (uri "ex:k");
        triple (uri "s2") (uri "ex:p") (uri "ex:m") ]
  in
  let s0 = Core.State.initial [ qa; qb ] in
  let fusions = Core.Transition.successors s0 VF in
  check_int "one fusion" 1 (List.length fusions);
  let fused = List.hd fusions in
  check_int "one view left" 1 (List.length fused.Core.State.views);
  check_state_equivalent store [ qa; qb ] fused;
  (* fusion_closure reaches the same state *)
  let closed = Core.Transition.fusion_closure s0 in
  check_string "closure = fusion" (Core.State.key_string fused)
    (Core.State.key_string closed)

let test_vf_head_union () =
  (* same body, different heads: fused view exports both *)
  let qa = cq ~name:"qa" [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  let qb = cq ~name:"qb" [ v "B" ] [ atom (v "A") (c "ex:p") (v "B") ] in
  let store =
    store_of [ triple (uri "s1") (uri "ex:p") (uri "o1") ]
  in
  let s0 = Core.State.initial [ qa; qb ] in
  let fusions = Core.Transition.successors s0 VF in
  check_int "one fusion" 1 (List.length fusions);
  let fused = List.hd fusions in
  (match fused.Core.State.views with
  | [ view ] -> check_int "two head vars" 2 (List.length (Core.View.head view))
  | _ -> Alcotest.fail "expected one view");
  check_state_equivalent store [ qa; qb ] fused

(* ---------- figure 1 sequence ------------------------------------------- *)

let test_figure1_sequence () =
  (* S0 --VB--> S1 --SC--> S2 --JC--> ... --VF--> S4-like states, checking
     answer preservation at every step *)
  let workload = [ q1_paper ] in
  let state = ref (Core.State.initial workload) in
  let pick kind =
    match Core.Transition.successors !state kind with
    | s :: _ ->
      state := s;
      check_state_equivalent museum_store workload s
    | [] -> Alcotest.failf "no %s successor" (Core.Transition.kind_name kind)
  in
  pick VB;
  pick SC;
  pick JC;
  check_bool "invariants at the end" true (Core.State.invariants_hold !state)

(* ---------- random-walk equivalence (the big one) ------------------------ *)

let prop_random_walk_preserves_answers =
  QCheck.Test.make
    ~name:"random transition walks preserve query answers via materialization"
    ~count:60
    QCheck.(
      triple arb_store (pair arb_cq arb_cq) (list_of_size (Gen.return 5) small_nat))
    (fun (store, (qa, qb), choices) ->
      let qa = Query.Cq.rename qa "qa" in
      let qb = Query.Cq.rename qb "qb" in
      let workload = [ qa; qb ] in
      let state = ref (Core.State.initial workload) in
      let ok = ref true in
      List.iteri
        (fun i choice ->
          let kind =
            List.nth Core.Transition.all_kinds (i mod 4)
          in
          match Core.Transition.successors !state kind with
          | [] -> ()
          | succs -> state := List.nth succs (choice mod List.length succs))
        choices;
      let env = Engine.Materialize.materialize_state store !state in
      List.iter
        (fun q ->
          let direct = answers_direct store q in
          let via =
            Engine.Executor.execute_query store env
              (List.assoc q.Query.Cq.name !state.Core.State.rewritings)
          in
          if not (same_answers direct via) then ok := false)
        workload;
      !ok && Core.State.invariants_hold !state)

(* ---------- cost monotonicity -------------------------------------------- *)

let estimator_for store =
  let stats = Stats.Statistics.create store in
  Core.Cost.create stats Core.Cost.default_weights

(* ---------- admission without rework ------------------------------------ *)

(* Every state of a random walk from S0, S0 included. *)
let walk_states workload choices =
  let rec go state acc = function
    | [] -> List.rev (state :: acc)
    | (k, choice) :: rest -> (
      let kind = List.nth Core.Transition.all_kinds (k mod 4) in
      match Core.Transition.successors state kind with
      | [] -> go state acc rest
      | succs ->
        go (List.nth succs (choice mod List.length succs)) (state :: acc) rest)
  in
  go (Core.State.initial workload) [] choices

(* Every state along a random walk, materialized, answers each query
   through its rewriting as the Reference evaluator answers the query
   itself, so the executor's selections, joins, projections and renames
   are checked on real rewritings.  A union of two rewritings answers
   the union of the two queries: qa with qb when their arities agree,
   and always qa with qc, a renaming of qa. *)
let prop_walk_executor_reference =
  QCheck.Test.make ~name:"walk states answer through views = Reference" ~count:40
    QCheck.(
      triple arb_store (pair arb_cq arb_cq)
        (list_of_size (Gen.int_range 0 8) (pair small_nat small_nat)))
    (fun (store, (qa, qb), choices) ->
      let qa = Query.Cq.rename qa "qa" and qb = Query.Cq.rename qb "qb" in
      let workload = [ qa; qb; Query.Cq.rename (Query.Cq.freshen qa) "qc" ] in
      let answers q = Query.Evaluation.Reference.eval_cq store q in
      let agrees env rewriting expected =
        same_answers (Engine.Executor.execute_query store env rewriting) expected
      in
      List.for_all
        (fun (s : Core.State.t) ->
          let env = Engine.Materialize.materialize_state store s in
          let rewriting name = List.assoc name s.rewritings in
          let union a b = Core.Rewriting.Union [ rewriting a; rewriting b ] in
          List.for_all (fun q -> agrees env (rewriting q.Query.Cq.name) (answers q)) workload
          && agrees env (union "qa" "qc") (answers qa)
          && (Query.Cq.arity qa <> Query.Cq.arity qb
             || agrees env (union "qa" "qb") (List.sort_uniq compare (answers qa @ answers qb))))
        (walk_states workload choices))

(* ---------- per-view memos ---------------------------------------------- *)

let fusable_a = cq ~name:"qa" [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ]
let fusable_b = cq ~name:"qb" [ v "B" ] [ atom (v "A") (c "ex:p") (v "B") ]

let added (parent : Core.State.t) (s : Core.State.t) =
  List.filter (fun u -> not (List.memq u parent.views)) s.views

(* The states that hold every view of [views]. *)
let keeping views states =
  List.filter
    (fun (s : Core.State.t) ->
      List.for_all (fun u -> List.memq u s.views) views)
    states

let test_vf_pair_shared_across_parents () =
  (* qd does not fuse; each of its two selection cuts is a parent that
     keeps the views of qa and qb *)
  let qd = cq ~name:"qd" [ v "X" ] [ atom (v "X") (c "ex:q") (c "ex:k") ] in
  let s0 = Core.State.initial [ fusable_a; fusable_b; qd ] in
  let pair = List.filteri (fun i _ -> i < 2) s0.Core.State.views in
  let parents = keeping pair (Core.Transition.successors s0 SC) in
  check_int "two parents keep the pair" 2 (List.length parents);
  let fused_in parent =
    let collapsed = Core.Transition.fusion_closure parent in
    ignore (Core.State.key collapsed : Core.State.key);
    match added parent collapsed with
    | [ view ] -> view
    | _ -> Alcotest.fail "expected one fused view"
  in
  match parents with
  | [ first; second ] ->
    let view = fused_in first in
    ignore (Core.State.key second : Core.State.key);
    check_int "one fused view object" view.Core.View.id
      (fused_in second).Core.View.id
  | _ -> assert false

(* A 4-atom view with a disconnected VB split ({0,3}) and a join-cut
   orientation that strands atoms 2-3 (Y in atom 2), so both kinds
   reject; qd's view does not touch it. *)
let test_actions_derived_once () =
  let qv =
    cq ~name:"qv" [ v "X"; v "W" ]
      [
        atom (v "X") (c "ex:p") (v "Y");
        atom (v "X") (c "ex:q") (v "Y");
        atom (v "Y") (c "ex:r") (v "Z");
        atom (v "Z") (c "ex:s") (v "W");
      ]
  in
  let qd = cq ~name:"qd" [ v "X" ] [ atom (v "X") (c "ex:q") (c "ex:k") ] in
  let s0 = Core.State.initial [ qv; qd ] in
  let victim = List.hd s0.Core.State.views in
  let parents = keeping [ victim ] (Core.Transition.successors s0 SC) in
  check_int "two parents keep the victim" 2 (List.length parents);
  (* Per kind: the ids of the views replacing the victim, and the
     candidates rejected on the way *)
  let apply parent =
    List.map
      (fun kind ->
        let { Core.Transition.successors; rejected; _ } =
          Core.Transition.successors_with_delta
            ~strict:(Query.Evaluation.strict_enabled ())
            parent kind
        in
        ( List.map fst successors
          |> List.filter (fun s -> keeping [ victim ] [ s ] = [])
          |> List.concat_map (added parent)
          |> List.map (fun u -> u.Core.View.id),
          rejected ))
      [ Core.Transition.VB; SC; JC ]
  in
  match parents with
  | [ first; second ] ->
    let once = apply first in
    List.iter
      (fun (ids, _) -> check_bool "the victim has actions" true (ids <> []))
      once;
    (match List.map snd once with
    | [ vb; sc; jc ] ->
      check_bool "VB and JC reject" true (vb > 0 && jc > 0);
      check_int "SC rejects nothing" 0 sc
    | _ -> assert false);
    let again = apply second in
    check_bool "same replacement views" true
      (List.map fst once = List.map fst again);
    check_bool "rejections not tallied again" true
      (List.for_all (fun (_, rejected) -> rejected = 0) again)
  | _ -> assert false

let test_vf_each_pair_own_fusion () =
  (* qc keeps the subject where qb keeps the object: fusing qa's view
     with either must answer that query, not the other *)
  let qc = cq ~name:"qc" [ v "A" ] [ atom (v "A") (c "ex:p") (v "B") ] in
  let workload = [ fusable_a; fusable_b; qc ] in
  let store =
    store_of
      [ triple (uri "s1") (uri "ex:p") (uri "o1");
        triple (uri "s2") (uri "ex:p") (uri "o2") ]
  in
  let s0 = Core.State.initial workload in
  let fusions = Core.Transition.successors s0 VF in
  check_int "every pair fuses" 3 (List.length fusions);
  List.iter (check_state_equivalent store workload) fusions;
  let fused = List.concat_map (added s0) fusions in
  check_int "three fused views" 3
    (List.length
       (List.sort_uniq Int.compare
          (List.map (fun u -> u.Core.View.id) fused)))

let test_vf_distinct_constants_never_pair () =
  (* The literal "k" and a URI spelled with quotes print alike, but
     their keys differ: the two bodies get distinct body ids, so the
     pair is never tried, and VF neither fuses nor rejects anything. *)
  let qa = cq ~name:"qa" [ v "X" ] [ atom (v "X") (c "ex:p") (cl "k") ] in
  let qb = cq ~name:"qb" [ v "Y" ] [ atom (v "Y") (c "ex:p") (c "\"k\"") ] in
  let qd = cq ~name:"qd" [ v "X" ] [ atom (v "X") (c "ex:q") (c "ex:k") ] in
  let s0 = Core.State.initial [ qa; qb; qd ] in
  let pair = List.filteri (fun i _ -> i < 2) s0.Core.State.views in
  (match pair with
  | [ va; vb ] ->
    check_bool "distinct body ids" true
      (Core.View.body_id va <> Core.View.body_id vb)
  | _ -> Alcotest.fail "expected three views");
  let parents = s0 :: keeping pair (Core.Transition.successors s0 SC) in
  check_int "three parents hold the pair" 3 (List.length parents);
  List.iter
    (fun s ->
      let { Core.Transition.successors; pruned; rejected } =
        Core.Transition.successors_with_delta ~strict:false s VF
      in
      check_int "no fusion" 0 (List.length successors + pruned);
      check_int "no rejection" 0 rejected;
      check_bool "closure leaves the state" true
        (Core.Transition.fusion_closure s == s))
    parents

(* qa and qb are renamings of one query, so their views fuse, and so do
   many of their descendants; the states along a walk share views, so
   the same pairs come up in many parents. *)
let prop_collapse_well_formed =
  QCheck.Test.make
    ~name:"collapsed successors along a walk are well formed" ~count:60
    QCheck.(
      pair (pair arb_cq arb_cq)
        (list_of_size (Gen.int_range 0 8) (pair small_nat small_nat)))
    (fun ((q, qc), choices) ->
      let workload =
        [ Query.Cq.rename q "qa";
          Query.Cq.rename (Query.Cq.freshen q) "qb";
          Query.Cq.rename qc "qc" ]
      in
      List.for_all
        (fun s ->
          List.for_all
            (fun kind ->
              List.for_all
                (fun succ ->
                  Core.State.structural_violations
                    (Core.Transition.fusion_closure succ)
                  = [])
                (Core.Transition.successors s kind))
            Core.Transition.all_kinds)
        (walk_states workload choices))

let stop_settings =
  List.concat_map
    (fun stop_tt ->
      List.map
        (fun stop_var -> { Core.Search.default_options with stop_tt; stop_var })
        [ false; true ])
    [ false; true ]

let keys states =
  List.map (fun (s, _) -> Core.State.key_string s) states

(* The views in state order, each by its canonical form *)
let view_forms s = List.map Core.View.form_id s.Core.State.views

let prop_admission_without_rework =
  QCheck.Test.make
    ~name:"pruning and fresh-view fusion agree with building everything"
    ~count:60
    QCheck.(
      pair (pair arb_cq arb_cq)
        (list_of_size (Gen.int_range 0 8) (pair small_nat small_nat)))
    (fun ((qa, qb), choices) ->
      let workload = [ Query.Cq.rename qa "qa"; Query.Cq.rename qb "qb" ] in
      List.for_all
        (fun s ->
          (* the AVF collapse never changes a stop verdict *)
          List.for_all
            (fun options ->
              Core.Search.violates_stop options
                (Core.Transition.fusion_closure s)
              = Core.Search.violates_stop options s)
            stop_settings
          (* the verdict read off the parent is that of the built
             successor, action by action *)
          && List.for_all
               (fun kind ->
                 let { Core.Transition.successors = all; pruned = none_pruned; _ } =
                   Core.Transition.successors_with_delta ~strict:false s kind
                 in
                 none_pruned = 0
                 && List.for_all
                      (fun options ->
                        let stop = Core.Search.stop_test options in
                        let { Core.Transition.successors = kept; pruned; _ } =
                          Core.Transition.successors_with_delta ?stop
                            ~strict:false s kind
                        in
                        let passing =
                          List.filter
                            (fun (succ, _) ->
                              not (Core.Search.violates_stop options succ))
                            all
                        in
                        pruned = List.length all - List.length passing
                        && keys kept = keys passing)
                      stop_settings)
               Core.Transition.all_kinds
          (* from a fusion-closed state, fusing only the views a
             transition added reaches the full closure, fusion for
             fusion *)
          &&
          let closed = Core.Transition.fusion_closure s in
          List.for_all
            (fun kind ->
              List.for_all
                (fun (succ, delta) ->
                  let fresh =
                    List.length delta.Core.Delta.views_added
                  in
                  let partial, _ =
                    Core.Transition.fusion_closure_delta ~fresh succ
                  in
                  let full = Core.Transition.fusion_closure succ in
                  Core.State.equal_key (Core.State.key partial)
                    (Core.State.key full)
                  && view_forms partial = view_forms full)
                (Core.Transition.successors_with_delta ~strict:false closed
                   kind)
                  .successors)
            Core.Transition.all_kinds)
        (walk_states workload choices))

(* The facts the search reads off every state, against their
   definitions: the key against the sorted high halves of the view ids,
   hashed the same way, and the sum of their low halves; each view's
   constant count against its query's; and, under AVF, the body ids of
   a collapsed state: all distinct, which is why the search skips the
   VF stratum of a state it expands.  The collapsed states
   are the fusion closure of each walk state and its successors
   collapsed on their fresh views alone, as the search collapses
   them. *)
let reference_key (s : Core.State.t) =
  let ids = List.map Core.View.form_id s.views in
  let his = List.sort Int.compare (List.map (fun (f : Core.View.form_id) -> f.hi) ids) in
  let lo = List.fold_left (fun acc (f : Core.View.form_id) -> acc + f.lo) 0 ids in
  ( String.concat "." (List.map (Printf.sprintf "%016x") his)
    ^ Printf.sprintf "/%016x" lo,
    List.fold_left
      (fun h hi -> (h lxor hi) * 0x01000193 land max_int)
      0x811c9dc5 his )

let facts_hold (s : Core.State.t) =
  let key = Core.State.key s in
  (Core.State.key_to_string key, Core.State.hash_key key) = reference_key s
  && List.for_all
       (fun (u : Core.View.t) ->
         u.constants = Query.Cq.constant_count u.cq)
       s.views

let body_ids_distinct (s : Core.State.t) =
  let ids = List.map Core.View.body_id s.views in
  List.length (List.sort_uniq Core.View.compare_form_id ids) = List.length ids

let prop_state_facts =
  QCheck.Test.make
    ~name:"keys, constant counts and collapsed body ids = their definitions"
    ~count:60
    QCheck.(
      pair (pair arb_cq arb_cq)
        (list_of_size (Gen.int_range 0 8) (pair small_nat small_nat)))
    (fun ((q, qc), choices) ->
      let workload =
        [ Query.Cq.rename q "qa";
          Query.Cq.rename (Query.Cq.freshen q) "qb";
          Query.Cq.rename qc "qc" ]
      in
      let collapsed_holds s = facts_hold s && body_ids_distinct s in
      List.for_all
        (fun s ->
          let closed = Core.Transition.fusion_closure s in
          facts_hold s && collapsed_holds closed
          && List.for_all
               (fun kind ->
                 List.for_all
                   (fun (succ, delta) ->
                     let fresh = List.length delta.Core.Delta.views_added in
                     facts_hold succ
                     && collapsed_holds
                          (fst
                             (Core.Transition.fusion_closure_delta ~fresh succ)))
                   (Core.Transition.successors_with_delta ~strict:false
                      closed kind)
                     .successors)
               Core.Transition.all_kinds)
        (walk_states workload choices))

let test_sc_increases_cost () =
  let est = estimator_for museum_store in
  let s0 = Core.State.initial [ q1_paper ] in
  let c0 = Core.Cost.state_cost est s0 in
  List.iter
    (fun s ->
      check_bool "SC does not decrease cost" true
        (Core.Cost.state_cost est s >= c0))
    (Core.Transition.successors s0 SC)

let test_vf_decreases_cost () =
  let qa = cq ~name:"qa" [ v "X" ] [ atom (v "X") (c "ex:hasPainted") (v "Y") ] in
  let qb = cq ~name:"qb" [ v "A" ] [ atom (v "A") (c "ex:hasPainted") (v "B") ] in
  let est = estimator_for museum_store in
  let s0 = Core.State.initial [ qa; qb ] in
  let c0 = Core.Cost.state_cost est s0 in
  List.iter
    (fun s ->
      check_bool "VF does not increase cost" true
        (Core.Cost.state_cost est s <= c0))
    (Core.Transition.successors s0 VF)

(* For single-atom views the claim of §3.3 ("SC always increases the
   state cost") is provable: the relaxed pattern count is exactly
   monotone, the head widens and a selection is added.  For multi-atom
   views the System-R independence estimator is only generically
   monotone: relaxing a property constant switches the per-position
   distinct estimates from per-property to global statistics, which can
   make join selectivities shrink faster than the atom count grows.  The
   exact claim is exercised on single-atom views here and on a concrete
   multi-atom example in [test_sc_increases_cost]. *)
let prop_sc_never_decreases =
  QCheck.Test.make ~name:"SC never decreases the cost of 1-atom views"
    ~count:80
    QCheck.(pair arb_store arb_cq)
    (fun (store, q) ->
      let single =
        Query.Cq.make ~name:"q"
          ~head:(List.map (fun x -> Query.Qterm.Var x)
                   (Query.Atom.var_set (List.hd q.Query.Cq.body)))
          ~body:[ List.hd q.Query.Cq.body ]
      in
      let est = estimator_for store in
      let s0 = Core.State.initial [ single ] in
      let c0 = Core.Cost.state_cost est s0 in
      List.for_all
        (fun s -> Core.Cost.state_cost est s >= c0 -. 1e-6)
        (Core.Transition.successors s0 SC))

let prop_vf_never_increases =
  QCheck.Test.make ~name:"VF never increases the state cost" ~count:50
    QCheck.(pair arb_store arb_cq)
    (fun (store, q) ->
      let est = estimator_for store in
      let qa = Query.Cq.rename q "qa" in
      let qb = Query.Cq.rename (Query.Cq.freshen q) "qb" in
      let s0 = Core.State.initial [ qa; qb ] in
      let c0 = Core.Cost.state_cost est s0 in
      List.for_all
        (fun s -> Core.Cost.state_cost est s <= c0 +. 1e-6)
        (Core.Transition.successors s0 VF))

let () =
  Alcotest.run "transitions"
    [
      ( "state-graph",
        [
          Alcotest.test_case "join edges" `Quick test_join_edges;
          Alcotest.test_case "selection edges" `Quick test_selection_edges;
          Alcotest.test_case "connected subsets" `Quick test_connected_subsets;
          Alcotest.test_case "bridge cuts split" `Quick
            test_components_without_edge;
          Alcotest.test_case "multi-edges survive" `Quick
            test_multi_edge_survives_cut;
        ] );
      ( "state",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "key stability" `Quick test_state_key_stable;
          Alcotest.test_case "duplicate names rejected" `Quick
            test_duplicate_query_names_rejected;
        ] );
      ( "transitions",
        [
          Alcotest.test_case "SC preserves answers" `Quick
            test_sc_preserves_answers;
          Alcotest.test_case "SC grows the head" `Quick test_sc_grows_head;
          Alcotest.test_case "JC split case" `Quick test_jc_cases;
          Alcotest.test_case "JC connected case" `Quick test_jc_connected_case;
          Alcotest.test_case "VB preserves answers" `Quick
            test_vb_counts_and_answers;
          Alcotest.test_case "VB needs ≥3 atoms" `Quick
            test_vb_requires_three_atoms;
          Alcotest.test_case "VF fuses isomorphic views" `Quick
            test_vf_on_isomorphic_views;
          Alcotest.test_case "VF head union" `Quick test_vf_head_union;
          Alcotest.test_case "figure 1 sequence" `Quick test_figure1_sequence;
          Alcotest.test_case "actions are derived once per view" `Quick
            test_actions_derived_once;
          to_alcotest prop_random_walk_preserves_answers;
          to_alcotest prop_walk_executor_reference;
        ] );
      ( "admission",
        [
          to_alcotest prop_admission_without_rework;
          to_alcotest prop_state_facts;
        ] );
      ( "vf-cache",
        [
          Alcotest.test_case "a pair fuses once across parents" `Quick
            test_vf_pair_shared_across_parents;
          Alcotest.test_case "each pair has its own fusion" `Quick
            test_vf_each_pair_own_fusion;
          Alcotest.test_case "distinct constants never pair" `Quick
            test_vf_distinct_constants_never_pair;
          to_alcotest prop_collapse_well_formed;
        ] );
      ( "cost",
        [
          Alcotest.test_case "SC increases cost" `Quick test_sc_increases_cost;
          Alcotest.test_case "VF decreases cost" `Quick test_vf_decreases_cost;
          to_alcotest prop_sc_never_decreases;
          to_alcotest prop_vf_never_increases;
        ] );
    ]
