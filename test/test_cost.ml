open Support

let museum_store =
  store_of
    [
      triple (uri "ex:vanGogh") (uri "ex:hasPainted") (uri "ex:starryNight");
      triple (uri "ex:vanGogh") (uri "ex:isParentOf") (uri "ex:vincentJr");
      triple (uri "ex:vincentJr") (uri "ex:hasPainted") (uri "ex:sunflowers2");
      triple (uri "ex:monet") (uri "ex:hasPainted") (uri "ex:waterLilies");
    ]

let estimator ?(weights = Core.Cost.default_weights) () =
  Core.Cost.create (Stats.Statistics.create museum_store) weights

let one_atom_query =
  cq ~name:"q" [ v "X"; v "Y" ] [ atom (v "X") (c "ex:hasPainted") (v "Y") ]

let test_default_weights () =
  let w = Core.Cost.default_weights in
  check_bool "cs=1" true (w.Core.Cost.cs = 1.);
  check_bool "cr=1" true (w.Core.Cost.cr = 1.);
  check_bool "cm=0.5" true (w.Core.Cost.cm = 0.5);
  check_bool "f=2" true (w.Core.Cost.f = 2.)

let test_view_cardinality_exact_for_one_atom () =
  let est = estimator () in
  let s0 = Core.State.initial [ one_atom_query ] in
  match s0.Core.State.views with
  | [ view ] ->
    check_bool "three painted triples" true
      (Core.Cost.view_cardinality est view = 3.)
  | _ -> Alcotest.fail "expected one view"

let test_view_size_scales_with_width () =
  let est = estimator () in
  let narrow = Core.State.initial [ cq ~name:"n" [ v "X" ] [ atom (v "X") (c "ex:hasPainted") (v "Y") ] ] in
  let wide = Core.State.initial [ one_atom_query ] in
  let size state =
    match state.Core.State.views with
    | [ view ] -> Core.Cost.view_size est view
    | _ -> Alcotest.fail "one view expected"
  in
  check_bool "wider view occupies more" true (size wide > size narrow)

let test_vmc_formula () =
  let est = estimator () in
  let q3 =
    cq ~name:"q3" [ v "X" ]
      [
        atom (v "X") (c "ex:hasPainted") (v "Y");
        atom (v "X") (c "ex:isParentOf") (v "Z");
        atom (v "Z") (c "ex:hasPainted") (v "W");
      ]
  in
  let s = Core.State.initial [ q3 ] in
  (* single view of 3 atoms: VMC = f^3 = 8 *)
  check_bool "f^len" true (Core.Cost.vmc est s = 8.)

let test_vmc_respects_f () =
  let est = estimator ~weights:{ Core.Cost.default_weights with f = 3. } () in
  let s = Core.State.initial [ one_atom_query ] in
  check_bool "f^1 = 3" true (Core.Cost.vmc est s = 3.)

let test_rec_io_counts_scans () =
  let est = estimator () in
  let s = Core.State.initial [ one_atom_query ] in
  let _, r = List.hd s.Core.State.rewritings in
  let io, cpu = Core.Cost.rewriting_cost est s r in
  check_bool "io = |v|" true (io = 3.);
  check_bool "scan has no cpu" true (cpu = 0.)

let test_selection_costs_input () =
  let est = estimator () in
  let s0 = Core.State.initial [ cq ~name:"q" [ v "X" ] [ atom (v "X") (c "ex:hasPainted") (c "ex:starryNight") ] ] in
  (* SC relaxes the constant; the rewriting gains a selection *)
  match Core.Transition.successors s0 SC with
  | [] -> Alcotest.fail "expected SC successors"
  | s :: _ ->
    let _, r = List.hd s.Core.State.rewritings in
    let _, cpu = Core.Cost.rewriting_cost est s r in
    check_bool "selection cpu > 0" true (cpu > 0.)

let test_union_cost_sums () =
  let a = cq ~name:"a" [ v "X" ] [ atom (v "X") (c "ex:hasPainted") (v "Y") ] in
  let b = cq ~name:"b" [ v "X" ] [ atom (v "X") (c "ex:isParentOf") (v "Y") ] in
  let est = estimator () in
  let s =
    Core.State.initial_union [ ("q", [ a; b ]) ]
  in
  let _, r = List.hd s.Core.State.rewritings in
  let io, cpu = Core.Cost.rewriting_cost est s r in
  (* 3 hasPainted + 1 isParentOf... io sums branch scans *)
  check_bool "io sums branches" true (io >= 4.);
  check_bool "union dedup cpu" true (cpu > 0.)

let test_breakdown_consistent () =
  let est = estimator () in
  let s = Core.State.initial [ one_atom_query ] in
  let b = Core.Cost.breakdown est s in
  let w = Core.Cost.default_weights in
  let recombined =
    (w.Core.Cost.cs *. b.Core.Cost.vso_part)
    +. (w.Core.Cost.cr *. b.Core.Cost.rec_part)
    +. (w.Core.Cost.cm *. b.Core.Cost.vmc_part)
  in
  check_bool "total = weighted sum" true
    (Float.abs (b.Core.Cost.total -. recombined) < 1e-9);
  check_bool "state_cost agrees" true
    (Float.abs (Core.Cost.state_cost est s -. b.Core.Cost.total) < 1e-9)

let test_weights_change_total () =
  let s = Core.State.initial [ one_atom_query ] in
  let base = Core.Cost.state_cost (estimator ()) s in
  let heavy_storage =
    Core.Cost.state_cost
      (estimator ~weights:{ Core.Cost.default_weights with cs = 100. } ())
      s
  in
  check_bool "storage weight dominates" true (heavy_storage > base)

let prop_costs_nonnegative_finite =
  QCheck.Test.make ~name:"state costs are non-negative and finite" ~count:100
    QCheck.(pair arb_store (pair arb_cq arb_cq))
    (fun (store, (qa, qb)) ->
      let est =
        Core.Cost.create (Stats.Statistics.create store) Core.Cost.default_weights
      in
      let s =
        Core.State.initial [ Query.Cq.rename qa "qa"; Query.Cq.rename qb "qb" ]
      in
      let c = Core.Cost.state_cost est s in
      c >= 0. && Float.is_finite c)

let prop_cost_invariant_under_renaming =
  QCheck.Test.make
    ~name:"state cost is invariant under query variable renaming" ~count:100
    QCheck.(pair arb_store arb_cq)
    (fun (store, q) ->
      let est =
        Core.Cost.create (Stats.Statistics.create store) Core.Cost.default_weights
      in
      let c1 = Core.Cost.state_cost est (Core.State.initial [ Query.Cq.rename q "q" ]) in
      let renamed = Query.Cq.rename (Query.Cq.freshen q) "q" in
      let c2 = Core.Cost.state_cost est (Core.State.initial [ renamed ]) in
      Float.abs (c1 -. c2) < 1e-6 *. Float.max 1. c1)

let prop_fusion_closure_never_costlier =
  QCheck.Test.make ~name:"fusion closure never raises the cost" ~count:60
    QCheck.(pair arb_store arb_cq)
    (fun (store, q) ->
      let est =
        Core.Cost.create (Stats.Statistics.create store) Core.Cost.default_weights
      in
      let workload =
        [ Query.Cq.rename q "qa"; Query.Cq.rename (Query.Cq.freshen q) "qb" ]
      in
      let s = Core.State.initial workload in
      let collapsed = Core.Transition.fusion_closure s in
      Core.Cost.state_cost est collapsed
      <= Core.Cost.state_cost est s +. 1e-6)

let () =
  Alcotest.run "cost"
    [
      ( "components",
        [
          Alcotest.test_case "default weights" `Quick test_default_weights;
          Alcotest.test_case "1-atom cardinality exact" `Quick
            test_view_cardinality_exact_for_one_atom;
          Alcotest.test_case "size scales with width" `Quick
            test_view_size_scales_with_width;
          Alcotest.test_case "VMC = f^len" `Quick test_vmc_formula;
          Alcotest.test_case "VMC respects f" `Quick test_vmc_respects_f;
          Alcotest.test_case "REC io counts scans" `Quick test_rec_io_counts_scans;
          Alcotest.test_case "selection costs input" `Quick
            test_selection_costs_input;
          Alcotest.test_case "union cost sums" `Quick test_union_cost_sums;
          Alcotest.test_case "breakdown consistent" `Quick
            test_breakdown_consistent;
          Alcotest.test_case "weights change total" `Quick
            test_weights_change_total;
        ] );
      ( "properties",
        [
          to_alcotest prop_costs_nonnegative_finite;
          to_alcotest prop_cost_invariant_under_renaming;
          to_alcotest prop_fusion_closure_never_costlier;
        ] );
    ]
