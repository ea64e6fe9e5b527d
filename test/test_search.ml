open Support

(* The Figure 3 workload: q(Y,Z) :- t(X,Y,c1), t(X,Z,c2). *)
let fig3_query =
  cq ~name:"q"
    [ v "Y"; v "Z" ]
    [ atom (v "X") (v "Y") (c "ex:c1"); atom (v "X") (v "Z") (c "ex:c2") ]

let fig3_store =
  store_of
    [
      triple (uri "s1") (uri "p1") (uri "ex:c1");
      triple (uri "s1") (uri "p2") (uri "ex:c2");
      triple (uri "s2") (uri "p1") (uri "ex:c1");
      triple (uri "s2") (uri "p1") (uri "ex:c2");
      triple (uri "s3") (uri "p3") (uri "other");
    ]

let stats_for store = Stats.Statistics.create store

let options_exhaustive strategy =
  {
    Core.Search.default_options with
    strategy;
    avf = false;
    stop_tt = false;
    stop_var = false;
  }

(* ---------- Figure 3: the full space has exactly 9 states ---------------- *)

let test_fig3_space_size () =
  let report =
    Core.Search.run (stats_for fig3_store)
      (options_exhaustive Core.Search.Exnaive)
      [ fig3_query ]
  in
  (* S0 is not "created" by a transition; S1..S8 are *)
  check_bool "completed" true report.Core.Search.completed;
  check_int "eight states reached from S0" 8
    (report.Core.Search.created - report.Core.Search.duplicates);
  check_int "all nine explored" 9 report.Core.Search.explored

let test_fig3_same_space_all_strategies () =
  let run strategy =
    Core.Search.run (stats_for fig3_store) (options_exhaustive strategy)
      [ fig3_query ]
  in
  let exnaive = run Core.Search.Exnaive in
  let exstr = run Core.Search.Exstr in
  let dfs = run Core.Search.Dfs in
  check_bool "exstr finds the same best cost" true
    (abs_float (exstr.Core.Search.best_cost -. exnaive.Core.Search.best_cost)
    < 1e-6);
  check_bool "dfs finds the same best cost" true
    (abs_float (dfs.Core.Search.best_cost -. exnaive.Core.Search.best_cost)
    < 1e-6);
  (* stratified strategies reach every state too (Theorem 5.2/5.3) *)
  check_int "exstr explores all states" exnaive.Core.Search.explored
    exstr.Core.Search.explored;
  check_int "dfs explores all states" exnaive.Core.Search.explored
    dfs.Core.Search.explored

let test_fig3_stratified_no_more_transitions () =
  (* Theorem 5.3 (ii): EXSTR applies at most as many transitions *)
  let exnaive =
    Core.Search.run (stats_for fig3_store)
      (options_exhaustive Core.Search.Exnaive)
      [ fig3_query ]
  in
  let exstr =
    Core.Search.run (stats_for fig3_store)
      (options_exhaustive Core.Search.Exstr)
      [ fig3_query ]
  in
  check_bool "created(EXSTR) ≤ created(EXNAIVE)" true
    (exstr.Core.Search.created <= exnaive.Core.Search.created)

let test_two_query_space_agreement () =
  (* a two-query workload with fusion opportunities: all exhaustive
     strategies must reach the same state set and best cost *)
  let qa =
    cq ~name:"qa" [ v "X" ]
      [ atom (v "X") (v "P") (c "ex:c1") ]
  in
  let qb =
    cq ~name:"qb" [ v "Y" ]
      [ atom (v "Y") (v "Q") (c "ex:c1") ]
  in
  let run strategy =
    Core.Search.run (stats_for fig3_store) (options_exhaustive strategy)
      [ qa; qb ]
  in
  let exnaive = run Core.Search.Exnaive in
  let exstr = run Core.Search.Exstr in
  let dfs = run Core.Search.Dfs in
  check_bool "all complete" true
    (exnaive.Core.Search.completed && exstr.Core.Search.completed
    && dfs.Core.Search.completed);
  check_int "exstr same states" exnaive.Core.Search.explored
    exstr.Core.Search.explored;
  check_int "dfs same states" exnaive.Core.Search.explored
    dfs.Core.Search.explored;
  check_bool "same best" true
    (Float.abs (exstr.Core.Search.best_cost -. exnaive.Core.Search.best_cost)
     < 1e-6
    && Float.abs (dfs.Core.Search.best_cost -. exnaive.Core.Search.best_cost)
       < 1e-6);
  (* the identical-shape views must have been fused somewhere: the best
     state has a single view *)
  check_int "fused best state" 1
    (List.length exnaive.Core.Search.best.Core.State.views)

(* The order in which one domain accepts the Figure 3 states.  The
   fixture was captured once from the dedicated one-domain worklist that
   the work-stealing loop replaced (a list for DFS, a queue for EXSTR
   and EXNAIVE); the loop at [~jobs:1] must reproduce it exactly.  A
   state is named by its key; a fixture view is spelled as a query, and
   its id is equal to a state view's exactly when the two are renamings
   of one another, whatever the order of their head columns. *)
let fig3_view head body = Core.View.make (cq head body)

let fig3_state views =
  Core.State.key_string (Core.State.make ~views ~rewritings:[])

let fig3_orders () =
  let both =
    fig3_view [ v "Y1"; v "Y2" ]
      [ atom (v "X") (v "Y1") (c "ex:c1"); atom (v "X") (v "Y2") (c "ex:c2") ]
  in
  let cut kept =
    fig3_view [ v "Y1"; v "Z"; v "Y2" ]
      [ atom (v "X") (v "Y1") (v "Z"); atom (v "X") (v "Y2") (c kept) ]
  in
  let opened =
    fig3_view [ v "Y1"; v "Z1"; v "Y2"; v "Z2" ]
      [ atom (v "X") (v "Y1") (v "Z1"); atom (v "X") (v "Y2") (v "Z2") ]
  in
  let one cst = fig3_view [ v "X"; v "Y" ] [ atom (v "X") (v "Y") (c cst) ] in
  let all = fig3_view [ v "X"; v "Y"; v "Z" ] [ atom (v "X") (v "Y") (v "Z") ] in
  let s0 = fig3_state [ both ] in
  let s1 = fig3_state [ cut "ex:c2" ] in
  let s2 = fig3_state [ cut "ex:c1" ] in
  let s3 = fig3_state [ one "ex:c1"; one "ex:c2" ] in
  let s4 = fig3_state [ opened ] in
  let s5 = fig3_state [ all; one "ex:c2" ] in
  let s6 = fig3_state [ all; all ] in
  let s7 = fig3_state [ all ] in
  let s8 = fig3_state [ all; one "ex:c1" ] in
  ( [ s0; s1; s2; s3; s4; s5; s6; s7; s8 ],
    [ s0; s1; s2; s3; s4; s5; s8; s6; s7 ] )

let test_fig3_accept_order () =
  let depth_first, breadth_first = fig3_orders () in
  List.iter
    (fun (strategy, expected) ->
      let accepted = ref [] in
      let hook state =
        accepted :=
          Core.State.key_string state :: !accepted
      in
      let report =
        Core.Search.run ~jobs:1 (stats_for fig3_store)
          { (options_exhaustive strategy) with on_accept = Some hook }
          [ fig3_query ]
      in
      let name = Core.Search.strategy_name strategy in
      check_bool (name ^ " completed") true report.Core.Search.completed;
      Alcotest.(check (list string))
        (name ^ " accept order") expected (List.rev !accepted))
    [
      (Core.Search.Dfs, depth_first);
      (Core.Search.Exstr, breadth_first);
      (Core.Search.Exnaive, breadth_first);
    ]

(* ---------- stop conditions ---------------------------------------------- *)

let test_stop_conditions_shrink_space () =
  let free =
    Core.Search.run (stats_for fig3_store)
      (options_exhaustive Core.Search.Dfs)
      [ fig3_query ]
  in
  let stv =
    Core.Search.run (stats_for fig3_store)
      { (options_exhaustive Core.Search.Dfs) with stop_var = true }
      [ fig3_query ]
  in
  check_bool "STV discards states" true (stv.Core.Search.discarded > 0);
  check_bool "STV explores fewer states" true
    (stv.Core.Search.explored < free.Core.Search.explored);
  (* the all-variable states S4, S5/S6-like, S7, S8 disappear *)
  check_bool "still reduces cost or equals" true
    (stv.Core.Search.best_cost >= free.Core.Search.best_cost -. 1e-6)

let test_stop_tt () =
  let opts =
    { (options_exhaustive Core.Search.Dfs) with stop_tt = true }
  in
  let report = Core.Search.run (stats_for fig3_store) opts [ fig3_query ] in
  (* the triple-table state S8 must not be explored *)
  check_bool "some discard happened" true (report.Core.Search.discarded > 0)

let test_max_states_oom () =
  let opts =
    { (options_exhaustive Core.Search.Exnaive) with max_states = Some 3 }
  in
  let report = Core.Search.run (stats_for fig3_store) opts [ fig3_query ] in
  check_bool "out of memory" true report.Core.Search.out_of_memory;
  check_bool "not completed" true (not report.Core.Search.completed)

let test_time_budget () =
  let opts =
    { (options_exhaustive Core.Search.Exnaive) with time_budget = Some 0. }
  in
  let report = Core.Search.run (stats_for fig3_store) opts [ fig3_query ] in
  check_bool "stopped by time" true (not report.Core.Search.completed);
  (* a best state (at least S0) is always available *)
  check_bool "best available" true (report.Core.Search.best_cost > 0.)

(* ---------- AVF ----------------------------------------------------------- *)

let two_similar_queries =
  [
    cq ~name:"qa" [ v "X" ]
      [ atom (v "X") (c "ex:p") (c "ex:k"); atom (v "X") (c "ex:q") (v "Y") ];
    cq ~name:"qb" [ v "A" ]
      [ atom (v "A") (c "ex:p") (c "ex:k"); atom (v "A") (c "ex:q") (v "B") ];
  ]

let similar_store =
  store_of
    [
      triple (uri "s1") (uri "ex:p") (uri "ex:k");
      triple (uri "s1") (uri "ex:q") (uri "o1");
      triple (uri "s2") (uri "ex:p") (uri "ex:k");
      triple (uri "s2") (uri "ex:q") (uri "o2");
    ]

let test_avf_reduces_created () =
  let base = options_exhaustive Core.Search.Dfs in
  let without =
    Core.Search.run (stats_for similar_store) base two_similar_queries
  in
  let with_avf =
    Core.Search.run (stats_for similar_store) { base with avf = true }
      two_similar_queries
  in
  check_bool "AVF explores fewer states" true
    (with_avf.Core.Search.explored < without.Core.Search.explored);
  check_bool "AVF preserves the best cost" true
    (abs_float (with_avf.Core.Search.best_cost -. without.Core.Search.best_cost)
    < 1e-6)

let test_avf_initial_fusion () =
  (* identical queries fuse already in the initial state *)
  let qa = cq ~name:"qa" [ v "X" ] [ atom (v "X") (c "ex:p") (c "ex:k") ] in
  let qb = cq ~name:"qb" [ v "A" ] [ atom (v "A") (c "ex:p") (c "ex:k") ] in
  let report =
    Core.Search.run (stats_for similar_store)
      { (options_exhaustive Core.Search.Dfs) with avf = true }
      [ qa; qb ]
  in
  check_bool "initial cost already fused" true
    (report.Core.Search.initial_cost > 0.)

(* ---------- pinned search outcomes ----------------------------------------- *)

(* A fixed generated workload searched with AVF and STV on.  Every
   outcome and search counter is pinned to a literal, so a change to how
   successors are generated, pruned, collapsed or admitted that moves
   any of them fails here. *)
let pinned_store = Workload.Barton.store ~n_entities:50 ~seed:1 ()

(* The two queries [Workload.Generator.generate_satisfiable] drew from
   [pinned_store] (chain shape, 2 queries of 3 atoms, seed 3), frozen as
   text so that the pinned outcomes below test the search alone. *)
let pinned_workload =
  Query.Parser.parse_workload
    "q1(X0_0, X0_1) :- t(X0_0, <barton:prop12>, X0_1),\n\
    \                   t(X0_1, type, <barton:Class30>).\n\
     q2(X1_0, X1_1) :- t(X1_0, <barton:prop12>, X1_1),\n\
    \                   t(X1_1, <barton:prop60>, X1_2),\n\
    \                   t(X1_2, <barton:prop48>, X1_3)."

(* The report's counts, then every [search.stratum.<K>.*],
   [transition.<K>.*] and [cost.*] counter the run registered, then the
   sample counts of its [transition.<K>.time], [cost.state.eval] and
   [search.expand.ns] histograms. *)
let pinned_outcome ?(workload = pinned_workload) strategy =
  let registry = Obs.create () in
  Obs.set_global registry;
  let report =
    Fun.protect
      ~finally:(fun () -> Obs.set_global Obs.disabled)
      (fun () ->
        Core.Search.run (stats_for pinned_store)
          { Core.Search.default_options with strategy }
          workload)
  in
  check_bool "completed" true report.Core.Search.completed;
  let counters =
    List.filter
      (fun (name, _) ->
        List.exists
          (fun prefix -> String.starts_with ~prefix name)
          [ "search.stratum."; "transition."; "cost." ])
      (Obs.counters registry)
    |> List.sort compare
  in
  let samples =
    List.filter_map
      (fun name ->
        Option.map
          (fun h -> (name ^ " samples", Obs.histogram_count h))
          (Obs.find_histogram registry name))
      (List.map
         (fun k -> "transition." ^ Core.Transition.kind_name k ^ ".time")
         Core.Transition.all_kinds
      @ [ "cost.state.eval"; "search.expand.ns" ])
  in
  ( [
      ("created", report.Core.Search.created);
      ("duplicates", report.Core.Search.duplicates);
      ("discarded", report.Core.Search.discarded);
      ("explored", report.Core.Search.explored);
    ]
    @ counters @ samples,
    Printf.sprintf "%.17g" report.Core.Search.best_cost )

let check_pinned name strategy expected expected_cost =
  let outcome, cost = pinned_outcome strategy in
  Alcotest.(check (list (pair string int))) (name ^ " counters") expected outcome;
  check_string (name ^ " best cost") expected_cost cost

(* Strict mode estimates every accepted state once more from scratch,
   which [cost.estimate.nodes] counts too. *)
let estimated ~plain ~strict =
  ("cost.estimate.nodes", if Query.Evaluation.strict_enabled () then strict else plain)

(* This workload reopens no state, so both strategies admit the same
   successors. *)
let pinned_counts () =
  [
    ("created", 1251); ("duplicates", 334); ("discarded", 628);
    ("explored", 290);
    ("cost.delta.incremental", 623);
    estimated ~plain:4156 ~strict:13834;
    ("search.stratum.JC.created", 638);
    ("search.stratum.JC.discarded", 391);
    ("search.stratum.JC.duplicates", 111);
    ("search.stratum.SC.created", 610);
    ("search.stratum.SC.discarded", 237);
    ("search.stratum.SC.duplicates", 223);
    ("search.stratum.VB.created", 3);
    ("transition.JC.applied", 638);
    ("transition.SC.applied", 610);
    ("transition.VB.applied", 3);
    ("transition.VB.rejected", 3);
    ("transition.VF.applied", 0);
    ("transition.VB.time samples", 4);
    ("transition.SC.time samples", 154);
    ("transition.JC.time samples", 290);
    ("cost.state.eval samples", 1);
    ("search.expand.ns samples", 290);
  ]

let test_pinned_dfs () =
  check_pinned "DFS" Core.Search.Dfs (pinned_counts ()) "87.115148663808867"

let test_pinned_exstr () =
  check_pinned "EXSTR" Core.Search.Exstr (pinned_counts ())
    "87.115148663808867"

(* GSTR's outcome on one domain: its stage loop carries each state's
   cost node within a stage and the stage's best item into the next, so
   the counts and the exact best cost (printed with %h) are pinned on
   Figure 3 and on the pinned Barton workload, whose SC stage moves the
   next stage's start off S0. *)
let gstr_outcome store workload =
  let report =
    Core.Search.run ~jobs:1 (stats_for store)
      { Core.Search.default_options with strategy = Core.Search.Gstr }
      workload
  in
  check_bool "completed" true report.Core.Search.completed;
  Printf.sprintf "created %d, duplicates %d, explored %d, best_cost %h"
    report.Core.Search.created report.Core.Search.duplicates
    report.Core.Search.explored report.Core.Search.best_cost

let test_pinned_gstr () =
  check_string "Figure 3"
    "created 5, duplicates 0, explored 7, best_cost 0x1.8p+3"
    (gstr_outcome fig3_store [ fig3_query ]);
  check_string "Barton"
    "created 182, duplicates 80, explored 60, best_cost 0x1.5c75e98804f2ep+6"
    (gstr_outcome pinned_store pinned_workload)

(* S0 holds an all-variable single-atom view: no transition applies to
   it and stopvar rejects it, so every successor of S0 is discarded. *)
let test_all_variable_initial_state () =
  let workload =
    [
      cq ~name:"qall" [ v "S"; v "O" ] [ atom (v "S") (v "P") (v "O") ];
      List.hd pinned_workload;
    ]
  in
  let outcome, cost = pinned_outcome ~workload Core.Search.Dfs in
  Alcotest.(check (list (pair string int)))
    "counters"
    [
      ("created", 4); ("duplicates", 0); ("discarded", 4); ("explored", 1);
      estimated ~plain:2 ~strict:4;
      ("search.stratum.JC.created", 1);
      ("search.stratum.JC.discarded", 1);
      ("search.stratum.SC.created", 3);
      ("search.stratum.SC.discarded", 3);
      ("transition.JC.applied", 1);
      ("transition.SC.applied", 3);
      ("transition.VB.applied", 0);
      ("transition.VF.applied", 0);
      ("transition.VB.time samples", 1);
      ("transition.SC.time samples", 1);
      ("transition.JC.time samples", 1);
      ("cost.state.eval samples", 1);
      ("search.expand.ns samples", 1);
    ]
    outcome;
  check_string "best cost" "7016.8721649484542" cost

(* ---------- GSTR ---------------------------------------------------------- *)

let test_gstr_runs_and_improves () =
  let report =
    Core.Search.run (stats_for similar_store)
      {
        Core.Search.default_options with
        strategy = Core.Search.Gstr;
        stop_var = true;
      }
      two_similar_queries
  in
  check_bool "rcr in [0,1]" true
    (Core.Search.rcr report >= 0. && Core.Search.rcr report <= 1.)

let test_gstr_never_worse_than_initial () =
  let report =
    Core.Search.run (stats_for fig3_store)
      { Core.Search.default_options with strategy = Core.Search.Gstr }
      [ fig3_query ]
  in
  check_bool "best ≤ initial" true
    (report.Core.Search.best_cost <= report.Core.Search.initial_cost +. 1e-6)

(* ---------- trajectory and reporting -------------------------------------- *)

let test_trajectory_monotone () =
  let report =
    Core.Search.run (stats_for similar_store)
      (options_exhaustive Core.Search.Dfs)
      two_similar_queries
  in
  let costs = List.map snd report.Core.Search.trajectory in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  check_bool "trajectory decreases" true (decreasing costs);
  check_bool "starts at initial" true
    (abs_float (List.hd costs -. report.Core.Search.initial_cost) < 1e-6)

let test_strategy_names () =
  check_bool "roundtrip" true
    (List.for_all
       (fun s ->
         Core.Search.strategy_of_string (Core.Search.strategy_name s) = Some s)
       [ Core.Search.Exnaive; Exstr; Dfs; Gstr ])

(* ---------- best state is executable -------------------------------------- *)

let prop_best_state_answers_queries =
  QCheck.Test.make
    ~name:"the best state's rewritings answer the workload (DFS-AVF-STV)"
    ~count:40
    QCheck.(pair arb_store (pair arb_cq arb_cq))
    (fun (store, (qa, qb)) ->
      let workload =
        [ Query.Cq.rename qa "qa"; Query.Cq.rename qb "qb" ]
      in
      let report =
        Core.Search.run (stats_for store)
          {
            Core.Search.default_options with
            time_budget = Some 0.5;
            max_states = Some 2000;
          }
          workload
      in
      let state = report.Core.Search.best in
      let env = Engine.Materialize.materialize_state store state in
      List.for_all
        (fun q ->
          let direct = Query.Evaluation.eval_cq store q in
          let via =
            Engine.Executor.execute_query store env
              (List.assoc q.Query.Cq.name state.Core.State.rewritings)
          in
          same_answers direct via)
        workload)

(* ---------- competitors --------------------------------------------------- *)

let competitor_estimator store =
  Core.Cost.create (stats_for store) Core.Cost.default_weights

let test_competitors_on_small_workload () =
  let est = competitor_estimator similar_store in
  List.iter
    (fun which ->
      let report =
        Core.Competitors.run est
          { (options_exhaustive Core.Search.Exnaive) with
            max_states = Some 100000 }
          which two_similar_queries
      in
      check_bool
        (Core.Competitors.name which ^ " completes")
        true report.Core.Search.completed;
      check_bool
        (Core.Competitors.name which ^ " does not worsen")
        true
        (report.Core.Search.best_cost <= report.Core.Search.initial_cost +. 1e-6))
    [ Core.Competitors.Pruning; Core.Competitors.Greedy; Core.Competitors.Heuristic ]

let test_competitor_best_state_valid () =
  let est = competitor_estimator similar_store in
  let report =
    Core.Competitors.run est
      { (options_exhaustive Core.Search.Exnaive) with max_states = Some 100000 }
      Core.Competitors.Greedy two_similar_queries
  in
  let state = report.Core.Search.best in
  check_bool "invariants" true (Core.State.invariants_hold state);
  let env = Engine.Materialize.materialize_state similar_store state in
  List.iter
    (fun q ->
      let direct = Query.Evaluation.eval_cq similar_store q in
      let via =
        Engine.Executor.execute_query similar_store env
          (List.assoc q.Query.Cq.name state.Core.State.rewritings)
      in
      check_bool ("answers " ^ q.Query.Cq.name) true (same_answers direct via))
    two_similar_queries

let test_competitor_oom_on_tight_memory () =
  (* the §6.2 reproduction: with a tight memory cap, the [21] strategies
     fail before producing a full-coverage state *)
  let bigger_queries =
    Workload.Generator.generate
      {
        Workload.Generator.default_spec with
        shape = Workload.Generator.Star;
        n_queries = 3;
        atoms_per_query = 6;
        seed = 7;
      }
  in
  let store = Workload.Barton.store ~n_entities:50 ~seed:1 () in
  let est = competitor_estimator store in
  let report =
    Core.Competitors.run est
      { (options_exhaustive Core.Search.Exnaive) with max_states = Some 200 }
      Core.Competitors.Pruning bigger_queries
  in
  check_bool "out of memory" true report.Core.Search.out_of_memory;
  check_bool "rcr is zero" true (Core.Search.rcr report = 0.)

let () =
  Alcotest.run "search"
    [
      ( "figure3",
        [
          Alcotest.test_case "nine states" `Quick test_fig3_space_size;
          Alcotest.test_case "strategies agree" `Quick
            test_fig3_same_space_all_strategies;
          Alcotest.test_case "stratified ≤ naive transitions" `Quick
            test_fig3_stratified_no_more_transitions;
          Alcotest.test_case "two-query space agreement" `Quick
            test_two_query_space_agreement;
          Alcotest.test_case "one-domain accept order" `Quick
            test_fig3_accept_order;
        ] );
      ( "stop-conditions",
        [
          Alcotest.test_case "STV shrinks the space" `Quick
            test_stop_conditions_shrink_space;
          Alcotest.test_case "stoptt discards" `Quick test_stop_tt;
          Alcotest.test_case "max_states → OOM" `Quick test_max_states_oom;
          Alcotest.test_case "time budget" `Quick test_time_budget;
        ] );
      ( "avf",
        [
          Alcotest.test_case "AVF reduces explored states" `Quick
            test_avf_reduces_created;
          Alcotest.test_case "initial fusion" `Quick test_avf_initial_fusion;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "DFS outcome" `Quick test_pinned_dfs;
          Alcotest.test_case "EXSTR outcome" `Quick test_pinned_exstr;
          Alcotest.test_case "GSTR outcome" `Quick test_pinned_gstr;
          Alcotest.test_case "all-variable S0 discards everything" `Quick
            test_all_variable_initial_state;
        ] );
      ( "gstr",
        [
          Alcotest.test_case "runs and reports rcr" `Quick
            test_gstr_runs_and_improves;
          Alcotest.test_case "never worse than initial" `Quick
            test_gstr_never_worse_than_initial;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "trajectory monotone" `Quick test_trajectory_monotone;
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
          to_alcotest prop_best_state_answers_queries;
        ] );
      ( "competitors",
        [
          Alcotest.test_case "all run on small workloads" `Quick
            test_competitors_on_small_workload;
          Alcotest.test_case "best state valid" `Quick
            test_competitor_best_state_valid;
          Alcotest.test_case "OOM under tight memory" `Quick
            test_competitor_oom_on_tight_memory;
        ] );
    ]
