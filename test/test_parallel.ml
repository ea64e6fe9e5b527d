open Support

(* Parallel search: fixpoint agreement between one domain and several,
   the views' transition memos under domain contention, and Obs
   registry merging.  Without domains the search loop runs on one, and
   the contention test gates itself on [Multicore.available], so the
   suite also passes on a sequential-only (OCaml 4.x) build. *)

let stats_for store = Stats.Statistics.create store

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

let two_queries =
  [
    Query.Cq.rename fig3_query "qa";
    cq ~name:"qb"
      [ v "Y" ]
      [ atom (v "X") (v "Y") (c "ex:c1") ];
  ]

(* Collect the key strings of accepted states; the hook runs on any
   domain, so the collection is lock-protected. *)
let accept_collector () =
  let lock = Multicore.Spinlock.create () in
  let acc = ref [] in
  let hook state =
    Multicore.Spinlock.with_lock lock (fun () ->
        acc := Core.State.key_string state :: !acc)
  in
  (hook, fun () -> List.sort_uniq String.compare !acc)

let run_one ?(store = fig3_store) ?(max_states = 5000) ~jobs strategy workload
    =
  let hook, keys = accept_collector () in
  let options =
    {
      Core.Search.default_options with
      strategy;
      avf = true;
      max_states = Some max_states;
      on_accept = Some hook;
    }
  in
  let report =
    Core.Search.run ~jobs (stats_for store) options workload
  in
  (report, keys ())

let same_cost a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs a)

let test_gstr_falls_back () =
  (* GSTR runs on the calling domain under any job count *)
  let seq, _ = run_one ~jobs:1 Core.Search.Gstr [ fig3_query ] in
  let par, _ = run_one ~jobs:4 Core.Search.Gstr [ fig3_query ] in
  check_int "gstr created" seq.Core.Search.created par.Core.Search.created;
  Alcotest.(check (float 1e-9))
    "gstr best cost" seq.Core.Search.best_cost par.Core.Search.best_cost

let test_jobs_below_one_rejected () =
  List.iter
    (fun jobs ->
      match
        Core.Search.run ~jobs (stats_for fig3_store)
          Core.Search.default_options [ fig3_query ]
      with
      | _ -> Alcotest.failf "jobs = %d was accepted" jobs
      | exception Invalid_argument _ -> ())
    [ 0; -3 ]

(* ---------- free mode: same fixpoint on completed runs -------------------- *)

(* Every strategy at 2 and 4 domains completes, accepts the sequential
   state set and reaches the sequential best cost.  Parallel runs are
   schedule-dependent, so each job count runs three times. *)
let check_same_fixpoint ~store ~max_states workload () =
  List.iter
    (fun strategy ->
      let name = Core.Search.strategy_name strategy in
      let seq, seq_keys = run_one ~store ~max_states ~jobs:1 strategy workload in
      check_bool (name ^ " seq completed") true seq.Core.Search.completed;
      List.iter
        (fun jobs ->
          for _ = 1 to 3 do
            let par, par_keys = run_one ~store ~max_states ~jobs strategy workload in
            let label = Printf.sprintf "%s --jobs %d" name jobs in
            check_bool (label ^ " completed") true par.Core.Search.completed;
            Alcotest.(check (list string))
              (label ^ " accepted set") seq_keys par_keys;
            check_bool
              (label ^ " best cost agrees")
              true
              (same_cost seq.Core.Search.best_cost par.Core.Search.best_cost)
          done)
        [ 2; 4 ])
    [ Core.Search.Exnaive; Core.Search.Exstr; Core.Search.Dfs ]

let test_free_same_fixpoint =
  check_same_fixpoint ~store:fig3_store ~max_states:5000 two_queries

(* Over random workloads: whenever both runs complete, every strategy at
   2 and 4 domains accepts the sequential state set and reaches the
   sequential best cost. *)
let prop_free_matches_sequential =
  QCheck.Test.make ~name:"free parallel ≡ sequential fixpoint (random workloads)"
    ~count:20
    QCheck.(pair arb_store (pair arb_cq arb_cq))
    (fun (store, (qa, qb)) ->
      let workload = [ Query.Cq.rename qa "qa"; Query.Cq.rename qb "qb" ] in
      List.for_all
        (fun strategy ->
          let run jobs = run_one ~store ~max_states:400 ~jobs strategy workload in
          let seq, seq_keys = run 1 in
          List.for_all
            (fun jobs ->
              let par, par_keys = run jobs in
              (not (seq.Core.Search.completed && par.Core.Search.completed))
              || seq_keys = par_keys
                 && same_cost seq.Core.Search.best_cost
                      par.Core.Search.best_cost)
            [ 2; 4 ])
        [ Core.Search.Dfs; Core.Search.Exstr; Core.Search.Exnaive ])

(* Two random cases the property above once caught: on both, EXSTR
   completed and accepted the same keys at 1 and N domains, yet
   reported different best costs.  States sharing a key (the same
   views) differ in their rewritings, and only the first to arrive was
   costed, so the best cost depended on the arrival order. *)
let ty e cls = triple (uri e) rdf_type (uri cls)
let tu s p o = triple (uri s) (uri p) (uri o)
let tl s p l = triple (uri s) (uri p) (lit l)

let pinned_cases =
  [
    ( "QCHECK_SEED=92720565",
      [
        ty "e9" "C3"; tu "e6" "P3" "e7"; ty "e0" "C4"; tu "e6" "P0" "e4";
        ty "e2" "C2"; ty "e7" "C0"; ty "e6" "C0";
      ],
      [
        cq ~name:"qa" [ v "V0"; v "V1" ]
          [
            atom (v "V1") (c "P2") (v "V0");
            atom (v "V1") (c "P3") (v "V3");
            atom (v "V1") (c "P3") (c "C3");
          ];
        cq ~name:"qb" [ v "V0"; v "V1" ] [ atom (v "V1") (c "P3") (v "V0") ];
      ] );
    ( "QCHECK_SEED=489963400",
      [
        tu "e0" "P2" "C3"; ty "e0" "C1"; ty "e8" "C0"; ty "e3" "C0";
        ty "e7" "C3"; tu "e6" "P2" "C1"; tu "e7" "P1" "e0"; ty "e0" "C3";
        ty "e2" "C1"; ty "e5" "C0"; ty "e6" "C3"; tu "e8" "P1" "C1";
        ty "e3" "C2"; ty "e5" "C2"; tu "e4" "P4" "e0"; ty "e7" "C4";
        tl "e1" "P4" "l0"; tu "e7" "P1" "C4"; ty "e6" "C1"; tl "e7" "P0" "l1";
        tu "e3" "P4" "e3"; ty "e0" "C2"; tu "e3" "P1" "C1"; ty "e3" "C1";
        tl "e7" "P4" "l1"; ty "e5" "C1"; tu "e4" "P2" "C3";
      ],
      [
        cq ~name:"qa" [ v "V0"; v "V5" ]
          [
            atom (v "V0") (c "P4") (c "e2");
            atom (v "V0") (c "P1") (c "e4");
            atom (v "V0") (c "P1") (v "V5");
          ];
        cq ~name:"qb" [ v "V0"; v "V1" ] [ atom (v "V1") (c "P1") (v "V0") ];
      ] );
  ]

(* ---------- post-reformulation: the forks only read the statistics -------- *)

(* Under post-reformulation a statistic is a count over a reformulated
   query, and a memo miss would compile and run its plans on whichever
   domain missed.  [Search.run_from] fills the memo before the fork: a
   completed --jobs 2 search reaches the one-domain best cost and leaves
   the memo as the fill left it. *)
let test_post_reformulation_reads_only () =
  let store = Workload.Barton.store ~n_entities:60 ~seed:1 () in
  let schema = Workload.Barton.schema () in
  let workload =
    Workload.Generator.generate_satisfiable store
      {
        Workload.Generator.default_spec with
        n_queries = 1;
        atoms_per_query = 2;
        seed = 1;
      }
  in
  let filled =
    let stats =
      Stats.Statistics.create ~mode:(Stats.Statistics.Reformulated schema) store
    in
    Stats.Statistics.prewarm stats workload;
    (Stats.Statistics.cache_size stats, Stats.Statistics.memo_size stats)
  in
  let version = Rdf.Store.version store in
  let select jobs =
    let result =
      Core.Selector.select ~jobs ~store
        ~reasoning:(Core.Selector.Post_reformulation schema)
        ~options:
          {
            Core.Search.default_options with
            strategy = Core.Search.Dfs;
            avf = true;
            max_states = Some 5000;
          }
        workload
    in
    let label = Printf.sprintf "--jobs %d" jobs in
    check_bool (label ^ " completed") true
      result.Core.Selector.report.Core.Search.completed;
    let stats = result.Core.Selector.stats in
    check_bool (label ^ " memo as filled") true
      (filled
      = (Stats.Statistics.cache_size stats, Stats.Statistics.memo_size stats));
    result.Core.Selector.report.Core.Search.best_cost
  in
  let seq = select 1 in
  for _ = 1 to 3 do
    check_bool "best cost agrees" true (same_cost seq (select 2))
  done;
  check_int "store version" version (Rdf.Store.version store)

(* ---------- the store's caches: the coordinator's alone ------------------ *)

(* A store's plan table and maintenance memo have no lock, because only
   the coordinating domain fills them ([@@coordinator_only], checked by
   tool/analyze).  The runtime witness: with a warm plan table and a
   prepared view, a --jobs 2 selection under either statistics path
   leaves both as they were. *)
let test_select_leaves_store_caches () =
  let store = Workload.Barton.store ~n_entities:60 ~seed:1 () in
  let schema = Workload.Barton.schema () in
  let workload =
    Workload.Generator.generate_satisfiable store
      {
        Workload.Generator.default_spec with
        n_queries = 1;
        atoms_per_query = 2;
        seed = 1;
      }
  in
  let view = List.hd workload in
  let views = [ (view, Engine.Materialize.materialize_cq store view) ] in
  (* a new triple matching the view's first atom prepares the view and
     compiles its delta plan *)
  let fresh = function
    | Query.Qterm.Cst t -> t
    | Query.Qterm.Var x -> uri ("ex:fresh-" ^ x)
  in
  let a = List.hd view.Query.Cq.body in
  ignore
    (Engine.Maintenance.insert_triple store views
       (triple (fresh a.Query.Atom.s) (fresh a.p) (fresh a.o))
      : int);
  let caches () =
    ( Query.Plan.cached_plan_count store,
      Engine.Maintenance.prepared_count store,
      Engine.Maintenance.compiled_count store )
  in
  let ((plans, prepared, compiled) as warm) = caches () in
  check_bool "warm caches" true (plans > 0 && prepared = 1 && compiled > 0);
  List.iter
    (fun reasoning ->
      let result =
        Core.Selector.select ~jobs:2 ~store ~reasoning
          ~options:
            {
              Core.Search.default_options with
              strategy = Core.Search.Dfs;
              avf = true;
              max_states = Some 5000;
            }
          workload
      in
      let label = Core.Selector.reasoning_name reasoning in
      check_bool (label ^ " completed") true
        result.Core.Selector.report.Core.Search.completed;
      check_bool (label ^ " leaves the plans and the memo") true (caches () = warm))
    [ Core.Selector.No_reasoning; Core.Selector.Post_reformulation schema ]

(* A hash store indexes its rows on first read, so a read may write.
   Only the coordinating domain reads a store (tool/analyze proves
   [Rdf.Hash_backend.catch_up] [@@coordinator_only]).  The runtime
   witness: over a copy whose rows are all still pending, a --jobs 2
   selection reaches the one-domain best cost and reads the same counts,
   under either statistics path, and no read bumps the version. *)
let test_select_over_pending_rows () =
  let source = Workload.Barton.store ~n_entities:60 ~seed:1 () in
  let schema = Workload.Barton.schema () in
  let workload =
    Workload.Generator.generate_satisfiable source
      {
        Workload.Generator.default_spec with
        n_queries = 1;
        atoms_per_query = 2;
        seed = 1;
      }
  in
  let atoms = List.concat_map (fun q -> q.Query.Cq.body) workload in
  List.iter
    (fun reasoning ->
      let select jobs =
        let store = Rdf.Store.copy source in
        let version = Rdf.Store.version store in
        let result =
          Core.Selector.select ~jobs ~store ~reasoning
            ~options:
              {
                Core.Search.default_options with
                strategy = Core.Search.Dfs;
                avf = true;
                max_states = Some 5000;
              }
            workload
        in
        let label =
          Printf.sprintf "%s --jobs %d" (Core.Selector.reasoning_name reasoning) jobs
        in
        check_bool (label ^ " completed") true
          result.Core.Selector.report.Core.Search.completed;
        check_int (label ^ " version") version (Rdf.Store.version store);
        let stats = result.Core.Selector.stats in
        ( result.Core.Selector.report.Core.Search.best_cost,
          List.map (Stats.Statistics.atom_count stats) atoms,
          List.map (Stats.Statistics.column_distinct stats) [ `S; `P; `O ] )
      in
      let seq_cost, seq_counts, seq_distinct = select 1 in
      for _ = 1 to 3 do
        let cost, counts, distinct = select 2 in
        check_bool "best cost agrees" true (same_cost seq_cost cost);
        check_bool "atom counts agree" true (seq_counts = counts);
        check_bool "distinct counts agree" true (seq_distinct = distinct)
      done)
    [ Core.Selector.No_reasoning; Core.Selector.Post_reformulation schema ]

(* A compact store memoizes its scans on read, with no lock: only the
   coordinating domain reads a store (tool/analyze proves
   [Rdf.Compact_backend.cached_scan] [@@coordinator_only]).  The runtime
   witness: over a merged compact store with tombstones and memtable
   rows, a --jobs 2 selection reaches the one-domain best cost and
   counts, under either statistics path, and afterwards every scan of
   that store, memoized or not, equals the same scan on a fresh copy. *)
let test_select_over_compact_store () =
  let source = Workload.Barton.store ~n_entities:60 ~seed:1 () in
  let schema = Workload.Barton.schema () in
  let workload =
    Workload.Generator.generate_satisfiable source
      {
        Workload.Generator.default_spec with
        n_queries = 1;
        atoms_per_query = 2;
        seed = 1;
      }
  in
  let atoms = List.concat_map (fun q -> q.Query.Cq.body) workload in
  let triples = Rdf.Store.to_triples source in
  let merged = 9 * List.length triples / 10 in
  let compact_store () =
    let store = Rdf.Store.create ~backend:Rdf.Backend.Compact () in
    let add t = ignore (Rdf.Store.add store t : bool) in
    List.iteri (fun i t -> if i < merged then add t) triples;
    Rdf.Store.compact store;
    List.iteri (fun i t -> if i >= merged then add t) triples;
    List.iteri
      (fun i t -> if i < merged && i mod 7 = 0 then ignore (Rdf.Store.remove store t : bool))
      triples;
    store
  in
  let rows (data, n) =
    List.sort compare
      (List.init n (fun i -> (data.(3 * i), data.((3 * i) + 1), data.((3 * i) + 2))))
  in
  let same_scans store =
    let fresh = Rdf.Store.copy store in
    List.for_all
      (fun (s, p, o) ->
        List.for_all
          (fun (col, a) ->
            rows (Rdf.Store.scan1 store col a) = rows (Rdf.Store.scan1 fresh col a))
          [ (`S, s); (`P, p); (`O, o) ]
        && List.for_all
             (fun (cols, a, b) ->
               rows (Rdf.Store.scan2 store cols a b)
               = rows (Rdf.Store.scan2 fresh cols a b))
             [ (`SP, s, p); (`PO, p, o); (`SO, s, o) ])
      (rows (Rdf.Store.scan_all fresh))
  in
  List.iter
    (fun reasoning ->
      let select jobs =
        let store = compact_store () in
        let result =
          Core.Selector.select ~jobs ~store ~reasoning
            ~options:
              {
                Core.Search.default_options with
                strategy = Core.Search.Dfs;
                avf = true;
                max_states = Some 5000;
              }
            workload
        in
        let label =
          Printf.sprintf "%s --jobs %d" (Core.Selector.reasoning_name reasoning) jobs
        in
        check_bool (label ^ " completed") true
          result.Core.Selector.report.Core.Search.completed;
        check_bool (label ^ " scans equal a fresh copy's") true (same_scans store);
        let stats = result.Core.Selector.stats in
        ( result.Core.Selector.report.Core.Search.best_cost,
          List.map (Stats.Statistics.atom_count stats) atoms,
          List.map (Stats.Statistics.column_distinct stats) [ `S; `P; `O ] )
      in
      let seq_cost, seq_counts, seq_distinct = select 1 in
      for _ = 1 to 3 do
        let cost, counts, distinct = select 2 in
        check_bool "best cost agrees" true (same_cost seq_cost cost);
        check_bool "atom counts agree" true (seq_counts = counts);
        check_bool "distinct counts agree" true (seq_distinct = distinct)
      done)
    [ Core.Selector.No_reasoning; Core.Selector.Post_reformulation schema ]

(* ---------- shared views under contention --------------------------------- *)

(* Four domains build the successors of one fresh state at once, so
   they race to fill each view's action and fusion memos.  A duplicate
   fill differs only in fresh view names: every successor is well
   formed, and every domain sees the same successors by key. *)
let test_shared_fresh_state () =
  if Multicore.available then begin
    let domains = 4 in
    let chain name =
      cq ~name [ v "X"; v "W" ]
        [
          atom (v "X") (c "ex:p") (v "Y");
          atom (v "Y") (c "ex:q") (v "Z");
          atom (v "Z") (c "ex:r") (v "W");
        ]
    in
    let state =
      Core.State.initial (chain "qc" :: chain "qd" :: two_queries)
    in
    let ready = Atomic.make 0 in
    let work () =
      Atomic.incr ready;
      while Atomic.get ready < domains do Multicore.cpu_relax () done;
      List.concat_map
        (Core.Transition.successors state)
        Core.Transition.all_kinds
    in
    let handles = List.init (domains - 1) (fun _ -> Multicore.spawn work) in
    let mine = work () in
    let all = mine :: List.map Multicore.join handles in
    List.iter
      (List.iter (fun s ->
           check_bool "well formed" true
             (Core.State.structural_violations s = [])))
      all;
    let keys succs =
      List.sort_uniq String.compare (List.map Core.State.key_string succs)
    in
    check_bool "some successors" true (mine <> []);
    List.iter
      (fun succs ->
        check_bool "same successor keys" true (keys succs = keys mine))
      all
  end

(* ---------- Obs registry merging ------------------------------------------ *)

let test_obs_merge_counters () =
  let a = Obs.create () and b = Obs.create () in
  for _ = 1 to 3 do Obs.incr (Obs.counter a "n") done;
  for _ = 1 to 5 do Obs.incr (Obs.counter b "n") done;
  Obs.incr (Obs.counter b "only-b");
  Obs.observe (Obs.histogram a "h") 100;
  Obs.observe (Obs.histogram b "h") 200;
  Obs.time (Obs.histogram a "t") (fun () -> ());
  Obs.time (Obs.histogram b "t") (fun () -> ());
  Obs.time (Obs.histogram b "t") (fun () -> ());
  Obs.merge_into ~into:a b;
  check_int "summed counter" 8 (Option.get (Obs.find_counter a "n"));
  check_int "adopted counter" 1 (Option.get (Obs.find_counter a "only-b"));
  check_int "histogram events" 2
    (Obs.histogram_count (Option.get (Obs.find_histogram a "h")));
  check_int "histogram sum" 300
    (Obs.histogram_sum (Option.get (Obs.find_histogram a "h")));
  check_int "timed calls" 3
    (Obs.histogram_count (Option.get (Obs.find_histogram a "t")))

(* Gauges, series and spans are last values and traces, not sums: a
   merge leaves them where they are. *)
let test_obs_merge_gauges () =
  let a = Obs.create () and b = Obs.create () in
  Obs.set_gauge (Obs.gauge a "set-in-both") 1.;
  Obs.set_gauge (Obs.gauge b "set-in-both") 2.;
  Obs.set_gauge (Obs.gauge b "only-src") 3.;
  Obs.set_series (Obs.series b "series-only-src") [ (0., 3.) ];
  Obs.merge_into ~into:a b;
  check_bool "destination gauge kept" true
    (Obs.find_gauge a "set-in-both" = Some 1.);
  check_bool "source gauge and series not copied" true
    (Obs.find_gauge a "only-src" = None && Obs.all_series a = [])

let test_obs_merge_spans () =
  let a = Obs.create () and b = Obs.create () in
  Obs.span a "root" (fun () -> ());
  Obs.span b "worker" (fun () -> ());
  Obs.merge_into ~into:a b;
  check_bool "only the destination's span" true
    (List.map (fun s -> s.Obs.span_name) (Obs.spans a) = [ "root" ])

let test_obs_merge_disabled () =
  let a = Obs.create () in
  Obs.incr (Obs.counter a "n");
  Obs.merge_into ~into:a Obs.disabled;
  Obs.merge_into ~into:Obs.disabled a;
  check_int "unchanged" 1 (Option.get (Obs.find_counter a "n"))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ( "free mode",
        [
          Alcotest.test_case "same fixpoint" `Quick test_free_same_fixpoint;
          Alcotest.test_case "gstr falls back" `Quick test_gstr_falls_back;
          Alcotest.test_case "jobs below 1 rejected" `Quick
            test_jobs_below_one_rejected;
          qt prop_free_matches_sequential;
        ]
        @ List.map
            (fun (name, triples, workload) ->
              Alcotest.test_case
                ("same best cost, " ^ name)
                `Quick
                (check_same_fixpoint ~store:(store_of triples)
                   ~max_states:400 workload))
            pinned_cases
        @ [
            Alcotest.test_case "post-reformulation forks only read stats"
              `Quick test_post_reformulation_reads_only;
            Alcotest.test_case "a selection leaves the store's caches"
              `Quick test_select_leaves_store_caches;
            Alcotest.test_case "a selection over pending rows" `Quick
              test_select_over_pending_rows;
            Alcotest.test_case "a selection over a compact store" `Quick
              test_select_over_compact_store;
          ] );
      ( "view memo",
        [
          Alcotest.test_case "4 domains expand one fresh state" `Quick
            test_shared_fresh_state;
        ] );
      ( "obs merge",
        [
          Alcotest.test_case "counters/histograms" `Quick
            test_obs_merge_counters;
          Alcotest.test_case "gauges" `Quick test_obs_merge_gauges;
          Alcotest.test_case "spans" `Quick test_obs_merge_spans;
          Alcotest.test_case "disabled" `Quick test_obs_merge_disabled;
        ] );
    ]
