open Support

(* The interner and the interned-id state identity: id stability under
   renaming, key invariance under view permutation, and agreement of the
   incremental cost path with the full recompute over a large sample of
   real search states. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let estimator_for store =
  Core.Cost.create
    (Stats.Statistics.create ~mode:Stats.Statistics.Plain store)
    Core.Cost.default_weights

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

(* ---------- the interner itself ------------------------------------------ *)

let test_intern_basics () =
  let a = Interning.of_canonical "test_intern:a" in
  let b = Interning.of_canonical "test_intern:b" in
  check_bool "distinct strings get distinct ids" true (a <> b);
  check_int "interning is idempotent" a
    (Interning.of_canonical "test_intern:a");
  check_string "ids map back to their string" "test_intern:a"
    (Interning.canonical_of a);
  check_bool "mem sees interned strings" true (Interning.mem "test_intern:a");
  check_bool "mem rejects unknown strings" false
    (Interning.mem "test_intern:never-interned");
  check_bool "size counts both" true (Interning.size () >= 2)

let test_canonical_of_bounds () =
  Alcotest.check_raises "out-of-range id rejected"
    (Invalid_argument "Interning.canonical_of: unknown id 1073741823") (fun () ->
      ignore (Interning.canonical_of 0x3FFFFFFF))

(* ---------- id stability under renaming ---------------------------------- *)

(* Interned ids hang off the canonical form, which is
   variable-rename-invariant: a view and its freshened copy (all
   variables renamed) must intern to the same id even though their
   variable names share nothing. *)
let test_ids_stable_under_freshen () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"intern_id stable under freshen"
       (QCheck.make gen_cq) (fun q ->
         let v1 = Core.View.make q in
         let v2 = Core.View.make (Query.Cq.freshen q) in
         Core.View.intern_id v1 = Core.View.intern_id v2
         && Core.View.body_intern_id v1 = Core.View.body_intern_id v2))

let test_ids_distinguish_heads () =
  (* same body, different head: distinct view ids, same body id *)
  let q = q1_paper in
  let narrowed =
    cq ~name:"narrow" [ v "X" ] q.Query.Cq.body
  in
  let v1 = Core.View.make q in
  let v2 = Core.View.make narrowed in
  check_bool "head changes the view id" true
    (Core.View.intern_id v1 <> Core.View.intern_id v2);
  check_int "body id ignores the head"
    (Core.View.body_intern_id v1)
    (Core.View.body_intern_id v2)

(* ---------- key invariance under permutation ------------------------------ *)

let test_key_ignores_view_order () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"State.key ignores view order"
       QCheck.(make Gen.(pair (list_size (int_range 2 5) gen_cq) int))
       (fun (cqs, salt) ->
         (* distinct names, same definitions; skip degenerate workloads *)
         let views =
           List.mapi
             (fun i q ->
               Core.View.of_cq
                 (Query.Cq.make ~name:(Printf.sprintf "perm%d" i)
                    ~head:q.Query.Cq.head ~body:q.Query.Cq.body))
             cqs
         in
         let rewritings =
           List.mapi
             (fun i view ->
               (Printf.sprintf "q%d" i, Core.Rewriting.Scan (Core.View.name view)))
             views
         in
         let shuffled =
           (* deterministic pseudo-shuffle driven by the generated salt *)
           List.map snd
             (List.sort compare
                (List.mapi
                   (fun i view -> ((Hashtbl.hash (salt, i), i), view))
                   views))
         in
         let s1 = Core.State.make ~views ~rewritings in
         let s2 = Core.State.make ~views:shuffled ~rewritings in
         Core.State.equal_key (Core.State.key s1) (Core.State.key s2)
         && Core.State.hash_key (Core.State.key s1)
            = Core.State.hash_key (Core.State.key s2)
         && String.equal (Core.State.key_string s1) (Core.State.key_string s2)))

(* ---------- incremental vs full costing ---------------------------------- *)

(* Run real searches (DFS and EXSTR over random workloads) and, on every
   accepted state, compare the engine-memoized cost — produced by the
   incremental delta path — against a fresh full recompute.  500+ states
   give the delta/compose/chain-cap machinery a thorough shake. *)
let test_incremental_matches_full () =
  let checked = ref 0 in
  let run strategy seed =
    let workload =
      Workload.Generator.generate
        {
          Workload.Generator.default_spec with
          Workload.Generator.n_queries = 2;
          atoms_per_query = 3;
          seed;
        }
    in
    let estimator = estimator_for museum_store in
    let options =
      {
        Core.Search.default_options with
        strategy;
        max_states = Some 120;
        on_accept =
          Some
            (fun state ->
              incr checked;
              let memoized = Core.Cost.state_cost estimator state in
              let full = (Core.Cost.breakdown estimator state).Core.Cost.total in
              let scale = Float.max 1. (Float.max (abs_float memoized) (abs_float full)) in
              if abs_float (memoized -. full) > 1e-6 *. scale then
                Alcotest.failf
                  "seed %d: incremental cost %.12g <> full recompute %.12g on %s"
                  seed memoized full (Core.State.key_string state));
      }
    in
    ignore (Core.Search.run_from estimator options (Core.State.initial workload))
  in
  List.iter
    (fun seed ->
      run Core.Search.Dfs seed;
      run Core.Search.Exstr seed)
    [ 0; 1; 2; 3; 4 ];
  check_bool
    (Printf.sprintf "at least 500 states cross-checked (got %d)" !checked)
    true (!checked >= 500)

(* The memo must also hold the incremental results: memo_consistent is
   the invariant strict mode asserts per accepted state. *)
let test_memo_consistent_after_search () =
  let estimator = estimator_for museum_store in
  let inconsistent = ref 0 in
  let options =
    {
      Core.Search.default_options with
      max_states = Some 150;
      on_accept =
        Some
          (fun state ->
            if not (Core.Cost.memo_consistent estimator state) then
              incr inconsistent);
    }
  in
  ignore
    (Core.Search.run_from estimator options (Core.State.initial [ q1_paper ]));
  check_int "no memo inconsistencies" 0 !inconsistent;
  let hits, misses = Core.Cost.memo_counts estimator in
  check_bool "estimator counted hits" true (hits > 0);
  check_bool "estimator counted misses" true (misses > 0)

let () =
  Alcotest.run "intern"
    [
      ( "interner",
        [
          Alcotest.test_case "basics" `Quick test_intern_basics;
          Alcotest.test_case "bounds" `Quick test_canonical_of_bounds;
        ] );
      ( "stability",
        [
          Alcotest.test_case "ids stable under freshen" `Quick
            test_ids_stable_under_freshen;
          Alcotest.test_case "ids distinguish heads" `Quick
            test_ids_distinguish_heads;
          Alcotest.test_case "key ignores view order" `Quick
            test_key_ignores_view_order;
        ] );
      ( "incremental cost",
        [
          Alcotest.test_case "matches full recompute on 500+ states" `Quick
            test_incremental_matches_full;
          Alcotest.test_case "memo consistent after search" `Quick
            test_memo_consistent_after_search;
        ] );
    ]
