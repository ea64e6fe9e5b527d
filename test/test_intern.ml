open Support

(* The interner and the interned-id state identity: id stability under
   renaming, key invariance under view permutation, and agreement of the
   incremental cost path with the full recompute over a large sample of
   real search states. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

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
  check_bool "size counts both" true (Interning.size () >= 2)

(* Ids are dense: a string seen for the first time gets the id [size]
   had just before, and every id handed out lies below [size]. *)
let test_ids_dense () =
  let before = Interning.size () in
  let fresh = List.init 50 (fun i -> Printf.sprintf "test_intern:dense%d" i) in
  let ids = List.map Interning.of_canonical fresh in
  check_bool "next ids in order" true
    (ids = List.init 50 (fun i -> before + i));
  check_int "size grew by the new strings" (before + 50) (Interning.size ());
  check_bool "again: same ids, no growth" true
    (List.map Interning.of_canonical fresh = ids
    && Interning.size () = before + 50)

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

(* Run real searches (DFS and EXSTR over random workloads) under strict
   mode, where {!Core.Cost.child} checks every incremental cost against
   a fresh full recompute and fails on divergence.  500+ incremental
   derivations give the delta/compose/chain-cap machinery a thorough
   shake. *)
let test_incremental_matches_full () =
  let registry = Obs.create () in
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
    let options =
      { Core.Search.default_options with strategy; max_states = Some 120 }
    in
    ignore
      (Core.Search.run_from (estimator_for museum_store) options
         (Core.State.initial workload))
  in
  Obs.set_global registry;
  Unix.putenv "RDFVIEWS_STRICT" "1";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "RDFVIEWS_STRICT" "0";
      Obs.set_global Obs.disabled)
    (fun () ->
      List.iter
        (fun seed ->
          run Core.Search.Dfs seed;
          run Core.Search.Exstr seed)
        [ 0; 1; 2; 3; 4 ]);
  let derived =
    Option.value ~default:0 (Obs.find_counter registry "cost.delta.incremental")
  in
  check_bool
    (Printf.sprintf "at least 500 incremental costs cross-checked (got %d)"
       derived)
    true (derived >= 500)

let () =
  Alcotest.run "intern"
    [
      ( "interner",
        [
          Alcotest.test_case "basics" `Quick test_intern_basics;
          Alcotest.test_case "bounds" `Quick test_ids_dense;
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
        ] );
    ]
