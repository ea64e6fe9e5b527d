open Support

(* View identity by content: ids equal exactly when the canonical
   forms are, id stability under renaming, key invariance under view
   permutation, a selection that leaves nothing live behind it, and
   agreement of the incremental cost path with the full recompute over
   a large sample of real search states. *)

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

(* ---------- ids are the forms ------------------------------------------- *)

(* [gen_cq] with one more atom, [?V0 <ex:k> cst], on one of the
   constants whose printed forms collide. *)
let with_constant (q : Query.Cq.t) cst =
  Query.Cq.make ~name:q.name ~head:q.head
    ~body:(q.body @ [ atom (v "V0") (c "ex:k") (Query.Qterm.Cst cst) ])

(* A pair of queries: independent, a renaming of one with its head
   columns shuffled, or one with two colliding constants. *)
let gen_view_pair =
  let open QCheck.Gen in
  let* q = gen_cq in
  let* how = int_range 0 2 in
  match how with
  | 0 -> map (fun q' -> (q, q')) gen_cq
  | 1 ->
    let* (r : Query.Cq.t) = gen_renaming q in
    let* head = shuffle_l r.head in
    return (q, Query.Cq.make ~name:r.name ~head ~body:r.body)
  | _ ->
    let* a = oneofl colliding_constants in
    let* b = oneofl colliding_constants in
    return (with_constant q a, with_constant q b)

(* Both ids of a view pair agree with its canonical forms: the
   head-set form for [form_id], the body form for [body_id]. *)
let ids_match_forms qa qb =
  let va = Core.View.make qa and vb = Core.View.make qb in
  let same form = String.equal (form va.Core.View.cq) (form vb.Core.View.cq) in
  Core.View.equal_form_id (Core.View.form_id va) (Core.View.form_id vb)
  = same Query.Cq.canonical_head_set_string
  && Core.View.equal_form_id (Core.View.body_id va) (Core.View.body_id vb)
     = same Query.Cq.canonical_body_string

let test_ids_are_forms () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"ids equal exactly when forms are"
       (QCheck.make
          ~print:(fun (a, b) ->
            Query.Cq.to_string a ^ "  vs  " ^ Query.Cq.to_string b)
          gen_view_pair)
       (fun (a, b) -> ids_match_forms a b));
  (* a view's columns are its head variables, so a head holding a
     constant is no view; that a URI printing bare, like <V1>, is not
     the variable ?V1 is checked on the forms themselves
     (test_query's "constant is not a variable") *)
  let b = cq [ c "V1" ] [ atom (c "V1") (c "ex:p") (v "Y") ] in
  match Core.View.make b with
  | _ -> Alcotest.fail "a view with a constant in its head"
  | exception Invalid_argument m ->
    check_bool m true
      (String.starts_with ~prefix:"View.make: head holds a constant: " m)

(* ---------- id stability under renaming ---------------------------------- *)

(* Ids hang off the canonical form, which is variable-rename-invariant:
   a view and its freshened copy (all variables renamed) must get the
   same id even though their variable names share nothing. *)
let test_ids_stable_under_freshen () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"form_id stable under freshen"
       (QCheck.make gen_cq) (fun q ->
         let v1 = Core.View.make q in
         let v2 = Core.View.make (Query.Cq.freshen q) in
         Core.View.form_id v1 = Core.View.form_id v2
         && Core.View.body_id v1 = Core.View.body_id v2))

let test_ids_distinguish_heads () =
  (* same body, different head: distinct view ids, same body id *)
  let q = q1_paper in
  let narrowed =
    cq ~name:"narrow" [ v "X" ] q.Query.Cq.body
  in
  let v1 = Core.View.make q in
  let v2 = Core.View.make narrowed in
  check_bool "head changes the view id" true
    (Core.View.form_id v1 <> Core.View.form_id v2);
  check_bool "body id ignores the head" true
    (Core.View.body_id v1 = Core.View.body_id v2)

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

(* ---------- a selection retains nothing ---------------------------------- *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Selections [first .. first + count - 1], each a bounded DFS over its
   own two chain queries on its own fresh Barton store.  Every seed
   draws other queries, so every selection makes views of forms no
   earlier one saw. *)
let select_chains first count =
  for seed = first to first + count - 1 do
    let store = Workload.Barton.store ~n_entities:40 ~seed () in
    let queries =
      Workload.Generator.generate_satisfiable store
        {
          Workload.Generator.default_spec with
          Workload.Generator.shape = Workload.Generator.Chain;
          n_queries = 2;
          atoms_per_query = 3;
          seed;
        }
    in
    let options =
      { Core.Search.default_options with max_states = Some 60 }
    in
    ignore
      (Core.Selector.select ~store ~reasoning:Core.Selector.No_reasoning
         ~options queries
        : Core.Selector.result)
  done

(* Views are named by their content, so no table outlives the
   selection that made them: the live heap after 150 selections is the
   heap after 50. *)
let test_selections_retain_nothing () =
  select_chains 1000 50;
  let after_50 = live_words () in
  select_chains 1050 100;
  let after_150 = live_words () in
  check_int
    (Printf.sprintf "live words %d after 50 selections, %d after 150" after_50
       after_150)
    0
    (max 0 (after_150 - after_50))

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
      ( "identity",
        [ Alcotest.test_case "ids equal exactly when forms are" `Quick
            test_ids_are_forms ] );
      ( "stability",
        [
          Alcotest.test_case "ids stable under freshen" `Quick
            test_ids_stable_under_freshen;
          Alcotest.test_case "ids distinguish heads" `Quick
            test_ids_distinguish_heads;
          Alcotest.test_case "key ignores view order" `Quick
            test_key_ignores_view_order;
        ] );
      ( "retention",
        [
          Alcotest.test_case "selections retain nothing" `Quick
            test_selections_retain_nothing;
        ] );
      ( "incremental cost",
        [
          Alcotest.test_case "matches full recompute on 500+ states" `Quick
            test_incremental_matches_full;
        ] );
    ]
