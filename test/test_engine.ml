open Support

let museum =
  [
    triple (uri "ex:vanGogh") (uri "ex:hasPainted") (uri "ex:starryNight");
    triple (uri "ex:vanGogh") (uri "ex:isParentOf") (uri "ex:vincentJr");
    triple (uri "ex:vincentJr") (uri "ex:hasPainted") (uri "ex:sunflowers2");
    triple (uri "ex:monet") (uri "ex:hasPainted") (uri "ex:waterLilies");
  ]

let museum_store = store_of museum

(* ---------- relations ----------------------------------------------------- *)

let test_relation_dedup () =
  let rel =
    Engine.Relation.make ~name:"r" ~cols:[ "a"; "b" ]
      [ [| 1; 2 |]; [| 1; 2 |]; [| 3; 4 |] ]
  in
  check_int "deduplicated" 2 (Engine.Relation.cardinality rel);
  check_bool "mem" true (Engine.Relation.mem rel [| 1; 2 |]);
  check_bool "not mem" false (Engine.Relation.mem rel [| 9; 9 |])

let test_relation_add_remove () =
  let rel = Engine.Relation.make ~name:"r" ~cols:[ "a" ] [ [| 1 |] ] in
  check_bool "add new" true (Engine.Relation.add_row rel [| 2 |]);
  check_bool "add dup" false (Engine.Relation.add_row rel [| 2 |]);
  check_int "two rows" 2 (Engine.Relation.cardinality rel);
  check_bool "remove" true (Engine.Relation.remove_row rel [| 1 |]);
  check_bool "remove absent" false (Engine.Relation.remove_row rel [| 1 |]);
  check_int "one row" 1 (Engine.Relation.cardinality rel)

let test_relation_projection_indices () =
  let rel = Engine.Relation.make ~name:"r" ~cols:[ "a"; "b"; "c" ] [] in
  check_bool "indices" true (Engine.Relation.project_indices rel [ "c"; "a" ] = [ 2; 0 ])

(* ---------- materialization ----------------------------------------------- *)

let test_materialize_single_atom () =
  let view =
    cq ~name:"v" [ v "X"; v "Y" ] [ atom (v "X") (c "ex:hasPainted") (v "Y") ]
  in
  let rel = Engine.Materialize.materialize_cq museum_store view in
  check_int "three painters" 3 (Engine.Relation.cardinality rel);
  check_bool "cols" true (Engine.Relation.cols rel = [ "X"; "Y" ])

let test_materialize_join_view () =
  let view =
    cq ~name:"v" [ v "X"; v "Z" ]
      [
        atom (v "X") (c "ex:isParentOf") (v "Y");
        atom (v "Y") (c "ex:hasPainted") (v "Z");
      ]
  in
  let rel = Engine.Materialize.materialize_cq museum_store view in
  check_int "one tuple" 1 (Engine.Relation.cardinality rel)

let test_materialize_ucq () =
  let a = cq ~name:"u" [ v "X" ] [ atom (v "X") (c "ex:hasPainted") (v "Y") ] in
  let b = cq ~name:"u2" [ v "X" ] [ atom (v "X") (c "ex:isParentOf") (v "Y") ] in
  let u = Query.Ucq.make ~name:"u" [ a; b ] in
  let rel = Engine.Materialize.materialize_ucq museum_store u in
  (* vanGogh, vincentJr, monet *)
  check_int "union dedup" 3 (Engine.Relation.cardinality rel)

let test_size_bytes_positive () =
  let view = cq ~name:"v" [ v "X" ] [ atom (v "X") (c "ex:hasPainted") (v "Y") ] in
  let rel = Engine.Materialize.materialize_cq museum_store view in
  check_bool "positive size" true
    (Engine.Relation.size_bytes museum_store rel > 0)

(* ---------- executor ------------------------------------------------------- *)

let env_of_rels rels =
  let env = Hashtbl.create 8 in
  List.iter (fun (r : Engine.Relation.t) -> Hashtbl.replace env (Engine.Relation.name r) r) rels;
  env

let test_executor_select () =
  let code t = Rdf.Store.encode_term museum_store t in
  let rel =
    Engine.Relation.make ~name:"v" ~cols:[ "X"; "Y" ]
      [
        [| code (uri "ex:vanGogh"); code (uri "ex:starryNight") |];
        [| code (uri "ex:monet"); code (uri "ex:waterLilies") |];
      ]
  in
  let env = env_of_rels [ rel ] in
  let result =
    Engine.Executor.execute museum_store env
      (Core.Rewriting.Select
         ([ Core.Rewriting.Eq_cst ("Y", uri "ex:starryNight") ], Core.Rewriting.Scan "v"))
  in
  check_int "one row" 1 (Engine.Relation.cardinality result)

let test_executor_select_unknown_constant () =
  let rel = Engine.Relation.make ~name:"v" ~cols:[ "X" ] [ [| 0 |] ] in
  let env = env_of_rels [ rel ] in
  let result =
    Engine.Executor.execute museum_store env
      (Core.Rewriting.Select
         ([ Core.Rewriting.Eq_cst ("X", uri "ex:notInDictionary") ],
          Core.Rewriting.Scan "v"))
  in
  check_int "empty" 0 (Engine.Relation.cardinality result)

let test_executor_join_natural () =
  let r1 =
    Engine.Relation.make ~name:"r1" ~cols:[ "X"; "Y" ]
      [ [| 1; 2 |]; [| 3; 4 |] ]
  in
  let r2 =
    Engine.Relation.make ~name:"r2" ~cols:[ "Y"; "Z" ]
      [ [| 2; 10 |]; [| 2; 11 |]; [| 5; 12 |] ]
  in
  let env = env_of_rels [ r1; r2 ] in
  let result =
    Engine.Executor.execute museum_store env
      (Core.Rewriting.Join ([], Core.Rewriting.Scan "r1", Core.Rewriting.Scan "r2"))
  in
  check_int "two joined rows" 2 (Engine.Relation.cardinality result);
  check_bool "columns" true (Engine.Relation.cols result = [ "X"; "Y"; "Z" ])

let test_executor_project_dedups () =
  let r =
    Engine.Relation.make ~name:"r" ~cols:[ "X"; "Y" ]
      [ [| 1; 2 |]; [| 1; 3 |] ]
  in
  let env = env_of_rels [ r ] in
  let result =
    Engine.Executor.execute museum_store env
      (Core.Rewriting.Project ([ "X" ], Core.Rewriting.Scan "r"))
  in
  check_int "set semantics" 1 (Engine.Relation.cardinality result)

let test_executor_rename_and_union () =
  let r1 = Engine.Relation.make ~name:"r1" ~cols:[ "A" ] [ [| 1 |]; [| 2 |] ] in
  let r2 = Engine.Relation.make ~name:"r2" ~cols:[ "B" ] [ [| 2 |]; [| 3 |] ] in
  let env = env_of_rels [ r1; r2 ] in
  let result =
    Engine.Executor.execute museum_store env
      (Core.Rewriting.Union
         [
           Core.Rewriting.Scan "r1";
           Core.Rewriting.Rename ([ ("B", "A") ], Core.Rewriting.Scan "r2");
         ])
  in
  check_int "union dedup" 3 (Engine.Relation.cardinality result)

let test_executor_unknown_view () =
  let env = env_of_rels [] in
  Alcotest.check_raises "unknown view" (Failure "Executor: unknown view nope")
    (fun () ->
      ignore (Engine.Executor.execute museum_store env (Core.Rewriting.Scan "nope")))

(* Words a call allocates: on the minor heap, and directly on the
   major heap, where an array above 256 words goes and where
   [Gc.minor_words] does not look.  The minor heap is emptied first, so
   the promoted words in the window are the window's own. *)
let words_allocated f =
  Gc.minor ();
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let x = f () in
  let _, promoted1, major1 = Gc.counters () in
  let minor1 = Gc.minor_words () in
  (x, int_of_float (minor1 -. minor0 +. (major1 -. promoted1) -. (major0 -. promoted0)))

(* A 50k-row view: X is unique, Y cycles, C is one constant. *)
let big_rows = 50_000

let big_view () =
  let painter = Rdf.Store.encode_term museum_store (uri "ex:vanGogh") in
  let rs = Rdf.Rowset.create big_rows in
  for i = 0 to big_rows - 1 do
    ignore (Rdf.Rowset.add rs [| i; i mod 7; painter |] : bool)
  done;
  Engine.Relation.of_rowset ~name:"v" ~cols:[ "X"; "Y"; "C" ] rs

let test_executor_view_in_place () =
  let view = big_view () in
  let env = env_of_rels [ view ] in
  List.iter
    (fun (label, expr) ->
      let result, words =
        words_allocated (fun () -> Engine.Executor.execute museum_store env expr)
      in
      check_int (label ^ ": the view's cardinality") big_rows
        (Engine.Relation.cardinality result);
      check_bool (label ^ ": the view's own rows") true
        (Engine.Relation.rowset result == Engine.Relation.rowset view);
      if words >= 1_000 then
        Alcotest.failf "%s allocated %d words (want < 1000)" label words)
    Core.Rewriting.
      [
        ("scan", Scan "v");
        ("rename", Rename ([ ("X", "A"); ("C", "B") ], Scan "v"));
        ("select every row passes", Select ([ Eq_cst ("C", uri "ex:vanGogh") ], Scan "v"));
      ]

(* A projection that collapses nothing is hashed once: it allocates no
   more than building one set of its rows does. *)
let test_executor_project_hashes_once () =
  let view = big_view () in
  let env = env_of_rels [ view ] in
  let data = Rdf.Rowset.data (Engine.Relation.rowset view) in
  let yx = Array.init (2 * big_rows) (fun i -> data.((3 * (i / 2)) + 1 - (i mod 2))) in
  let (), one_set =
    words_allocated (fun () ->
        let rs = Rdf.Rowset.create big_rows in
        ignore (Rdf.Rowset.add_rows rs ~width:2 yx big_rows : int))
  in
  let result, words =
    words_allocated (fun () ->
        Engine.Executor.execute museum_store env
          (Core.Rewriting.Project ([ "Y"; "X" ], Core.Rewriting.Scan "v")))
  in
  check_int "nothing collapses" big_rows (Engine.Relation.cardinality result);
  if words > one_set + 1_000 then
    Alcotest.failf "the projection allocated %d words, one set takes %d" words one_set

(* ---------- executor against a naive interpreter --------------------------- *)

(* Relations over four terms; [ex:absent] is in no dictionary. *)
let naive_terms = List.init 4 (fun i -> uri (Printf.sprintf "ex:e%d" i))

let naive_store =
  store_of
    (List.map (fun t -> triple t (uri "ex:p") t) naive_terms)

let naive_views = [ ("r", [ "A"; "B" ]); ("s", [ "B"; "C" ]); ("u", [ "A"; "C" ]) ]
let naive_names = [ "A"; "B"; "C"; "D"; "E" ]

let gen_naive_rows =
  let open QCheck.Gen in
  list_size (int_range 0 6) (array_size (return 2) (oneofl naive_terms))

let gen_cond cols =
  let open QCheck.Gen in
  frequency
    [
      (2, map2 (fun c t -> Core.Rewriting.Eq_cst (c, t)) (oneofl cols)
            (oneofl (uri "ex:absent" :: naive_terms)));
      (2, map2 (fun a b -> Core.Rewriting.Eq_col (a, b)) (oneofl cols) (oneofl cols));
      (* every row passes *)
      (1, map (fun c -> Core.Rewriting.Eq_col (c, c)) (oneofl cols));
    ]

(* Random rewriting trees over [naive_views], with their output
   columns, which are always distinct names. *)
let rec gen_tree depth =
  let open QCheck.Gen in
  let scan = map (fun (name, cols) -> (Core.Rewriting.Scan name, cols)) (oneofl naive_views) in
  if depth = 0 then scan
  else
    let sub = gen_tree (depth - 1) in
    (* another branch of a union, made to match [cols] by position and
       name, or a selection over the first branch when too narrow *)
    let fit (e, cols) (o, ocols) =
      let k = List.length cols in
      if List.length ocols < k then Core.Rewriting.Select ([], e)
      else
        let prefix = List.filteri (fun i _ -> i < k) ocols in
        Core.Rewriting.Rename (List.combine prefix cols, Core.Rewriting.Project (prefix, o))
    in
    frequency
      [
        (1, scan);
        ( 2,
          sub >>= fun (e, cols) ->
          list_size (int_range 0 2) (gen_cond cols) >|= fun conds ->
          (Core.Rewriting.Select (conds, e), cols) );
        ( 2,
          sub >>= fun (e, cols) ->
          shuffle_l cols >>= fun shuffled ->
          int_range 1 (List.length cols) >|= fun k ->
          let out = List.filteri (fun i _ -> i < k) shuffled in
          (Core.Rewriting.Project (out, e), out) );
        ( 1,
          sub >>= fun (e, cols) ->
          shuffle_l naive_names >|= fun names ->
          let fresh = List.filteri (fun i _ -> i < List.length cols) names in
          (Core.Rewriting.Rename (List.combine cols fresh, e), fresh) );
        ( 2,
          pair sub sub >>= fun ((l, lc), (r, rc)) ->
          frequency
            [ (2, return []); (1, list_size (int_range 1 2) (pair (oneofl lc) (oneofl rc))) ]
          >|= fun conds ->
          (Core.Rewriting.Join (conds, l, r), lc @ List.filter (fun c -> not (List.mem c lc)) rc) );
        ( 2,
          sub >>= fun ((e, cols) as first) ->
          list_size (int_range 0 2) sub >|= fun others ->
          (Core.Rewriting.Union (e :: List.map (fit first) others), cols) );
      ]

(* The naive interpreter: decoded rows in lists, nested loops, set
   semantics only at the end. *)
let rec naive rels expr =
  let index cols c =
    let rec go i = function
      | [] -> failwith ("naive: unknown column " ^ c)
      | c' :: rest -> if String.equal c c' then i else go (i + 1) rest
    in
    go 0 cols
  in
  match expr with
  | Core.Rewriting.Scan name -> List.assoc name rels
  | Core.Rewriting.Select (conds, e) ->
    let cols, rows = naive rels e in
    let holds row = function
      | Core.Rewriting.Eq_cst (c, t) -> Rdf.Term.equal (List.nth row (index cols c)) t
      | Core.Rewriting.Eq_col (a, b) ->
        Rdf.Term.equal (List.nth row (index cols a)) (List.nth row (index cols b))
    in
    (cols, List.filter (fun row -> List.for_all (holds row) conds) rows)
  | Core.Rewriting.Project (out, e) ->
    let cols, rows = naive rels e in
    (out, List.map (fun row -> List.map (fun c -> List.nth row (index cols c)) out) rows)
  | Core.Rewriting.Rename (mapping, e) ->
    let cols, rows = naive rels e in
    (List.map (fun c -> Option.value (List.assoc_opt c mapping) ~default:c) cols, rows)
  | Core.Rewriting.Join (conds, l, r) ->
    let lc, lrows = naive rels l and rc, rrows = naive rels r in
    let pairs =
      match conds with
      | [] -> List.filter_map (fun c -> if List.mem c lc then Some (c, c) else None) rc
      | _ :: _ -> conds
    in
    let kept = List.filter (fun c -> not (List.mem c lc)) rc in
    ( lc @ kept,
      List.concat_map
        (fun lrow ->
          List.filter_map
            (fun rrow ->
              let at cols row c = List.nth row (index cols c) in
              if List.for_all (fun (a, b) -> Rdf.Term.equal (at lc lrow a) (at rc rrow b)) pairs
              then Some (lrow @ List.map (at rc rrow) kept)
              else None)
            rrows)
        lrows )
  | Core.Rewriting.Union branches ->
    let results = List.map (naive rels) branches in
    (fst (List.hd results), List.concat_map snd results)

let arb_naive_case =
  let gen =
    QCheck.Gen.(
      pair (list_repeat (List.length naive_views) gen_naive_rows) (int_range 0 3 >>= gen_tree))
  in
  QCheck.make gen ~print:(fun (rows, (expr, _)) ->
      Printf.sprintf "%s over %s" (Core.Rewriting.to_string expr)
        (String.concat "; "
           (List.map2
              (fun (name, _) rows ->
                Printf.sprintf "%s: %d rows" name (List.length rows))
              naive_views rows)))

let prop_executor_matches_naive =
  QCheck.Test.make ~name:"executor = naive interpreter" ~count:500 arb_naive_case
    (fun (rows, (expr, cols)) ->
      let code t = Rdf.Store.encode_term naive_store t in
      let env =
        env_of_rels
          (List.map2
             (fun (name, vcols) rows ->
               Engine.Relation.make ~name ~cols:vcols (List.map (Array.map code) rows))
             naive_views rows)
      in
      let rels =
        List.map2
          (fun (name, vcols) rows -> (name, (vcols, List.map Array.to_list rows)))
          naive_views rows
      in
      let result = Engine.Executor.execute naive_store env expr in
      let got = List.map Array.to_list (Engine.Relation.to_term_rows naive_store result) in
      let naive_cols, naive_rows = naive rels expr in
      Engine.Relation.cols result = cols
      && naive_cols = cols
      && List.length got = Engine.Relation.cardinality result
      && List.sort_uniq compare got = List.sort compare got
      && List.sort compare got = List.sort_uniq compare naive_rows)

(* ---------- maintenance ---------------------------------------------------- *)

let parent_painting_view =
  cq ~name:"v" [ v "X"; v "Z" ]
    [
      atom (v "X") (c "ex:isParentOf") (v "Y");
      atom (v "Y") (c "ex:hasPainted") (v "Z");
    ]

let setup_maintenance () =
  let store = store_of museum in
  let rel = Engine.Materialize.materialize_cq store parent_painting_view in
  (store, [ (parent_painting_view, rel) ])

let test_insert_propagates () =
  let store, views = setup_maintenance () in
  let added =
    Engine.Maintenance.insert_triple store views
      (triple (uri "ex:monet") (uri "ex:isParentOf") (uri "ex:vincentJr"))
  in
  (* vincentJr painted sunflowers2, so monet gains a tuple *)
  check_int "one tuple added" 1 added;
  let _, rel = List.hd views in
  check_int "relation grew" 2 (Engine.Relation.cardinality rel)

let test_insert_duplicate_noop () =
  let store, views = setup_maintenance () in
  let added = Engine.Maintenance.insert_triple store views (List.hd museum) in
  check_int "nothing" 0 added

let test_delete_propagates () =
  let store, views = setup_maintenance () in
  let removed =
    Engine.Maintenance.delete_triple store views
      (triple (uri "ex:vincentJr") (uri "ex:hasPainted") (uri "ex:sunflowers2"))
  in
  check_int "one tuple removed" 1 removed;
  let _, rel = List.hd views in
  check_int "relation empty" 0 (Engine.Relation.cardinality rel)

let test_delete_keeps_alternative_derivations () =
  let store = store_of museum in
  ignore
    (Rdf.Store.add store
       (triple (uri "ex:vincentJr") (uri "ex:hasPainted") (uri "ex:sunflowers2")));
  (* second derivation path for the same tuple via another child *)
  ignore
    (Rdf.Store.add store
       (triple (uri "ex:vanGogh") (uri "ex:isParentOf") (uri "ex:paulJr")));
  ignore
    (Rdf.Store.add store
       (triple (uri "ex:paulJr") (uri "ex:hasPainted") (uri "ex:sunflowers2")));
  let rel = Engine.Materialize.materialize_cq store parent_painting_view in
  let views = [ (parent_painting_view, rel) ] in
  check_int "one tuple, two derivations" 1 (Engine.Relation.cardinality rel);
  let removed =
    Engine.Maintenance.delete_triple store views
      (triple (uri "ex:paulJr") (uri "ex:hasPainted") (uri "ex:sunflowers2"))
  in
  check_int "still derivable: no removal" 0 removed;
  check_int "tuple survives" 1 (Engine.Relation.cardinality rel)

(* Updates mix the generated vocabulary with a few terms no generated
   store holds, so maintenance meets codes its views' plans never saw. *)
let gen_update =
  let open QCheck.Gen in
  let fresh_triple =
    map3
      Rdf.Triple.make
      (oneof [ gen_entity; map (fun i -> uri (Printf.sprintf "new%d" i)) (int_range 0 2) ])
      gen_prop
      (map (fun i -> lit (Printf.sprintf "fresh%d" i)) (int_range 0 2))
  in
  pair bool (frequency [ (4, gen_data_triple); (1, fresh_triple) ])

let arb_maintenance_case =
  QCheck.(
    triple arb_backend_store
      (list_of_size (Gen.int_range 2 3) arb_cq)
      (list_of_size (Gen.return 20) (make gen_update)))

(* Several views share one update stream; afterwards each maintained
   relation holds exactly the rows of a fresh materialization. *)
let maintenance_matches_recompute (store, views, updates) =
  let views =
    List.mapi
      (fun i view ->
        let view = Query.Cq.rename view (Printf.sprintf "v%d" i) in
        (view, Engine.Materialize.materialize_cq store view))
      views
  in
  List.iter
    (fun (insert, tr) ->
      if insert then ignore (Engine.Maintenance.insert_triple store views tr)
      else ignore (Engine.Maintenance.delete_triple store views tr))
    updates;
  let sort rel =
    List.sort compare (List.map Array.to_list (Engine.Relation.to_term_rows store rel))
  in
  List.for_all
    (fun (view, rel) -> sort rel = sort (Engine.Materialize.materialize_cq store view))
    views

let prop_maintenance_matches_recompute =
  QCheck.Test.make ~name:"incremental maintenance = recompute from scratch" ~count:80
    arb_maintenance_case maintenance_matches_recompute

(* The same under RDFVIEWS_STRICT=1: every delta and re-derivation is
   also run through the Reference evaluator, which raises on a
   disagreement. *)
let prop_maintenance_strict =
  QCheck.Test.make ~name:"strict maintenance = recompute" ~count:30
    arb_maintenance_case (fun case ->
      Unix.putenv "RDFVIEWS_STRICT" "1";
      Fun.protect
        ~finally:(fun () -> Unix.putenv "RDFVIEWS_STRICT" "")
        (fun () -> maintenance_matches_recompute case))

let equals_recompute store (view, rel) =
  let sort rows = List.sort compare (List.map Array.to_list rows) in
  sort (Engine.Relation.to_term_rows store rel)
  = sort (Engine.Relation.to_term_rows store (Engine.Materialize.materialize_cq store view))

(* A view whose constant is absent at its first update is empty and
   gets no plan; once an insert brings the constant in, together with
   a matching triple, the view must be prepared again and gain the
   tuple. *)
let test_maintenance_absent_constant () =
  let store = store_of museum in
  let view =
    cq ~name:"v" [ v "X"; v "Z" ]
      [
        atom (v "X") (c "ex:hasPainted") (v "Y");
        atom (v "Y") (c "ex:exhibitedIn") (v "Z");
      ]
  in
  let views = [ (view, Engine.Materialize.materialize_cq store view) ] in
  let insert tr = Engine.Maintenance.insert_triple store views tr in
  check_int "constant absent: nothing added" 0
    (insert (triple (uri "ex:monet") (uri "ex:hasPainted") (uri "ex:impression")));
  check_int "the constant arrives with a match" 1
    (insert (triple (uri "ex:impression") (uri "ex:exhibitedIn") (uri "ex:orsay")));
  check_bool "maintained = recomputed" true (equals_recompute store (List.hd views));
  check_int "deleting the match removes the tuple" 1
    (Engine.Maintenance.delete_triple store views
       (triple (uri "ex:impression") (uri "ex:exhibitedIn") (uri "ex:orsay")));
  check_bool "maintained = recomputed after the delete" true
    (equals_recompute store (List.hd views))

(* Isomorphic views whose head variables differ in name and order, one
   of them with its atoms listed the other way round, maintained on one
   stream under strict mode: each keeps its own parameter order, so
   each equals its own recomputation. *)
let test_maintenance_isomorphic_views () =
  let store = store_of museum in
  let view name head x y z ~swap =
    let atoms =
      [ atom (v x) (c "ex:isParentOf") (v y); atom (v y) (c "ex:hasPainted") (v z) ]
    in
    cq ~name (List.map v head) (if swap then List.rev atoms else atoms)
  in
  let views =
    List.map
      (fun q -> (q, Engine.Materialize.materialize_cq store q))
      [
        view "v1" [ "X"; "Z" ] "X" "Y" "Z" ~swap:false;
        view "v2" [ "C"; "A" ] "A" "B" "C" ~swap:false;
        view "v3" [ "P"; "R" ] "P" "Q" "R" ~swap:true;
      ]
  in
  let t s p o = triple (uri s) (uri p) (uri o) in
  let stream =
    [
      (true, t "ex:monet" "ex:isParentOf" "ex:vincentJr");
      (true, t "ex:vincentJr" "ex:hasPainted" "ex:irises");
      (false, t "ex:vanGogh" "ex:isParentOf" "ex:vincentJr");
      (true, t "ex:monet" "ex:isParentOf" "ex:michel");
      (true, t "ex:michel" "ex:hasPainted" "ex:lilies");
      (false, t "ex:vincentJr" "ex:hasPainted" "ex:sunflowers2");
      (false, t "ex:monet" "ex:isParentOf" "ex:michel");
    ]
  in
  Unix.putenv "RDFVIEWS_STRICT" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "RDFVIEWS_STRICT" "")
    (fun () ->
      List.iter
        (fun (insert, tr) ->
          ignore
            ((if insert then Engine.Maintenance.insert_triple
              else Engine.Maintenance.delete_triple)
               store views tr
              : int);
          List.iter
            (fun ((q, _) as view) ->
              check_bool
                (Printf.sprintf "%s maintained = recomputed" q.Query.Cq.name)
                true (equals_recompute store view))
            views)
        stream);
  check_int "one entry per view" 3 (Engine.Maintenance.prepared_count store)

(* A delta runs the view's prepared plans with the update's codes: a
   long stream of fresh-literal updates interns no query, caches no
   plan, compiles no plan after the first pair and prepares the view
   once, and deleting what it inserted leaves the view as it was. *)
let test_maintenance_interns_nothing () =
  let store = Workload.Barton.store ~n_entities:3000 ~seed:1 () in
  let typed s =
    Rdf.Store.count_matching store
      { Rdf.Store.ps = Some s; pp = Some (Rdf.Store.encode_term store rdf_type); po = None }
    > 0
  in
  (* a typed subject of a property with literal objects *)
  let subject, prop =
    match
      List.find_opt
        (fun (t : Rdf.Triple.t) ->
          (match t.Rdf.Triple.o with Rdf.Term.Literal _ -> true | _ -> false)
          && typed (Rdf.Store.encode_term store t.Rdf.Triple.s))
        (Rdf.Store.to_triples store)
    with
    | Some t -> (t.Rdf.Triple.s, t.Rdf.Triple.p)
    | None -> Alcotest.fail "no typed subject with a literal-valued property"
  in
  let view =
    cq ~name:"v" [ v "X"; v "Y"; v "C" ]
      [
        atom (v "X") (Query.Qterm.Cst rdf_type) (v "C");
        atom (v "X") (Query.Qterm.Cst prop) (v "Y");
      ]
  in
  let rel = Engine.Materialize.materialize_cq store view in
  let views = [ (view, rel) ] in
  let rows () =
    List.sort compare (Engine.Relation.fold_rows (fun row acc -> Array.to_list row :: acc) rel [])
  in
  let initial = rows () in
  let interned = Interning.size () and plans = Query.Plan.cached_plan_count store in
  let added = ref 0 and compiled = ref 0 in
  for i = 1 to 2000 do
    let tr = triple subject prop (lit (Printf.sprintf "leak-%d" i)) in
    added := !added + Engine.Maintenance.insert_triple store views tr;
    ignore (Engine.Maintenance.delete_triple store views tr : int);
    if i = 1 then compiled := Engine.Maintenance.compiled_count store
  done;
  check_bool "the inserts reached the view" true (!added >= 2000);
  check_int "no query interned" interned (Interning.size ());
  check_int "no plan cached" plans (Query.Plan.cached_plan_count store);
  check_bool "the first pair compiled the view's plans" true (!compiled > 0);
  check_int "no plan compiled after the first pair" !compiled
    (Engine.Maintenance.compiled_count store);
  check_int "one prepared view" 1 (Engine.Maintenance.prepared_count store);
  check_bool "the view is back at its initial rows" true (rows () = initial)

(* Prepared views live on their store: 64 other stores, each
   maintaining a view of its own, leave a live store's memo alone. *)
let test_maintenance_memo_outlives_other_stores () =
  let store, views = setup_maintenance () in
  ignore
    (Engine.Maintenance.insert_triple store views
       (triple (uri "ex:monet") (uri "ex:isParentOf") (uri "ex:vincentJr"))
      : int);
  let prepared = Engine.Maintenance.prepared_count store in
  let compiled = Engine.Maintenance.compiled_count store in
  check_bool "the update prepared the view" true (prepared > 0 && compiled > 0);
  for i = 1 to 64 do
    let other, other_views = setup_maintenance () in
    ignore
      (Engine.Maintenance.insert_triple other other_views
         (triple (uri "ex:monet") (uri "ex:isParentOf") (uri (Printf.sprintf "ex:c%d" i)))
        : int)
  done;
  check_int "prepared views kept" prepared (Engine.Maintenance.prepared_count store);
  check_int "compiled plans kept" compiled (Engine.Maintenance.compiled_count store)

let () =
  Alcotest.run "engine"
    [
      ( "relation",
        [
          Alcotest.test_case "dedup" `Quick test_relation_dedup;
          Alcotest.test_case "add/remove" `Quick test_relation_add_remove;
          Alcotest.test_case "projection indices" `Quick
            test_relation_projection_indices;
        ] );
      ( "materialize",
        [
          Alcotest.test_case "single atom" `Quick test_materialize_single_atom;
          Alcotest.test_case "join view" `Quick test_materialize_join_view;
          Alcotest.test_case "ucq view" `Quick test_materialize_ucq;
          Alcotest.test_case "size in bytes" `Quick test_size_bytes_positive;
        ] );
      ( "executor",
        [
          Alcotest.test_case "selection" `Quick test_executor_select;
          Alcotest.test_case "selection on unknown constant" `Quick
            test_executor_select_unknown_constant;
          Alcotest.test_case "natural join" `Quick test_executor_join_natural;
          Alcotest.test_case "projection dedups" `Quick
            test_executor_project_dedups;
          Alcotest.test_case "rename and union" `Quick
            test_executor_rename_and_union;
          Alcotest.test_case "unknown view" `Quick test_executor_unknown_view;
          Alcotest.test_case "a view's answer is read in place" `Quick
            test_executor_view_in_place;
          Alcotest.test_case "a projection is hashed once" `Quick
            test_executor_project_hashes_once;
          to_alcotest prop_executor_matches_naive;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "insert propagates" `Quick test_insert_propagates;
          Alcotest.test_case "duplicate insert" `Quick test_insert_duplicate_noop;
          Alcotest.test_case "delete propagates" `Quick test_delete_propagates;
          Alcotest.test_case "alternative derivations survive" `Quick
            test_delete_keeps_alternative_derivations;
          to_alcotest prop_maintenance_matches_recompute;
          to_alcotest prop_maintenance_strict;
          Alcotest.test_case "updates intern and cache nothing" `Quick
            test_maintenance_interns_nothing;
          Alcotest.test_case "absent constant appears later" `Quick
            test_maintenance_absent_constant;
          Alcotest.test_case "isomorphic views keep their own plans" `Quick
            test_maintenance_isomorphic_views;
          Alcotest.test_case "a memo outlives other stores" `Quick
            test_maintenance_memo_outlives_other_stores;
        ] );
    ]
