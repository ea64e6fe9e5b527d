open Support

let spec shape n atoms commonality seed =
  {
    Workload.Generator.shape;
    n_queries = n;
    atoms_per_query = atoms;
    commonality;
    seed;
  }

let well_formed_workload queries n =
  check_int "query count" n (List.length queries);
  let names = List.map (fun q -> q.Query.Cq.name) queries in
  check_int "distinct names" n (List.length (List.sort_uniq compare names));
  List.iter
    (fun q ->
      check_bool ("connected: " ^ Query.Cq.to_string q) true
        (Query.State_graph.is_connected q);
      check_bool ("has constant: " ^ Query.Cq.to_string q) true
        (Query.Cq.constant_count q > 0);
      check_bool ("nonempty head: " ^ Query.Cq.to_string q) true
        (Query.Cq.arity q > 0))
    queries

(* ---------- synthetic generation ----------------------------------------- *)

let test_star_shape () =
  let queries =
    Workload.Generator.generate
      (spec Workload.Generator.Star 5 5 Workload.Generator.Low 3)
  in
  well_formed_workload queries 5;
  (* all atoms share the subject variable *)
  List.iter
    (fun q ->
      let subjects =
        List.filter_map
          (fun (a : Query.Atom.t) -> Query.Qterm.var_name a.s)
          q.Query.Cq.body
        |> List.sort_uniq compare
      in
      check_int "one subject" 1 (List.length subjects))
    queries

let test_chain_shape () =
  let queries =
    Workload.Generator.generate
      (spec Workload.Generator.Chain 5 6 Workload.Generator.Low 3)
  in
  well_formed_workload queries 5;
  List.iter
    (fun q -> check_int "six atoms" 6 (Query.Cq.atom_count q))
    queries

let test_cycle_closes () =
  let queries =
    Workload.Generator.generate
      (spec Workload.Generator.Cycle 3 4 Workload.Generator.Low 9)
  in
  well_formed_workload queries 3;
  List.iter
    (fun q ->
      let first = List.hd q.Query.Cq.body in
      let last = List.nth q.Query.Cq.body (Query.Cq.atom_count q - 1) in
      check_bool "cycle closed" true
        (Query.Qterm.equal last.Query.Atom.o first.Query.Atom.s))
    queries

let test_random_shapes () =
  List.iter
    (fun shape ->
      let queries =
        Workload.Generator.generate (spec shape 6 5 Workload.Generator.Low 11)
      in
      well_formed_workload queries 6)
    [ Workload.Generator.Random_sparse; Workload.Generator.Random_dense;
      Workload.Generator.Mixed ]

let test_deterministic () =
  let s = spec Workload.Generator.Star 4 5 Workload.Generator.High 42 in
  let a = Workload.Generator.generate s in
  let b = Workload.Generator.generate s in
  check_bool "same output for same seed" true
    (List.for_all2 Query.Cq.equal_syntactic a b);
  let c = Workload.Generator.generate { s with seed = 43 } in
  check_bool "different seed differs" true
    (not (List.for_all2 Query.Cq.equal_syntactic a c))

let test_commonality_shares_constants () =
  let count_distinct_constants queries =
    List.length
      (List.sort_uniq Rdf.Term.compare
         (List.concat_map Query.Cq.constants queries))
  in
  let high =
    Workload.Generator.generate
      (spec Workload.Generator.Star 10 8 Workload.Generator.High 5)
  in
  let low =
    Workload.Generator.generate
      (spec Workload.Generator.Star 10 8 Workload.Generator.Low 5)
  in
  check_bool "high commonality uses fewer distinct constants" true
    (count_distinct_constants high < count_distinct_constants low)

(* ---------- satisfiable generation ---------------------------------------- *)

let barton_store = Workload.Barton.store ~n_entities:120 ~seed:3 ()

let test_satisfiable_star () =
  let queries =
    Workload.Generator.generate_satisfiable barton_store
      (spec Workload.Generator.Star 5 3 Workload.Generator.Low 17)
  in
  check_int "five queries" 5 (List.length queries);
  List.iter
    (fun q ->
      check_bool
        ("non-empty: " ^ Query.Cq.to_string q)
        true
        (Query.Evaluation.eval_cq barton_store q <> []))
    queries

let test_satisfiable_chain () =
  let queries =
    Workload.Generator.generate_satisfiable barton_store
      (spec Workload.Generator.Chain 5 3 Workload.Generator.Low 23)
  in
  List.iter
    (fun q ->
      check_bool
        ("non-empty: " ^ Query.Cq.to_string q)
        true
        (Query.Evaluation.eval_cq barton_store q <> []))
    queries

(* The same triples under the same codes on both backends, added in
   code order and merged into the compact store's segments: every scan
   then returns its rows in the same order on both, while each backend
   enumerates a column's codes in its own index order. *)
let test_satisfiable_backend_independent () =
  let triples = Rdf.Store.to_triples barton_store in
  let hash = Rdf.Store.create () in
  let compact = Rdf.Store.create ~backend:Rdf.Backend.Compact () in
  let code term =
    let c = Rdf.Store.encode_term hash term in
    if Rdf.Store.encode_term compact term <> c then Alcotest.fail "codes differ";
    c
  in
  let encoded =
    List.map
      (fun { Rdf.Triple.s; p; o } ->
        let s = code s in
        let p = code p in
        (s, p, code o))
      triples
    |> List.sort compare
  in
  List.iter
    (fun tr ->
      ignore (Rdf.Store.add_encoded hash tr : bool);
      ignore (Rdf.Store.add_encoded compact tr : bool))
    encoded;
  Rdf.Store.compact compact;
  List.iter
    (fun shape ->
      let workload store =
        List.map Query.Cq.to_string
          (Workload.Generator.generate_satisfiable store
             (spec shape 6 3 Workload.Generator.High 29))
      in
      Alcotest.(check (list string))
        (Workload.Generator.shape_name shape)
        (workload hash) (workload compact))
    [ Workload.Generator.Star; Workload.Generator.Chain ]

(* ---------- Barton-like dataset ------------------------------------------- *)

let test_barton_schema_counts () =
  let schema = Workload.Barton.schema () in
  check_int "106 statements (§6.5)" 106 (Rdf.Schema.size schema);
  check_int "39 classes" 39 (List.length (Workload.Barton.classes ()));
  check_int "61 properties" 61 (List.length (Workload.Barton.properties ()));
  (* statement breakdown *)
  let stmts = Rdf.Schema.statements schema in
  let count pred = List.length (List.filter pred stmts) in
  check_int "38 subclass" 38
    (count (function Rdf.Schema.Subclass _ -> true | _ -> false));
  check_int "15 subproperty" 15
    (count (function Rdf.Schema.Subproperty _ -> true | _ -> false));
  check_int "30 domain" 30
    (count (function Rdf.Schema.Domain _ -> true | _ -> false));
  check_int "23 range" 23
    (count (function Rdf.Schema.Range _ -> true | _ -> false))

let test_barton_schema_classes_in_range () =
  let schema = Workload.Barton.schema () in
  let classes = Workload.Barton.classes () in
  List.iter
    (fun stmt ->
      match stmt with
      | Rdf.Schema.Subclass (a, b) ->
        check_bool "classes known" true (List.mem a classes && List.mem b classes)
      | Rdf.Schema.Domain (_, cls) | Rdf.Schema.Range (_, cls) ->
        check_bool "class known" true (List.mem cls classes)
      | Rdf.Schema.Subproperty _ -> ())
    (Rdf.Schema.statements schema)

let test_barton_store_deterministic () =
  let a = Workload.Barton.store ~n_entities:50 ~seed:9 () in
  let b = Workload.Barton.store ~n_entities:50 ~seed:9 () in
  check_int "same size" (Rdf.Store.size a) (Rdf.Store.size b)

let test_barton_saturation_grows () =
  let store = Workload.Barton.store ~n_entities:100 ~seed:2 () in
  let before = Rdf.Store.size store in
  let added = Rdf.Entailment.saturate store (Workload.Barton.schema ()) in
  check_bool "implicit triples exist" true (added > 0);
  check_bool "at least 20% implicit" true
    (float_of_int added > 0.2 *. float_of_int before)

let test_barton_schema_triples_variant () =
  let plain = Workload.Barton.store ~n_entities:30 ~seed:4 () in
  let with_schema =
    Workload.Barton.store_with_schema_triples ~n_entities:30 ~seed:4 ()
  in
  check_int "106 extra triples" (Rdf.Store.size plain + 106)
    (Rdf.Store.size with_schema)

let prop_generated_queries_are_minimal =
  QCheck.Test.make ~name:"generated chain/star queries are minimal" ~count:30
    QCheck.(pair (make Gen.(int_range 0 1000)) (make Gen.(int_range 2 6)))
    (fun (seed, atoms) ->
      let queries =
        Workload.Generator.generate
          (spec Workload.Generator.Chain 3 atoms Workload.Generator.Low seed)
      in
      List.for_all Query.Cq.is_minimal queries)

let () =
  Alcotest.run "workload"
    [
      ( "generator",
        [
          Alcotest.test_case "star" `Quick test_star_shape;
          Alcotest.test_case "chain" `Quick test_chain_shape;
          Alcotest.test_case "cycle" `Quick test_cycle_closes;
          Alcotest.test_case "random and mixed" `Quick test_random_shapes;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "commonality" `Quick
            test_commonality_shares_constants;
          to_alcotest prop_generated_queries_are_minimal;
        ] );
      ( "satisfiable",
        [
          Alcotest.test_case "stars have answers" `Quick test_satisfiable_star;
          Alcotest.test_case "chains have answers" `Quick test_satisfiable_chain;
          Alcotest.test_case "same workload on both backends" `Quick
            test_satisfiable_backend_independent;
        ] );
      ( "barton",
        [
          Alcotest.test_case "schema counts" `Quick test_barton_schema_counts;
          Alcotest.test_case "schema well-formed" `Quick
            test_barton_schema_classes_in_range;
          Alcotest.test_case "deterministic store" `Quick
            test_barton_store_deterministic;
          Alcotest.test_case "saturation grows" `Quick
            test_barton_saturation_grows;
          Alcotest.test_case "schema-triples variant" `Quick
            test_barton_schema_triples_variant;
        ] );
    ]
