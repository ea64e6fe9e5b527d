open Support

let painting = uri "ex:painting"
let masterpiece = uri "ex:masterpiece"
let work = uri "ex:work"
let has_painted = uri "ex:hasPainted"
let has_created = uri "ex:hasCreated"

let schema =
  Rdf.Schema.of_statements
    [
      Rdf.Schema.Subclass (painting, masterpiece);
      Rdf.Schema.Subclass (masterpiece, work);
      Rdf.Schema.Subproperty (has_painted, has_created);
      Rdf.Schema.Range (has_painted, painting);
    ]

let base_triple = triple (uri "u") has_painted (uri "starry")

let setup () =
  Rdf.Incremental.create schema (store_of [ base_triple ])

let explicit_triples t =
  List.filter
    (fun tr -> Rdf.Incremental.is_explicit t tr)
    (Rdf.Store.to_triples (Rdf.Incremental.store t))

let consistent_with_scratch t =
  let from_scratch =
    Rdf.Entailment.saturated_copy
      (Rdf.Store.of_triples (explicit_triples t))
      (Rdf.Incremental.schema t)
  in
  let current =
    List.sort compare
      (List.map Rdf.Triple.to_string (Rdf.Store.to_triples (Rdf.Incremental.store t)))
  in
  let expected =
    List.sort compare
      (List.map Rdf.Triple.to_string (Rdf.Store.to_triples from_scratch))
  in
  current = expected

let test_create_saturates () =
  let t = setup () in
  check_int "one explicit" 1 (Rdf.Incremental.explicit_count t);
  (* hasCreated + type painting/masterpiece/work *)
  check_int "four implicit" 4 (Rdf.Incremental.implicit_count t);
  check_bool "consistent" true (consistent_with_scratch t)

let test_insert_propagates () =
  let t = setup () in
  let added =
    Rdf.Incremental.insert t (triple (uri "v") has_painted (uri "mona"))
  in
  (* the triple + hasCreated + 3 type triples for mona *)
  check_int "five additions" 5 added;
  check_bool "consistent" true (consistent_with_scratch t)

let test_insert_existing_implicit () =
  let t = setup () in
  (* (starry type painting) is implicit; making it explicit adds nothing *)
  let added = Rdf.Incremental.insert t (triple (uri "starry") rdf_type painting) in
  check_int "no new triples" 0 added;
  check_bool "now explicit" true
    (Rdf.Incremental.is_explicit t (triple (uri "starry") rdf_type painting));
  check_bool "consistent" true (consistent_with_scratch t)

let test_delete_retracts_unsupported () =
  let t = setup () in
  let removed = Rdf.Incremental.delete t base_triple in
  (* everything came from this triple *)
  check_int "all five go" 5 removed;
  check_int "store empty" 0 (Rdf.Store.size (Rdf.Incremental.store t));
  check_bool "consistent" true (consistent_with_scratch t)

let test_delete_keeps_supported () =
  let t = setup () in
  (* a second painter of the same work keeps starry's typings alive *)
  ignore (Rdf.Incremental.insert t (triple (uri "w") has_painted (uri "starry")));
  let removed = Rdf.Incremental.delete t base_triple in
  (* only (u hasPainted starry), (u hasCreated starry) disappear *)
  check_int "two removed" 2 removed;
  check_bool "typing survives" true
    (Rdf.Store.mem (Rdf.Incremental.store t) (triple (uri "starry") rdf_type painting));
  check_bool "consistent" true (consistent_with_scratch t)

let test_delete_explicit_also_derivable () =
  let t = setup () in
  (* assert the implicit hasCreated explicitly, then delete it: it must
     survive as implicit *)
  let created = triple (uri "u") has_created (uri "starry") in
  ignore (Rdf.Incremental.insert t created);
  let removed = Rdf.Incremental.delete t created in
  check_int "nothing leaves the store" 0 removed;
  check_bool "still present (implicit)" true
    (Rdf.Store.mem (Rdf.Incremental.store t) created);
  check_bool "no longer explicit" false (Rdf.Incremental.is_explicit t created);
  check_bool "consistent" true (consistent_with_scratch t)

let test_delete_nonexplicit_noop () =
  let t = setup () in
  let implied = triple (uri "starry") rdf_type work in
  check_int "no-op" 0 (Rdf.Incremental.delete t implied);
  check_bool "still there" true (Rdf.Store.mem (Rdf.Incremental.store t) implied)

let test_cyclic_schema () =
  let cyclic =
    Rdf.Schema.of_statements
      [
        Rdf.Schema.Subclass (uri "A", uri "B");
        Rdf.Schema.Subclass (uri "B", uri "A");
      ]
  in
  let t =
    Rdf.Incremental.create cyclic (store_of [ triple (uri "x") rdf_type (uri "A") ])
  in
  check_int "A and B" 2 (Rdf.Store.size (Rdf.Incremental.store t));
  let removed = Rdf.Incremental.delete t (triple (uri "x") rdf_type (uri "A")) in
  (* the self-supporting cycle must not keep itself alive *)
  check_int "both retract" 2 removed;
  check_int "empty" 0 (Rdf.Store.size (Rdf.Incremental.store t))

(* Read-only calls must not assign codes to terms they look up. *)
let test_lookups_keep_dictionary () =
  let t = setup () in
  let dict_size () = Rdf.Store.dict_size (Rdf.Incremental.store t) in
  let before = dict_size () in
  let unknown = triple (uri "nobody") (uri "ex:knows") (uri "nothing") in
  check_bool "unknown is not explicit" false (Rdf.Incremental.is_explicit t unknown);
  check_int "unknown delete is a no-op" 0 (Rdf.Incremental.delete t unknown);
  check_int "dictionary unchanged" before (dict_size ())

(* Updates are count arithmetic over the closure: neither reads a row
   of the store's indexes.  The witness is the hash store's first-read
   indexing: a store that no read has indexed yet still grows when
   [compact] indexes it.  The control shows that one scan is enough to
   index it, after which [compact] adds nothing. *)
let test_updates_scan_nothing () =
  let compact_grows t =
    let st = Rdf.Incremental.store t in
    let before = Rdf.Store.resident_bytes st in
    Rdf.Store.compact st;
    Rdf.Store.resident_bytes st > before
  in
  let t = setup () in
  let mona = triple (uri "v") has_painted (uri "mona") in
  check_int "insert adds five" 5 (Rdf.Incremental.insert t mona);
  check_int "delete removes five" 5 (Rdf.Incremental.delete t base_triple);
  check_bool "no update read an index" true (compact_grows t);
  let t = setup () in
  let st = Rdf.Incremental.store t in
  let u = Option.get (Rdf.Store.find_term st (uri "u")) in
  ignore (Rdf.Store.scan1 st `S u : int array * int);
  check_bool "a scan indexes the store" false (compact_grows t)

(* ---------- support paths -------------------------------------------- *)

(* Each fixture deletes (u hasPainted starry) while another explicit
   triple keeps some of its consequences through one rule. *)
let artist = uri "ex:artist"
let title = uri "ex:title"
let has_sketched = uri "ex:hasSketched"
let has_title = uri "ex:hasTitle"

let paths_schema =
  Rdf.Schema.of_statements
    [
      Rdf.Schema.Subclass (painting, masterpiece);
      Rdf.Schema.Subclass (masterpiece, work);
      Rdf.Schema.Subproperty (has_painted, has_created);
      Rdf.Schema.Subproperty (has_sketched, has_created);
      Rdf.Schema.Range (has_painted, painting);
      Rdf.Schema.Domain (has_created, artist);
      Rdf.Schema.Range (has_title, title);
    ]

(* Delete, checking that the store is written once per triple removed. *)
let delete_counted t tr =
  let before = Rdf.Store.version (Rdf.Incremental.store t) in
  let removed = Rdf.Incremental.delete t tr in
  check_int "one write per removed triple" removed
    (Rdf.Store.version (Rdf.Incremental.store t) - before);
  check_bool "consistent" true (consistent_with_scratch t);
  removed

(* Looked up by codes: a range rule may type a literal, which no
   [Triple.t] can hold as a subject. *)
let in_store t (s, p, o) =
  let st = Rdf.Incremental.store t in
  match List.map (Rdf.Store.find_term st) [ s; p; o ] with
  | [ Some s; Some p; Some o ] -> Rdf.Store.mem_encoded st (s, p, o)
  | _ -> false

let show (s, p, o) = String.concat " " (List.map Rdf.Term.to_string [ s; p; o ])
let survives t tr = check_bool (show tr ^ " survives") true (in_store t tr)
let gone t tr = check_bool (show tr ^ " is gone") false (in_store t tr)

let painted = triple (uri "u") has_painted (uri "starry")

let test_supported_by_type_triple () =
  let t =
    Rdf.Incremental.create paths_schema
      (store_of [ painted; triple (uri "starry") rdf_type painting ])
  in
  (* painted, (u hasCreated starry), (u type artist) *)
  check_int "three removed" 3 (delete_counted t painted);
  List.iter (fun c -> survives t (uri "starry", rdf_type, c))
    [ painting; masterpiece; work ];
  gone t (uri "u", rdf_type, artist)

let test_supported_by_domain () =
  let t =
    Rdf.Incremental.create paths_schema
      (store_of [ painted; triple (uri "u") has_created (uri "guernica") ])
  in
  (* painted, (u hasCreated starry) and starry's three typings *)
  check_int "five removed" 5 (delete_counted t painted);
  survives t (uri "u", rdf_type, artist);
  gone t (uri "starry", rdf_type, painting)

let test_supported_by_range () =
  let titled who = triple (uri who) has_title (lit "Starry Night") in
  let typed = (lit "Starry Night", rdf_type, title) in
  let t =
    Rdf.Incremental.create paths_schema
      (store_of [ titled "u"; titled "v"; painted; triple (uri "w") has_painted (uri "starry") ])
  in
  check_int "only the title goes" 1 (delete_counted t (titled "u"));
  survives t typed;
  check_int "the literal's typing goes with the last title" 2
    (delete_counted t (titled "v"));
  gone t typed;
  (* painted, (u hasCreated starry), (u type artist) *)
  check_int "starry stays a painting" 3 (delete_counted t painted);
  survives t (uri "starry", rdf_type, work)

let test_supported_by_subproperty () =
  let t =
    Rdf.Incremental.create paths_schema
      (store_of [ painted; triple (uri "u") has_sketched (uri "starry") ])
  in
  (* painted and starry's three typings *)
  check_int "four removed" 4 (delete_counted t painted);
  survives t (uri "u", has_created, uri "starry");
  survives t (uri "u", rdf_type, artist)

(* (x type C) is reached twice from (x p C): through p ⊑p rdf:type and
   through domain(p) = C.  It keeps both visits' counts, so it survives
   either one of its two explicit supporters and leaves with both. *)
let test_two_rules_one_supporter () =
  let p = uri "ex:p" and q = uri "ex:q" and cls = uri "ex:C" in
  let schema =
    Rdf.Schema.of_statements
      [
        Rdf.Schema.Subproperty (p, rdf_type);
        Rdf.Schema.Domain (p, cls);
        Rdf.Schema.Domain (q, cls);
      ]
  in
  let twice = triple (uri "x") p cls and once = triple (uri "x") q (uri "y") in
  let typed = (uri "x", rdf_type, cls) in
  List.iter
    (fun (first, second) ->
      let t = Rdf.Incremental.create schema (store_of [ twice; once ]) in
      check_int "the first supporter alone goes" 1 (delete_counted t first);
      survives t typed;
      check_int "the typing goes with the second" 2 (delete_counted t second);
      gone t typed)
    [ (twice, once); (once, twice) ]

let test_subproperty_cycle () =
  let p1 = uri "P1" and p2 = uri "P2" and c = uri "C" in
  let cyclic =
    Rdf.Schema.of_statements
      [
        Rdf.Schema.Subproperty (p1, p2);
        Rdf.Schema.Subproperty (p2, p1);
        Rdf.Schema.Domain (p1, c);
      ]
  in
  let base = triple (uri "x") p1 (uri "y") in
  let t = Rdf.Incremental.create cyclic (store_of [ base ]) in
  check_int "P1, P2 and the typing" 3 (Rdf.Store.size (Rdf.Incremental.store t));
  check_int "all three retract" 3 (delete_counted t base);
  check_int "empty" 0 (Rdf.Store.size (Rdf.Incremental.store t))

(* Drawn statements plus a class cycle and a property cycle over names
   the data uses. *)
let arb_cyclic_schema =
  let cycles =
    Rdf.Schema.
      [
        Subclass (uri "C0", uri "C1");
        Subclass (uri "C1", uri "C0");
        Subproperty (uri "P0", uri "P1");
        Subproperty (uri "P1", uri "P0");
      ]
  in
  QCheck.make
    ~print:Rdf.Schema.to_string
    (QCheck.Gen.map
       (fun s -> Rdf.Schema.of_statements (Rdf.Schema.statements s @ cycles))
       gen_schema)

let arb_updates =
  QCheck.(
    list_of_size (Gen.return 10)
      (triple (int_range 0 3) (make gen_data_triple) small_nat))

(* Half the deletes pick a currently explicit triple (a random one is
   mostly absent, a no-op), in an order that does not depend on codes. *)
let apply t (op, tr, pick) =
  match (op, List.sort compare (explicit_triples t)) with
  | (0 | 1), _ -> Rdf.Incremental.insert t tr
  | 3, (_ :: _ as explicit) ->
    Rdf.Incremental.delete t (List.nth explicit (pick mod List.length explicit))
  | _ -> Rdf.Incremental.delete t tr

let decoded t =
  List.sort compare
    (List.map Rdf.Triple.to_string (Rdf.Store.to_triples (Rdf.Incremental.store t)))

(* Every update must write the store exactly as many times as the count
   it returns: no triple is removed and then added back. *)
let prop_matches_scratch_saturation =
  QCheck.Test.make
    ~name:"incremental saturation = from-scratch saturation of the explicit set"
    ~count:100
    QCheck.(
      quad (make gen_backend)
        (make (Gen.list_size (Gen.int_range 3 30) gen_data_triple))
        arb_cyclic_schema arb_updates)
    (fun (kind, triples, schema, updates) ->
      let t = Rdf.Incremental.create schema (store_on kind triples) in
      List.for_all
        (fun update ->
          let before = Rdf.Store.version (Rdf.Incremental.store t) in
          let changed = apply t update in
          Rdf.Store.version (Rdf.Incremental.store t) - before = changed
          && consistent_with_scratch t)
        updates)

(* Loading the same triples in reverse order gives them other codes;
   the counts and so the decoded store must not depend on them. *)
let prop_code_order =
  QCheck.Test.make ~name:"two load orders, one decoded store" ~count:100
    QCheck.(
      quad (make gen_backend)
        (make (Gen.list_size (Gen.int_range 3 30) gen_data_triple))
        arb_cyclic_schema arb_updates)
    (fun (kind, triples, schema, updates) ->
      let a = Rdf.Incremental.create schema (store_on kind triples) in
      let b = Rdf.Incremental.create schema (store_on kind (List.rev triples)) in
      List.for_all (fun u -> apply a u = apply b u && decoded a = decoded b) updates)

let prop_counts_consistent =
  QCheck.Test.make ~name:"explicit + implicit = store size" ~count:50
    QCheck.(pair arb_store arb_schema)
    (fun (store, schema) ->
      let t = Rdf.Incremental.create schema store in
      Rdf.Incremental.explicit_count t + Rdf.Incremental.implicit_count t
      = Rdf.Store.size (Rdf.Incremental.store t))

let () =
  Alcotest.run "incremental"
    [
      ( "basics",
        [
          Alcotest.test_case "create saturates" `Quick test_create_saturates;
          Alcotest.test_case "insert propagates" `Quick test_insert_propagates;
          Alcotest.test_case "insert existing implicit" `Quick
            test_insert_existing_implicit;
        ] );
      ( "delete",
        [
          Alcotest.test_case "retracts unsupported" `Quick
            test_delete_retracts_unsupported;
          Alcotest.test_case "keeps supported" `Quick test_delete_keeps_supported;
          Alcotest.test_case "explicit + derivable survives" `Quick
            test_delete_explicit_also_derivable;
          Alcotest.test_case "non-explicit no-op" `Quick
            test_delete_nonexplicit_noop;
          Alcotest.test_case "self-supporting cycles retract" `Quick
            test_cyclic_schema;
          Alcotest.test_case "sub-property cycles retract" `Quick
            test_subproperty_cycle;
          Alcotest.test_case "lookups keep the dictionary" `Quick
            test_lookups_keep_dictionary;
          Alcotest.test_case "updates scan no index" `Quick
            test_updates_scan_nothing;
        ] );
      ( "support",
        [
          Alcotest.test_case "type triple" `Quick test_supported_by_type_triple;
          Alcotest.test_case "domain" `Quick test_supported_by_domain;
          Alcotest.test_case "range, literal object" `Quick test_supported_by_range;
          Alcotest.test_case "sub-property" `Quick test_supported_by_subproperty;
          Alcotest.test_case "two rules, one supporter" `Quick
            test_two_rules_one_supporter;
        ] );
      ( "properties",
        [
          to_alcotest prop_matches_scratch_saturation;
          to_alcotest prop_counts_consistent;
          to_alcotest prop_code_order;
        ] );
    ]
