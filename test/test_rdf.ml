open Support

(* ---------- terms ------------------------------------------------------- *)

let test_term_roundtrip () =
  let terms =
    [
      uri "http://example.org/a"; uri "bare"; uri "Painting"; uri "type";
      rdf_type; blank "b1"; lit "hello world"; uri "\"k\""; uri ""; lit "a:b";
    ]
  in
  List.iter
    (fun t ->
      check_bool (Rdf.Term.to_string t) true
        (Rdf.Term.equal t (read_term (Rdf.Term.to_string t))))
    terms

let test_term_order () =
  check_bool "uri < blank" true (Rdf.Term.compare (uri "z") (blank "a") < 0);
  check_bool "blank < literal" true (Rdf.Term.compare (blank "z") (lit "a") < 0);
  check_bool "same label different kind" false
    (Rdf.Term.equal (uri "x") (lit "x"))

let test_term_predicates () =
  check_bool "is_uri" true (Rdf.Term.is_uri (uri "a"));
  check_bool "is_blank" true (Rdf.Term.is_blank (blank "a"));
  check_bool "is_literal" true (Rdf.Term.is_literal (lit "a"));
  check_int "size" 5 (Rdf.Term.size (lit "hello"))

(* [Term.hash] is FNV-1a over the label, seeded by the constructor
   rank; pinned against the recurrence written out here and against
   fixed values, so a faster loop cannot change a hash. *)
(* A key written into a buffer is the key: the canonical forms spell
   constants through [add_key]. *)
let test_term_add_key () =
  List.iter
    (fun t ->
      let b = Buffer.create 8 in
      Buffer.add_string b "x";
      Rdf.Term.add_key b t;
      check_string (Rdf.Term.to_string t) ("x" ^ Rdf.Term.key t) (Buffer.contents b))
    colliding_constants

let test_term_hash_fnv () =
  let fnv1a rank label =
    String.fold_left
      (fun h ch -> (h lxor Char.code ch) * 0x01000193 land max_int)
      (0x811c9dc5 lxor rank) label
  in
  List.iter
    (fun (make, rank, label, pinned) ->
      let t = make label in
      let name = Rdf.Term.to_string t in
      check_int ("fnv-1a " ^ name) (fnv1a rank label) (Rdf.Term.hash t);
      check_int ("pinned " ^ name) pinned (Rdf.Term.hash t))
    [
      (uri, 0, "", 2166136261);
      (uri, 0, "http://example.org/a", 3492095714563561263);
      (blank, 1, "b1", 3758069508379107289);
      (lit, 2, "hello world", 542208699758676181);
      (lit, 2, "\xff\x00z", 2370577293968899494);
    ]

let prop_term_compare_total =
  QCheck.Test.make ~name:"term compare is antisymmetric and transitive-ish"
    ~count:200
    QCheck.(triple (make gen_uri) (make gen_object) (make gen_object))
    (fun (a, b, cc) ->
      let cmp = Rdf.Term.compare in
      let sgn x = Stdlib.compare x 0 in
      sgn (cmp a b) = -sgn (cmp b a)
      && ((not (cmp a b < 0 && cmp b cc < 0)) || cmp a cc < 0))

(* ---------- triples ----------------------------------------------------- *)

let test_triple_well_formed () =
  check_bool "uri subject ok" true
    (Rdf.Triple.well_formed { s = uri "a"; p = uri "p"; o = lit "x" });
  check_bool "blank subject ok" true
    (Rdf.Triple.well_formed { s = blank "b"; p = uri "p"; o = uri "x" });
  check_bool "literal subject bad" false
    (Rdf.Triple.well_formed { s = lit "a"; p = uri "p"; o = uri "x" });
  check_bool "blank property bad" false
    (Rdf.Triple.well_formed { s = uri "a"; p = blank "p"; o = uri "x" })

let test_triple_make_raises () =
  Alcotest.check_raises "ill-formed triple"
    (Invalid_argument
       "Triple.make: ill-formed triple \"a\" <ex:p> \"x\" .")
    (fun () -> ignore (triple (lit "a") (uri "ex:p") (lit "x")))

(* ---------- dictionary -------------------------------------------------- *)

let test_dictionary_roundtrip () =
  let d = Rdf.Dictionary.create () in
  let terms = [ uri "a"; uri "b"; lit "a"; blank "a" ] in
  let codes = List.map (Rdf.Dictionary.encode d) terms in
  check_int "distinct codes" 4 (List.length (List.sort_uniq compare codes));
  List.iter2
    (fun t code ->
      check_bool "decode inverse" true
        (Rdf.Term.equal t (Rdf.Dictionary.decode d code)))
    terms codes;
  check_int "stable re-encode" (List.hd codes)
    (Rdf.Dictionary.encode d (uri "a"));
  check_int "size" 4 (Rdf.Dictionary.size d)

let test_dictionary_growth () =
  let d = Rdf.Dictionary.create () in
  for i = 0 to 4999 do
    ignore (Rdf.Dictionary.encode d (uri (Printf.sprintf "u%d" i)))
  done;
  check_int "5000 codes" 5000 (Rdf.Dictionary.size d);
  check_bool "decode big" true
    (Rdf.Term.equal (uri "u4321") (Rdf.Dictionary.decode d
       (Rdf.Dictionary.encode d (uri "u4321"))))

let test_dictionary_unknown_code () =
  let d = Rdf.Dictionary.create () in
  Alcotest.check_raises "unknown code" Not_found (fun () ->
      ignore (Rdf.Dictionary.decode d 42))

(* ---------- store ------------------------------------------------------- *)

let sample_triples =
  [
    triple (uri "a") (uri "p") (uri "b");
    triple (uri "a") (uri "p") (uri "c");
    triple (uri "a") (uri "q") (uri "b");
    triple (uri "d") (uri "p") (uri "b");
    triple (uri "d") (uri "q") (lit "x");
  ]

let test_store_add_mem () =
  let s = store_of sample_triples in
  check_int "size" 5 (Rdf.Store.size s);
  List.iter (fun tr -> check_bool "mem" true (Rdf.Store.mem s tr)) sample_triples;
  check_bool "dup insert" false (Rdf.Store.add s (List.hd sample_triples));
  check_int "size unchanged" 5 (Rdf.Store.size s)

let test_store_remove () =
  let s = store_of sample_triples in
  check_bool "remove present" true (Rdf.Store.remove s (List.hd sample_triples));
  check_bool "remove absent" false (Rdf.Store.remove s (List.hd sample_triples));
  check_int "size" 4 (Rdf.Store.size s);
  check_bool "gone" false (Rdf.Store.mem s (List.hd sample_triples))

let encode_pattern s (ps, pp, po) =
  let enc = Option.map (Rdf.Store.encode_term s) in
  { Rdf.Store.ps = enc ps; pp = enc pp; po = enc po }

let test_store_counts () =
  let s = store_of sample_triples in
  let count pat = Rdf.Store.count_matching s (encode_pattern s pat) in
  check_int "all" 5 (count (None, None, None));
  check_int "s=a" 3 (count (Some (uri "a"), None, None));
  check_int "p=p" 3 (count (None, Some (uri "p"), None));
  check_int "o=b" 3 (count (None, None, Some (uri "b")));
  check_int "s=a,p=p" 2 (count (Some (uri "a"), Some (uri "p"), None));
  check_int "p=q,o=x" 1 (count (None, Some (uri "q"), Some (lit "x")));
  check_int "full triple" 1
    (count (Some (uri "a"), Some (uri "p"), Some (uri "b")));
  check_int "absent" 0 (count (Some (uri "zz"), None, None))

let test_store_distinct () =
  let s = store_of sample_triples in
  check_int "distinct s" 2 (Rdf.Store.distinct_in_column s `S);
  check_int "distinct p" 2 (Rdf.Store.distinct_in_column s `P);
  check_int "distinct o" 3 (Rdf.Store.distinct_in_column s `O)

let test_store_copy_independent () =
  let s = store_of sample_triples in
  let s' = Rdf.Store.copy s in
  let terms =
    List.concat_map (fun (tr : Rdf.Triple.t) -> [ tr.s; tr.p; tr.o ]) sample_triples
  in
  check_bool "every term keeps its code" true
    (List.for_all (fun t -> Rdf.Store.find_term s' t = Rdf.Store.find_term s t) terms);
  let codes = Rdf.Store.dict_size s in
  ignore (Rdf.Store.add s' (triple (uri "new") (uri "p") (uri "b")));
  check_int "copy grew" 6 (Rdf.Store.size s');
  check_int "original unchanged" 5 (Rdf.Store.size s);
  check_int "copy encoded the new term" (codes + 1) (Rdf.Store.dict_size s');
  check_int "original dictionary unchanged" codes (Rdf.Store.dict_size s)

let test_store_roundtrip () =
  let s = store_of sample_triples in
  let back = List.sort Rdf.Triple.compare (Rdf.Store.to_triples s) in
  let expected = List.sort Rdf.Triple.compare sample_triples in
  check_bool "to_triples roundtrip" true
    (List.for_all2 Rdf.Triple.equal back expected)

let prop_count_matches_bruteforce =
  QCheck.Test.make ~name:"count_matching equals brute force" ~count:150
    QCheck.(
      pair arb_store
        (triple (option (make gen_entity)) (option (make gen_prop))
           (option (make gen_object))))
    (fun (s, (ps, pp, po)) ->
      let pat = encode_pattern s (ps, pp, po) in
      let by_index = Rdf.Store.count_matching s pat in
      let matches (tr : Rdf.Triple.t) =
        let ok part = function
          | None -> true
          | Some t -> Rdf.Term.equal t part
        in
        ok tr.Rdf.Triple.s ps && ok tr.Rdf.Triple.p pp && ok tr.Rdf.Triple.o po
      in
      let brute = List.length (List.filter matches (Rdf.Store.to_triples s)) in
      by_index = brute)

let prop_remove_then_absent =
  QCheck.Test.make ~name:"insert/remove round trip" ~count:100 arb_store
    (fun s ->
      let triples = Rdf.Store.to_triples s in
      List.iter (fun tr -> ignore (Rdf.Store.remove s tr)) triples;
      Rdf.Store.size s = 0)

(* ---------- schema ------------------------------------------------------ *)

let painting = uri "ex:painting"
let masterpiece = uri "ex:masterpiece"
let work = uri "ex:work"
let has_painted = uri "ex:hasPainted"
let has_created = uri "ex:hasCreated"

let sample_schema =
  Rdf.Schema.of_statements
    [
      Rdf.Schema.Subclass (painting, masterpiece);
      Rdf.Schema.Subclass (masterpiece, work);
      Rdf.Schema.Subproperty (has_painted, has_created);
      Rdf.Schema.Range (has_painted, painting);
      Rdf.Schema.Domain (has_created, uri "ex:creator");
    ]

let test_schema_accessors () =
  check_int "size" 5 (Rdf.Schema.size sample_schema);
  check_int "classes" 4 (List.length (Rdf.Schema.classes sample_schema));
  check_int "properties" 2 (List.length (Rdf.Schema.properties sample_schema));
  check_bool "direct subclass" true
    (List.mem painting (Rdf.Schema.direct_subclasses sample_schema masterpiece));
  check_bool "domain lookup" true
    (List.mem (uri "ex:creator") (Rdf.Schema.domains_of sample_schema has_created));
  check_bool "props with range" true
    (List.mem has_painted (Rdf.Schema.properties_with_range sample_schema painting))

let test_schema_closure () =
  let supers = Rdf.Schema.superclasses_closure sample_schema painting in
  check_bool "masterpiece in closure" true (List.mem masterpiece supers);
  check_bool "work in closure (transitive)" true (List.mem work supers);
  check_bool "self not in closure" false (List.mem painting supers);
  let subs = Rdf.Schema.subclasses_closure sample_schema work in
  check_bool "painting below work" true (List.mem painting subs)

let test_schema_closure_cycle () =
  let cyclic =
    Rdf.Schema.of_statements
      [
        Rdf.Schema.Subclass (uri "A", uri "B");
        Rdf.Schema.Subclass (uri "B", uri "A");
      ]
  in
  let closure = Rdf.Schema.superclasses_closure cyclic (uri "A") in
  check_bool "terminates on cycles" true (List.mem (uri "B") closure)

let test_schema_triples_roundtrip () =
  let triples = Rdf.Schema.to_triples sample_schema in
  check_int "five triples" 5 (List.length triples);
  let back = Rdf.Schema.of_triples triples in
  check_int "roundtrip size" 5 (Rdf.Schema.size back);
  check_bool "same statements" true
    (List.sort compare (Rdf.Schema.statements back)
    = List.sort compare (Rdf.Schema.statements sample_schema))

let test_schema_dedup () =
  let s =
    Rdf.Schema.of_statements
      [ Rdf.Schema.Subclass (painting, work); Rdf.Schema.Subclass (painting, work) ]
  in
  check_int "duplicates ignored" 1 (Rdf.Schema.size s)

(* ---------- entailment -------------------------------------------------- *)

let test_saturation_example () =
  (* the §4.1 example: hasPainted ⊑ hasCreated, painting ⊑ masterpiece ⊑
     work, range(hasPainted) = painting *)
  let s =
    store_of [ triple (uri "u") has_painted (uri "starry") ]
  in
  let added = Rdf.Entailment.saturate s sample_schema in
  let expect tr = check_bool (Rdf.Triple.to_string tr) true (Rdf.Store.mem s tr) in
  expect (triple (uri "u") has_created (uri "starry"));
  expect (triple (uri "starry") rdf_type painting);
  expect (triple (uri "starry") rdf_type masterpiece);
  expect (triple (uri "starry") rdf_type work);
  (* domain of hasCreated types u *)
  expect (triple (uri "u") rdf_type (uri "ex:creator"));
  check_int "exactly five implicit triples" 5 added

let test_saturation_idempotent () =
  let s = store_of [ triple (uri "u") has_painted (uri "starry") ] in
  ignore (Rdf.Entailment.saturate s sample_schema);
  let again = Rdf.Entailment.saturate s sample_schema in
  check_int "second saturation adds nothing" 0 again

let test_saturated_copy_preserves_original () =
  let s = store_of [ triple (uri "u") has_painted (uri "starry") ] in
  let sat = Rdf.Entailment.saturated_copy s sample_schema in
  check_int "original size" 1 (Rdf.Store.size s);
  check_bool "copy bigger" true (Rdf.Store.size sat > 1)

let prop_saturation_superset_and_idempotent =
  QCheck.Test.make ~name:"saturation: superset, idempotent, bounded" ~count:100
    QCheck.(pair arb_store arb_schema)
    (fun (s, schema) ->
      let original = Rdf.Store.to_triples s in
      let sat = Rdf.Entailment.saturated_copy s schema in
      let superset = List.for_all (Rdf.Store.mem sat) original in
      let idempotent = Rdf.Entailment.saturate sat schema = 0 in
      (* |implicit| is O(|D|·|S|) up to a small constant for the class
         hierarchy depth; use a generous factor *)
      let bound =
        Rdf.Store.size sat
        <= List.length original
           * (1 + (4 * max 1 (Rdf.Entailment.entailed_bound
                                ~data_size:1 ~schema_size:(Rdf.Schema.size schema))))
        + 64
      in
      superset && idempotent && bound)

let prop_saturation_sound =
  (* every derived triple is justified by one rule application from the
     saturated store; probes work at the encoded level because the range
     rule may type literal objects *)
  QCheck.Test.make ~name:"saturation soundness" ~count:80
    QCheck.(pair arb_store arb_schema)
    (fun (s, schema) ->
      let sat = Rdf.Entailment.saturated_copy s schema in
      let mem_parts subj p o =
        match (subj, Rdf.Store.find_term sat p, o) with
        | Some a, Some b, Some cc -> Rdf.Store.mem_encoded sat (a, b, cc)
        | _ -> false
      in
      let count pat = Rdf.Store.count_matching sat pat in
      let in_original (subj, p, o) =
        let decode = Rdf.Store.decode_term sat in
        match
          ( Rdf.Store.find_term s (decode subj),
            Rdf.Store.find_term s (decode p),
            Rdf.Store.find_term s (decode o) )
        with
        | Some a, Some b, Some cc -> Rdf.Store.mem_encoded s (a, b, cc)
        | _ -> false
      in
      let type_code = Rdf.Store.find_term sat rdf_type in
      let justified ((subj, p, o) as tr) =
        let is_type = type_code = Some p in
        let decode = Rdf.Store.decode_term sat in
        in_original tr
        || (* rule 1: subclass *)
        (is_type
         && List.exists
              (fun c1 ->
                mem_parts (Some subj) rdf_type (Rdf.Store.find_term sat c1))
              (Rdf.Schema.direct_subclasses schema (decode o)))
        || (* rule 2: subproperty *)
        List.exists
          (fun p1 -> mem_parts (Some subj) p1 (Some o))
          (Rdf.Schema.direct_subproperties schema (decode p))
        || (* rules 3/4: domain or range typing *)
        (is_type
         && (List.exists
               (fun prop ->
                 count
                   { Rdf.Store.ps = Some subj;
                     pp = Rdf.Store.find_term sat prop;
                     po = None }
                 > 0)
               (Rdf.Schema.properties_with_domain schema (decode o))
            || List.exists
                 (fun prop ->
                   count
                     { Rdf.Store.ps = None;
                       pp = Rdf.Store.find_term sat prop;
                       po = Some subj }
                   > 0)
                 (Rdf.Schema.properties_with_range schema (decode o))))
      in
      Rdf.Store.fold_all sat (fun tr acc -> acc && justified tr) true)

let () =
  Alcotest.run "rdf"
    [
      ( "term",
        [
          Alcotest.test_case "roundtrip" `Quick test_term_roundtrip;
          Alcotest.test_case "ordering" `Quick test_term_order;
          Alcotest.test_case "predicates" `Quick test_term_predicates;
          Alcotest.test_case "hash is FNV-1a" `Quick test_term_hash_fnv;
          Alcotest.test_case "add_key writes the key" `Quick test_term_add_key;
          to_alcotest prop_term_compare_total;
        ] );
      ( "triple",
        [
          Alcotest.test_case "well-formedness" `Quick test_triple_well_formed;
          Alcotest.test_case "make raises" `Quick test_triple_make_raises;
        ] );
      ( "dictionary",
        [
          Alcotest.test_case "roundtrip" `Quick test_dictionary_roundtrip;
          Alcotest.test_case "growth" `Quick test_dictionary_growth;
          Alcotest.test_case "unknown code" `Quick test_dictionary_unknown_code;
        ] );
      ( "store",
        [
          Alcotest.test_case "add and mem" `Quick test_store_add_mem;
          Alcotest.test_case "remove" `Quick test_store_remove;
          Alcotest.test_case "pattern counts" `Quick test_store_counts;
          Alcotest.test_case "distinct columns" `Quick test_store_distinct;
          Alcotest.test_case "copy independence" `Quick test_store_copy_independent;
          Alcotest.test_case "to_triples roundtrip" `Quick test_store_roundtrip;
          to_alcotest prop_count_matches_bruteforce;
          to_alcotest prop_remove_then_absent;
        ] );
      ( "schema",
        [
          Alcotest.test_case "accessors" `Quick test_schema_accessors;
          Alcotest.test_case "transitive closure" `Quick test_schema_closure;
          Alcotest.test_case "closure on cycles" `Quick test_schema_closure_cycle;
          Alcotest.test_case "triples roundtrip" `Quick test_schema_triples_roundtrip;
          Alcotest.test_case "statement dedup" `Quick test_schema_dedup;
        ] );
      ( "entailment",
        [
          Alcotest.test_case "paper example" `Quick test_saturation_example;
          Alcotest.test_case "idempotent" `Quick test_saturation_idempotent;
          Alcotest.test_case "copy preserves original" `Quick
            test_saturated_copy_preserves_original;
          to_alcotest prop_saturation_superset_and_idempotent;
          to_alcotest prop_saturation_sound;
        ] );
    ]
