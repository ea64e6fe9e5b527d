open Support

(* The §4.3 example schema:
   painting ⊑ picture, isExpIn ⊑p isLocatIn *)
let painting = uri "ex:painting"
let picture = uri "ex:picture"
let is_locat_in = uri "ex:isLocatIn"
let is_exp_in = uri "ex:isExpIn"

let s43 =
  Rdf.Schema.of_statements
    [
      Rdf.Schema.Subclass (painting, picture);
      Rdf.Schema.Subproperty (is_exp_in, is_locat_in);
    ]

let canon_set ucq =
  List.sort_uniq String.compare
    (List.map Query.Cq.canonical_string (Query.Ucq.disjuncts ucq))

let mem_disjunct ucq q =
  List.mem (Query.Cq.canonical_string q) (canon_set ucq)

(* ---------- Table 2: term reformulation --------------------------------- *)

let test_table2_q1 () =
  (* q1(X1) :- t(X1, rdf:type, picture) reformulates into two terms *)
  let q1 =
    cq ~name:"q1" [ v "X1" ]
      [ atom (v "X1") (Query.Qterm.Cst rdf_type) (Query.Qterm.Cst picture) ]
  in
  let r = Query.Reformulation.reformulate q1 s43 in
  check_int "two union terms" 2 (Query.Ucq.cardinal r);
  check_bool "original present" true (mem_disjunct r q1);
  check_bool "painting term present" true
    (mem_disjunct r
       (cq [ v "X1" ]
          [ atom (v "X1") (Query.Qterm.Cst rdf_type) (Query.Qterm.Cst painting) ]))

let test_table2_q4 () =
  (* q4(X1, X2) :- t(X1, X2, picture): six union terms per Table 2 *)
  let q4 =
    cq ~name:"q4" [ v "X1"; v "X2" ]
      [ atom (v "X1") (v "X2") (Query.Qterm.Cst picture) ]
  in
  let r = Query.Reformulation.reformulate q4 s43 in
  check_int "six union terms" 6 (Query.Ucq.cardinal r);
  let expect head body = check_bool "term" true (mem_disjunct r (cq head body)) in
  (* (1) the original *)
  expect [ v "X1"; v "X2" ] [ atom (v "X1") (v "X2") (Query.Qterm.Cst picture) ];
  (* (2) X2 := isLocatIn *)
  expect
    [ v "X1"; Query.Qterm.Cst is_locat_in ]
    [ atom (v "X1") (Query.Qterm.Cst is_locat_in) (Query.Qterm.Cst picture) ];
  (* (3) X2 := isExpIn *)
  expect
    [ v "X1"; Query.Qterm.Cst is_exp_in ]
    [ atom (v "X1") (Query.Qterm.Cst is_exp_in) (Query.Qterm.Cst picture) ];
  (* (4) X2 := rdf:type *)
  expect
    [ v "X1"; Query.Qterm.Cst rdf_type ]
    [ atom (v "X1") (Query.Qterm.Cst rdf_type) (Query.Qterm.Cst picture) ];
  (* (5) rule 2 on term (2) *)
  expect
    [ v "X1"; Query.Qterm.Cst is_locat_in ]
    [ atom (v "X1") (Query.Qterm.Cst is_exp_in) (Query.Qterm.Cst picture) ];
  (* (6) rule 1 on term (4) *)
  expect
    [ v "X1"; Query.Qterm.Cst rdf_type ]
    [ atom (v "X1") (Query.Qterm.Cst rdf_type) (Query.Qterm.Cst painting) ]

(* ---------- §4.3 recommended views example ------------------------------ *)

let test_view_reformulation_example () =
  (* v1(X1,X2) :- t(X1, rdf:type, X2) gains the subclass variants *)
  let v1 =
    cq ~name:"v1" [ v "X1"; v "X2" ]
      [ atom (v "X1") (Query.Qterm.Cst rdf_type) (v "X2") ]
  in
  let r = Query.Reformulation.reformulate v1 s43 in
  (* original + (X2:=painting) + (X2:=picture) + (X2:=picture via painting) *)
  check_int "four union terms" 4 (Query.Ucq.cardinal r);
  check_bool "implicit picture typing" true
    (mem_disjunct r
       (Query.Cq.make ~name:"x"
          ~head:[ v "X1"; Query.Qterm.Cst picture ]
          ~body:
            [ atom (v "X1") (Query.Qterm.Cst rdf_type) (Query.Qterm.Cst painting) ]));
  let v2 =
    cq ~name:"v2" [ v "X1"; v "X2" ]
      [ atom (v "X1") (Query.Qterm.Cst is_locat_in) (v "X2") ]
  in
  let r2 = Query.Reformulation.reformulate v2 s43 in
  check_int "two union terms for v2" 2 (Query.Ucq.cardinal r2);
  check_bool "isExpIn variant" true
    (mem_disjunct r2
       (cq
          [ v "X1"; v "X2" ]
          [ atom (v "X1") (Query.Qterm.Cst is_exp_in) (v "X2") ]))

(* ---------- rules 3 and 4 ------------------------------------------------ *)

let dom_range_schema =
  Rdf.Schema.of_statements
    [
      Rdf.Schema.Domain (uri "ex:drivesLicense", uri "ex:person");
      Rdf.Schema.Range (uri "ex:hasPainted", uri "ex:painting");
    ]

let test_rule3_domain () =
  let q =
    cq [ v "X" ]
      [ atom (v "X") (Query.Qterm.Cst rdf_type) (Query.Qterm.Cst (uri "ex:person")) ]
  in
  let r = Query.Reformulation.reformulate q dom_range_schema in
  check_int "two terms" 2 (Query.Ucq.cardinal r);
  check_bool "domain unfolding" true
    (List.exists
       (fun (d : Query.Cq.t) ->
         match d.Query.Cq.body with
         | [ a ] ->
           Query.Qterm.equal a.Query.Atom.p
             (Query.Qterm.Cst (uri "ex:drivesLicense"))
         | _ -> false)
       (Query.Ucq.disjuncts r))

let test_rule4_range () =
  let q =
    cq [ v "X" ]
      [ atom (v "X") (Query.Qterm.Cst rdf_type) (Query.Qterm.Cst (uri "ex:painting")) ]
  in
  let r = Query.Reformulation.reformulate q dom_range_schema in
  check_int "two terms" 2 (Query.Ucq.cardinal r);
  check_bool "range unfolding puts X in object position" true
    (List.exists
       (fun (d : Query.Cq.t) ->
         match d.Query.Cq.body with
         | [ a ] ->
           Query.Qterm.equal a.Query.Atom.p (Query.Qterm.Cst (uri "ex:hasPainted"))
           && Query.Qterm.equal a.Query.Atom.o (v "X")
         | _ -> false)
       (Query.Ucq.disjuncts r))

let test_rule5_class_variable () =
  let q =
    cq [ v "X"; v "C" ] [ atom (v "X") (Query.Qterm.Cst rdf_type) (v "C") ]
  in
  let r = Query.Reformulation.reformulate q dom_range_schema in
  (* original, C:=person (+ domain unfolding), C:=painting (+ range) *)
  check_int "five terms" 5 (Query.Ucq.cardinal r)

let test_empty_schema_identity () =
  let q = cq [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  let r = Query.Reformulation.reformulate q Rdf.Schema.empty in
  check_int "identity" 1 (Query.Ucq.cardinal r)

(* ---------- Theorem 4.1: termination bound ------------------------------ *)

(* The paper's (2|S|²)^m constant is too tight for very small schemas
   once rules 5 and 6 fire (binding a variable over the whole class /
   property vocabulary, which can exceed 2|S|² when |S| ≤ 2): e.g.
   q(X) :- t(X, P, Y) with the one-statement schema {domain(P0) = C2}
   yields 5 > (2·1²)^1 reformulations.  The polynomial-in-|S|,
   exponential-in-m growth shape is what the theorem establishes; the
   test uses the corrected constant (2(|S|+2)²)^m. *)
let prop_bound =
  QCheck.Test.make
    ~name:"Theorem 4.1 (adjusted constant): |ucq| ≤ (2(|S|+2)²)^m + 1"
    ~count:100
    QCheck.(pair arb_cq_schema_vars arb_schema)
    (fun (q, schema) ->
      let s = float_of_int (Rdf.Schema.size schema + 2) in
      let m = float_of_int (Query.Cq.atom_count q) in
      let r = Query.Reformulation.reformulate q schema in
      float_of_int (Query.Ucq.cardinal r) <= (Float.pow (2. *. s *. s) m) +. 1.)

let prop_contains_original =
  QCheck.Test.make ~name:"reformulation contains the original query" ~count:100
    QCheck.(pair arb_cq_schema_vars arb_schema)
    (fun (q, schema) ->
      mem_disjunct (Query.Reformulation.reformulate q schema) q)

let prop_atom_count_preserved =
  QCheck.Test.make ~name:"every disjunct has the same number of atoms"
    ~count:100
    QCheck.(pair arb_cq_schema_vars arb_schema)
    (fun (q, schema) ->
      List.for_all
        (fun d -> Query.Cq.atom_count d = Query.Cq.atom_count q)
        (Query.Ucq.disjuncts (Query.Reformulation.reformulate q schema)))

(* ---------- Theorem 4.2: correctness ------------------------------------ *)

let prop_theorem_4_2 =
  QCheck.Test.make
    ~name:
      "Theorem 4.2: evaluate(q, saturate(D,S)) = evaluate(reformulate(q,S), D)"
    ~count:300
    QCheck.(triple arb_store arb_schema arb_cq_schema_vars)
    (fun (store, schema, q) ->
      let saturated = Rdf.Entailment.saturated_copy store schema in
      let on_saturated = Query.Evaluation.eval_cq saturated q in
      let reformulated = Query.Reformulation.reformulate q schema in
      let on_original = Query.Evaluation.eval_ucq store reformulated in
      same_answers on_saturated on_original)

let prop_reformulate_atom_counts_saturated =
  QCheck.Test.make
    ~name:"per-atom reformulation count = saturated pattern count" ~count:150
    QCheck.(pair arb_store arb_schema)
    (fun (store, schema) ->
      let saturated = Rdf.Entailment.saturated_copy store schema in
      let shapes =
        [
          atom (v "S") (Query.Qterm.Cst rdf_type) (Query.Qterm.Cst (uri "C1"));
          atom (v "S") (Query.Qterm.Cst (uri "P1")) (v "O");
          atom (v "S") (v "P") (v "O");
          atom (v "S") (v "P") (Query.Qterm.Cst (uri "C0"));
          atom (v "S") (Query.Qterm.Cst rdf_type) (v "O");
        ]
      in
      List.for_all
        (fun a ->
          let q =
            Query.Cq.make ~name:"a"
              ~head:(List.map v (Query.Atom.var_set a))
              ~body:[ a ]
          in
          let by_reformulation =
            Rdf.Rowset.cardinal
              (Query.Evaluation.eval_ucq_rowset ~cache:false store
                 (Query.Reformulation.reformulate q schema))
          in
          let on_saturated =
            Rdf.Rowset.cardinal
              (Query.Evaluation.eval_cq_rowset saturated q)
          in
          by_reformulation = on_saturated)
        shapes)

(* ---------- shapes against the oracle ----------------------------------- *)

(* Schemas may also put rdf:type below or above a property: the
   expansion must follow the oracle there too. *)
let gen_oracle_schema =
  let open QCheck.Gen in
  let* base = gen_rich_schema in
  let* p = gen_prop in
  let* odd = int_range 0 3 in
  return
    (match odd with
    | 0 -> Rdf.Schema.add base (Rdf.Schema.Subproperty (p, rdf_type))
    | 1 -> Rdf.Schema.add base (Rdf.Schema.Subproperty (rdf_type, p))
    | _ -> base)

let arb_oracle_schema =
  QCheck.make ~print:Rdf.Schema.to_string gen_oracle_schema

(* Queries whose class and property positions may hold variables from
   a small pool, so that one variable can stand at several of them, in
   the head, or at a subject or object too. *)
let gen_cq_shared_schema_vars =
  let open QCheck.Gen in
  let* base = gen_cq in
  let pool = [ "PV"; "CV"; "V0" ] in
  let* body =
    flatten_l
      (List.map
         (fun (a : Query.Atom.t) ->
           let* k = int_range 0 3 in
           let* x = oneofl pool in
           return
             (match k with
             | 0 -> Query.Atom.set_at a Query.Atom.P (v x)
             | 1 when Query.Qterm.equal a.Query.Atom.p (Query.Qterm.Cst rdf_type) ->
               Query.Atom.set_at a Query.Atom.O (v x)
             | _ -> a))
         base.Query.Cq.body)
  in
  let vars = List.sort_uniq String.compare (List.concat_map Query.Atom.var_set body) in
  let* head_size = int_range 0 (min 3 (List.length vars)) in
  let* head = map (List.filteri (fun i _ -> i < head_size)) (shuffle_l vars) in
  return (cq (List.map v head) body)

let arb_cq_shared_schema_vars = QCheck.make ~print:Query.Cq.to_string gen_cq_shared_schema_vars

let oracle_set q schema =
  List.sort String.compare
    (List.map Query.Cq.canonical_string (Oracle.reformulate q schema))

let prop_expansion_is_oracle =
  QCheck.Test.make ~name:"the shapes expand to the oracle's disjuncts" ~count:300
    QCheck.(pair (oneof [ arb_cq_schema_vars; arb_cq_shared_schema_vars ]) arb_oracle_schema)
    (fun (q, schema) ->
      let u = Query.Reformulation.reformulate q schema in
      let expansion =
        List.map Query.Cq.canonical_string (Query.Ucq.disjuncts u)
      in
      let first = List.hd (Query.Ucq.disjuncts u) in
      List.sort String.compare expansion = oracle_set q schema
      && Query.Cq.canonical_string first = Query.Cq.canonical_string q
      && List.length (Query.Ucq.shapes u) <= Query.Ucq.cardinal u)

(* Plans of the shapes answer like Reference on the saturated store,
   whether cached or one-shot, on either backend. *)
let prop_shapes_reference_on_saturation =
  QCheck.Test.make ~name:"shape plans answer as Reference on the saturation" ~count:200
    QCheck.(
      triple arb_backend_store arb_rich_schema
        (oneof [ arb_cq_schema_vars; arb_cq_shared_schema_vars ]))
    (fun (store, schema, q) ->
      let expected =
        Query.Evaluation.Reference.eval_cq (Rdf.Entailment.saturated_copy store schema) q
      in
      let u = Query.Reformulation.reformulate q schema in
      let one_shot =
        List.map
          (Array.map (Rdf.Store.decode_term store))
          (Rdf.Rowset.elements (Query.Evaluation.eval_ucq_rowset ~cache:false store u))
      in
      same_answers (Query.Evaluation.eval_ucq store u) expected
      && same_answers one_shot expected)

(* Table 3's workloads as bench/tables.ml builds them at the quick
   scale: their reformulations keep the sizes the one-CQ-at-a-time
   algorithm gave them. *)
let test_table3_sizes () =
  let store = Workload.Barton.store ~n_entities:400 ~seed:11 () in
  let schema = Workload.Barton.schema () in
  let q2 =
    Workload.Generator.generate_satisfiable store
      {
        Workload.Generator.shape = Workload.Generator.Mixed;
        n_queries = 10;
        atoms_per_query = 4;
        commonality = Workload.Generator.High;
        seed = 77;
      }
    |> Workload.Generator.generalize schema 0.9 7
  in
  let q1 = List.filteri (fun i _ -> i < 5) q2 in
  let sizes queries =
    let us = List.map (fun q -> Query.Reformulation.reformulate q schema) queries in
    List.iter2
      (fun q u ->
        check_bool (q.Query.Cq.name ^ " expands to the oracle") true
          (List.sort String.compare
             (List.map Query.Cq.canonical_string (Query.Ucq.disjuncts u))
          = oracle_set q schema))
      queries us;
    let sum f = List.fold_left (fun acc u -> acc + f u) 0 us in
    (sum Query.Ucq.cardinal, sum Query.Ucq.atom_count, sum Query.Ucq.constant_count)
  in
  let triple = Alcotest.(triple int int int) in
  Alcotest.check triple "Q1: |Qr|, #a(Qr), #c(Qr)" (16, 41, 64) (sizes q1);
  Alcotest.check triple "Q2: |Qr|, #a(Qr), #c(Qr)" (27, 69, 99) (sizes q2)

let () =
  Alcotest.run "reformulation"
    [
      ( "table2",
        [
          Alcotest.test_case "q1 reformulation" `Quick test_table2_q1;
          Alcotest.test_case "q4 reformulation (rules 5/6)" `Quick test_table2_q4;
          Alcotest.test_case "view reformulation example" `Quick
            test_view_reformulation_example;
        ] );
      ( "rules",
        [
          Alcotest.test_case "rule 3: domain" `Quick test_rule3_domain;
          Alcotest.test_case "rule 4: range" `Quick test_rule4_range;
          Alcotest.test_case "rule 5: class variable" `Quick
            test_rule5_class_variable;
          Alcotest.test_case "empty schema is identity" `Quick
            test_empty_schema_identity;
        ] );
      ( "theorems",
        [
          to_alcotest prop_bound;
          to_alcotest prop_contains_original;
          to_alcotest prop_atom_count_preserved;
          to_alcotest prop_theorem_4_2;
          to_alcotest prop_reformulate_atom_counts_saturated;
        ] );
      ( "shapes",
        [
          to_alcotest prop_expansion_is_oracle;
          to_alcotest prop_shapes_reference_on_saturation;
          Alcotest.test_case "Table 3 sizes" `Quick test_table3_sizes;
        ] );
    ]
