open Support

let q1_text =
  {|q1(X, Z) :- t(X, <ex:hasPainted>, <ex:starryNight>),
               t(X, <ex:isParentOf>, Y),
               t(Y, <ex:hasPainted>, Z).|}

let test_parse_query () =
  let q = Query.Parser.parse_query q1_text in
  check_string "name" "q1" q.Query.Cq.name;
  check_int "arity" 2 (Query.Cq.arity q);
  check_int "atoms" 3 (Query.Cq.atom_count q);
  check_bool "head" true (Query.Cq.head_vars q = [ "X"; "Z" ])

let test_parse_type_keyword () =
  let q = Query.Parser.parse_query "q(X) :- t(X, type, <ex:painting>)." in
  match q.Query.Cq.body with
  | [ a ] ->
    check_bool "type keyword" true
      (Query.Qterm.equal a.Query.Atom.p (Query.Qterm.Cst rdf_type))
  | _ -> Alcotest.fail "expected one atom"

let test_parse_literals_and_question_vars () =
  let q = Query.Parser.parse_query {|q(?x) :- t(?x, <ex:label>, "hello world").|} in
  match q.Query.Cq.body with
  | [ a ] ->
    check_bool "literal object" true
      (Query.Qterm.equal a.Query.Atom.o (cl "hello world"));
    check_bool "lowercase ?var" true (Query.Cq.head_vars q = [ "x" ])
  | _ -> Alcotest.fail "expected one atom"

let test_parse_workload () =
  let queries =
    Query.Parser.parse_workload
      {|# a comment
        q1(X) :- t(X, <p>, <k>).
        q2(Y) :- t(Y, <q>, Z), t(Z, <p>, <k>).|}
  in
  check_int "two queries" 2 (List.length queries)

let test_query_roundtrip () =
  let q = Query.Parser.parse_query q1_text in
  let q' = Query.Parser.parse_query (Query.Parser.query_to_text q) in
  check_bool "roundtrip" true (Query.Cq.equal_syntactic q q')

let prop_query_roundtrip =
  QCheck.Test.make ~name:"parser round-trips generated queries" ~count:200
    arb_cq (fun q ->
      let q' = Query.Parser.parse_query (Query.Parser.query_to_text q) in
      Query.Cq.equal_syntactic q q')

let test_parse_errors () =
  let cases =
    [
      "q(X) :- t(X, <p>, Y)";          (* missing final dot *)
      "q(X) :- s(X, <p>, Y).";         (* wrong relation symbol *)
      "q(X) :- t(X, <p>).";            (* arity 2 atom *)
      "q(Z) :- t(X, <p>, Y).";         (* unsafe head *)
      "q(X) :- t(X, <unterminated, Y).";
    ]
  in
  List.iter
    (fun text ->
      match Query.Parser.parse_query text with
      | exception Query.Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error on %s" text)
    cases

(* Every parse error names the line of the last token consumed — also
   when the input runs out and when Cq.make rejects a finished rule. *)
let test_parse_error_lines () =
  List.iter
    (fun (text, expected) ->
      match Query.Parser.parse_query text with
      | exception Query.Parser.Parse_error message ->
        check_string text expected message
      | _ -> Alcotest.failf "expected parse error on %s" text)
    [
      ("q(X) :- .", "line 1: expected atom t(...), found .");
      ("q(X) :-\n  t(X, <p>, Y)", "line 2: unexpected end of input");
      ( "q(Z) :- t(X, <p>, Y).",
        "line 1: Cq.make: unsafe head variable Z" );
    ]

let test_parse_schema () =
  let schema =
    Query.Parser.parse_schema
      {|<ex:painting> subClassOf <ex:picture> .
        <ex:isExpIn> subPropertyOf <ex:isLocatIn> .
        <ex:hasPainted> domain <ex:painter> .
        <ex:hasPainted> range <ex:painting> .|}
  in
  check_int "four statements" 4 (Rdf.Schema.size schema);
  check_bool "subclass parsed" true
    (List.mem (uri "ex:painting")
       (Rdf.Schema.direct_subclasses schema (uri "ex:picture")))

let test_schema_roundtrip () =
  let schema =
    Query.Parser.parse_schema
      {|<a> subClassOf <b> . <p> domain <a> . <p> range <b> .|}
  in
  let again = Query.Parser.parse_schema (Query.Parser.schema_to_text schema) in
  check_bool "roundtrip" true
    (List.sort compare (Rdf.Schema.statements schema)
    = List.sort compare (Rdf.Schema.statements again))

let test_parse_triples () =
  let triples =
    Query.Parser.parse_triples
      {|<ex:vanGogh> <ex:hasPainted> <ex:starryNight> .
        <ex:mona> type <ex:painting> .
        <ex:mona> <ex:label> "Mona Lisa" .|}
  in
  check_int "three triples" 3 (List.length triples);
  check_bool "type expanded" true
    (List.exists
       (fun (tr : Rdf.Triple.t) -> Rdf.Term.equal tr.p rdf_type)
       triples)

let test_triples_roundtrip () =
  let text = {|<s> <p> <o> . <s> type <c> . <s> <q> "lit" .|} in
  let triples = Query.Parser.parse_triples text in
  let again = Query.Parser.parse_triples (Query.Parser.triples_to_text triples) in
  check_bool "roundtrip" true
    (List.sort Rdf.Triple.compare triples = List.sort Rdf.Triple.compare again)

let test_triples_reject_variables () =
  match Query.Parser.parse_triples "<s> <p> X ." with
  | exception Query.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

let test_barton_export_reimport () =
  let store = Workload.Barton.store ~n_entities:40 ~seed:3 () in
  let text = Query.Parser.triples_to_text (Rdf.Store.to_triples store) in
  let again = Rdf.Store.of_triples (Query.Parser.parse_triples text) in
  check_int "same size" (Rdf.Store.size store) (Rdf.Store.size again)

let () =
  Alcotest.run "parser"
    [
      ( "queries",
        [
          Alcotest.test_case "running example" `Quick test_parse_query;
          Alcotest.test_case "type keyword" `Quick test_parse_type_keyword;
          Alcotest.test_case "literals and ?vars" `Quick
            test_parse_literals_and_question_vars;
          Alcotest.test_case "workloads" `Quick test_parse_workload;
          Alcotest.test_case "roundtrip" `Quick test_query_roundtrip;
          to_alcotest prop_query_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error lines" `Quick test_parse_error_lines;
        ] );
      ( "schema",
        [
          Alcotest.test_case "parse" `Quick test_parse_schema;
          Alcotest.test_case "roundtrip" `Quick test_schema_roundtrip;
        ] );
      ( "triples",
        [
          Alcotest.test_case "parse" `Quick test_parse_triples;
          Alcotest.test_case "roundtrip" `Quick test_triples_roundtrip;
          Alcotest.test_case "variables rejected" `Quick
            test_triples_reject_variables;
          Alcotest.test_case "barton export/import" `Quick
            test_barton_export_reimport;
        ] );
    ]
