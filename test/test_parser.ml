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
  let q' = Query.Parser.parse_query (Query.Cq.to_string q) in
  check_bool "roundtrip" true (Query.Cq.equal_syntactic q q')

let prop_query_roundtrip =
  QCheck.Test.make ~name:"parser round-trips generated queries" ~count:200
    arb_cq (fun q ->
      let q' = Query.Parser.parse_query (Query.Cq.to_string q) in
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

(* The selector keys rewritings by query name, so a workload that names
   two queries alike is refused where the second one ends. *)
let test_duplicate_query_names () =
  match
    Query.Parser.parse_workload
      "q(X) :- t(X, <p>, Y).\nq(X) :-\n  t(X, <q>, Y).\nr(X) :- t(X, <p>, Y)."
  with
  | exception Query.Parser.Parse_error message ->
    check_string "located" "line 3: duplicate query name q" message
  | _ -> Alcotest.fail "expected a parse error on a duplicate query name"

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
  let again = Query.Parser.parse_schema (Rdf.Schema.to_string schema) in
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
  let again = Query.Parser.parse_triples (triples_text triples) in
  check_bool "roundtrip" true
    (List.sort Rdf.Triple.compare triples = List.sort Rdf.Triple.compare again)

let test_parse_blank_nodes () =
  match Query.Parser.parse_triples "_:b <ex:p> <ex:o> ." with
  | [ tr ] ->
    check_bool "blank subject" true (Rdf.Term.equal tr.s (blank "b"));
    check_bool "uri object" true (Rdf.Term.equal tr.o (uri "ex:o"))
  | triples -> Alcotest.failf "expected one triple, parsed %d" (List.length triples)

(* Blank nodes print as [_:label] and read back as the same terms. *)
let test_blank_store_roundtrip () =
  let store =
    store_of
      [
        triple (blank "b1") (uri "ex:p") (uri "ex:o");
        triple (uri "ex:a") (uri "ex:p") (blank "b1");
        triple (blank "b2") rdf_type (uri "ex:C");
        triple (blank "b2") (uri "ex:q") (lit "_:b3");
      ]
  in
  let triples = List.sort Rdf.Triple.compare (Rdf.Store.to_triples store) in
  let text = triples_text triples in
  let again = List.sort Rdf.Triple.compare (Query.Parser.parse_triples text) in
  check_bool "roundtrip" true (List.equal Rdf.Triple.equal triples again);
  check_bool "no bracketed blank" false (contains text "<_:")

let test_triples_reject_variables () =
  match Query.Parser.parse_triples "<s> <p> X ." with
  | exception Query.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

let test_barton_export_reimport () =
  let store = Workload.Barton.store ~n_entities:40 ~seed:3 () in
  let text = triples_text (Rdf.Store.to_triples store) in
  let again = Rdf.Store.of_triples (Query.Parser.parse_triples text) in
  check_int "same size" (Rdf.Store.size store) (Rdf.Store.size again)

(* ---------- one printer per type reads back -------------------------------- *)

(* Each type's to_string writes what the parser reads: the printed value
   parses back to the same value, over labels that print bare as
   something else. *)
let round_trip name gen print equal read =
  QCheck.Test.make ~name:(name ^ " print and read back") ~count:500
    (QCheck.make ~print gen)
    (fun x -> equal x (read (print x)))

let statements schema = List.sort compare (Rdf.Schema.statements schema)

let printed_round_trips =
  [
    round_trip "terms" gen_text_term Rdf.Term.to_string Rdf.Term.equal read_term;
    round_trip "triples"
      (QCheck.Gen.list_size (QCheck.Gen.int_range 0 5) gen_text_triple)
      triples_text (List.equal Rdf.Triple.equal) Query.Parser.parse_triples;
    round_trip "schemas" gen_text_schema Rdf.Schema.to_string
      (fun a b -> statements a = statements b)
      Query.Parser.parse_schema;
    round_trip "queries" gen_text_cq Query.Cq.to_string
      (fun a b ->
        String.equal a.Query.Cq.name b.Query.Cq.name && Query.Cq.equal_syntactic a b)
      Query.Parser.parse_query;
    round_trip "rewritings" gen_rewriting Core.Rewriting.to_string
      Core.Rewriting.equal Core.State_io.parse_expr;
  ]

(* ---------- the text boundaries under fuzzing ------------------------------ *)

(* Valid inputs for each grammar, the seeds of the byte mutations. *)
let workload_text =
  q1_text ^ "\n# a comment\nq2(?y) :- t(?y, type, <ex:painting>),\n  t(?y, <ex:label>, \"a b\").\n"

let schema_text =
  "<ex:painting> subClassOf <ex:picture> .\n<ex:isExpIn> subPropertyOf <ex:isLocatIn> .\n<ex:hasPainted> domain <ex:painter> .\n<ex:hasPainted> range <ex:painting> .\n"

let triples_text =
  "<ex:vanGogh> <ex:hasPainted> <ex:starryNight> .\n<ex:mona> type <ex:painting> .\n<ex:mona> <ex:label> \"Mona Lisa\" .\n_:b <ex:p> <ex:o> .\n"

let states_text =
  lazy
    (let q = Query.Parser.parse_query q1_text in
     let initial = Core.State.initial [ q ] in
     let cuts = Core.Transition.successors initial Core.Transition.SC in
     Core.State_io.states_to_text (initial :: cuts))

let expr_text = "union(project[x, y](join[x=y](scan v1, rename[z->y](select[z=<ex:c>, x=\"l\"](scan v2)))), scan v3)"

(* Tokens of every grammar, run together with random separators. *)
let soup_tokens =
  [
    "q"; "q1"; "v1"; "("; ")"; ","; ":-"; "."; "t"; "X"; "Y"; "?x"; "<ex:p>";
    "<ex:"; "\"lit\""; "\"open"; "type"; "_:b"; "#"; "subClassOf";
    "subPropertyOf"; "domain"; "range"; "state"; "view"; "rewrite"; ":=";
    "---"; "scan"; "select"; "project"; "join"; "rename"; "union"; "[";
    "]"; "="; "->"; "x"; "\x00"; "\xc3\xa9"; "\\"; "";
  ]

let gen_soup =
  let open QCheck.Gen in
  map (String.concat "")
    (list_size (int_range 0 40)
       (map2 ( ^ ) (oneofl soup_tokens) (oneofl [ ""; " "; "\n"; " "; "\t" ])))

(* Byte substitutions, deletions, insertions and truncations of a valid
   input. *)
let gen_mutation seed =
  let open QCheck.Gen in
  let edit text =
    let n = String.length text in
    if n = 0 then return text
    else
      oneof
        [
          map (fun k -> String.sub text 0 k) (int_bound n);
          map2
            (fun i c -> String.mapi (fun j d -> if j = i then c else d) text)
            (int_bound (n - 1)) char;
          map
            (fun i -> String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1))
            (int_bound (n - 1));
          map2
            (fun i c -> String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i))
            (int_bound n) (oneofl (List.of_seq (String.to_seq "()[],.:-=<>\"?_# \nXtq")));
        ]
  in
  fun st ->
    let text = Lazy.force seed in
    let rec go text k = if k = 0 then text else go (edit text st) (k - 1) in
    go text (int_range 1 6 st)

let arb_fuzz seed =
  QCheck.make ~print:(Printf.sprintf "%S")
    (QCheck.Gen.oneof [ gen_soup; QCheck.Gen.string; gen_mutation seed ])

(* The text after a leading "line N: ", if the message has one. *)
let after_line message =
  match Scanf.sscanf message "line %d: %n" (fun n k -> (n, k)) with
  | n, k when n >= 1 -> Some (String.sub message k (String.length message - k))
  | _ -> None
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

(* "line N: ..." with exactly one location. *)
let located message =
  match after_line message with
  | Some rest -> after_line rest = None
  | None -> false

let prop_parses_or_locates name seed parse =
  QCheck.Test.make ~name:(name ^ " parses or fails with a located Parse_error")
    ~count:1000 (arb_fuzz seed)
    (fun text ->
      match parse text with
      | () -> true
      | exception Query.Parser.Parse_error message -> located message)

let prop_query_fuzz =
  prop_parses_or_locates "query" (lazy q1_text) (fun text ->
      ignore (Query.Parser.parse_query text : Query.Cq.t))

let prop_workload_fuzz =
  prop_parses_or_locates "workload" (lazy workload_text) (fun text ->
      ignore (Query.Parser.parse_workload text : Query.Cq.t list))

let prop_schema_fuzz =
  prop_parses_or_locates "schema" (lazy schema_text) (fun text ->
      ignore (Query.Parser.parse_schema text : Rdf.Schema.t))

let prop_triples_fuzz =
  prop_parses_or_locates "triples" (lazy triples_text) (fun text ->
      ignore (Query.Parser.parse_triples text : Rdf.Triple.t list))

let prop_states_fuzz =
  QCheck.Test.make
    ~name:"state file parses or fails with a located Syntax_error" ~count:1000
    (arb_fuzz states_text)
    (fun text ->
      match Core.State_io.parse_states text with
      | _ -> true
      | exception Core.State_io.Syntax_error message -> located message)

let prop_expr_fuzz =
  QCheck.Test.make ~name:"expression parses or fails with a Syntax_error"
    ~count:1000 (arb_fuzz (lazy expr_text))
    (fun text ->
      match Core.State_io.parse_expr text with
      | _ -> true
      | exception Core.State_io.Syntax_error message -> located message)

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
          Alcotest.test_case "duplicate query names" `Quick
            test_duplicate_query_names;
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
          Alcotest.test_case "blank nodes" `Quick test_parse_blank_nodes;
          Alcotest.test_case "blank nodes roundtrip" `Quick test_blank_store_roundtrip;
          Alcotest.test_case "variables rejected" `Quick
            test_triples_reject_variables;
          Alcotest.test_case "barton export/import" `Quick
            test_barton_export_reimport;
        ] );
      ("printer", List.map to_alcotest printed_round_trips);
      ( "fuzz",
        List.map to_alcotest
          [
            prop_query_fuzz;
            prop_workload_fuzz;
            prop_schema_fuzz;
            prop_triples_fuzz;
            prop_states_fuzz;
            prop_expr_fuzz;
          ] );
    ]
