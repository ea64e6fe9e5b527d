open Support

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > hn then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let q1 =
  cq ~name:"q1"
    [ v "X"; v "Z" ]
    [
      atom (v "X") (c "ex:hasPainted") (c "ex:starryNight");
      atom (v "X") (c "ex:isParentOf") (v "Y");
      atom (v "Y") (c "ex:hasPainted") (v "Z");
    ]

let test_cq_select_structure () =
  let sql = Core.Sql.cq_select q1 in
  check_bool "three triple scans" true (contains sql "triples t2");
  check_bool "constant predicate" true
    (contains sql "t0.o = '<ex:starryNight>'");
  check_bool "join predicate" true (contains sql "t1.s = t0.s");
  check_bool "chained join" true (contains sql "t2.s = t1.o");
  check_bool "projection aliases" true
    (contains sql "AS \"X\"" && contains sql "AS \"Z\"");
  check_bool "distinct" true (contains sql "SELECT DISTINCT")

let test_cq_select_constant_head () =
  let q =
    Query.Cq.make ~name:"q" ~head:[ v "X"; c "ex:tag" ]
      ~body:[ atom (v "X") (c "ex:p") (v "Y") ]
  in
  let sql = Core.Sql.cq_select q in
  check_bool "constant column" true (contains sql "'<ex:tag>' AS \"c1\"")

let test_literal_escaping () =
  let q =
    cq [ v "X" ] [ atom (v "X") (c "ex:p") (cl "O'Keeffe") ]
  in
  let sql = Core.Sql.cq_select q in
  check_bool "quotes doubled" true (contains sql "O''Keeffe")

let test_view_ddl_union () =
  let a = cq ~name:"u" [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  let b = cq ~name:"u2" [ v "A" ] [ atom (v "A") (c "ex:q") (v "B") ] in
  let ddl = Core.Sql.view_ddl (Query.Ucq.make ~name:"v7" [ a; b ]) in
  check_bool "create materialized" true
    (contains ddl "CREATE MATERIALIZED VIEW \"v7\"");
  check_bool "declared columns" true (contains ddl "(\"X\")");
  check_bool "union of disjuncts" true (contains ddl "UNION");
  check_bool "terminated" true (contains ddl ";")

let env_of bindings =
  let env = Hashtbl.create 8 in
  List.iter (fun (n, cols) -> Hashtbl.replace env n cols) bindings;
  env

let test_rewriting_query_shapes () =
  let env = env_of [ ("v1", [ "a"; "b" ]); ("v2", [ "b"; "c" ]) ] in
  let expr =
    Core.Rewriting.Project
      ( [ "a"; "c" ],
        Core.Rewriting.Select
          ( [ Core.Rewriting.Eq_cst ("b", uri "k") ],
            Core.Rewriting.Join ([], Core.Rewriting.Scan "v1", Core.Rewriting.Scan "v2")
          ) )
  in
  let sql = Core.Sql.rewriting_query env "q1" expr in
  check_bool "names the query" true (contains sql "-- rewriting of q1");
  check_bool "join on shared column" true (contains sql "ON l");
  check_bool "selection constant" true (contains sql "= 'k'");
  check_bool "distinct projection" true (contains sql "SELECT DISTINCT");
  check_bool "scans both views" true
    (contains sql "FROM \"v1\"" && contains sql "FROM \"v2\"")

let test_rewriting_union () =
  let env = env_of [ ("v1", [ "a" ]); ("v2", [ "a" ]) ] in
  let expr = Core.Rewriting.Union [ Core.Rewriting.Scan "v1"; Core.Rewriting.Scan "v2" ] in
  let sql = Core.Sql.rewriting_query env "q" expr in
  check_bool "union" true (contains sql "UNION")

let test_deployment_script_end_to_end () =
  let store =
    store_of
      [
        triple (uri "s1") (uri "ex:p") (uri "ex:k");
        triple (uri "s1") (uri "ex:q") (uri "o1");
      ]
  in
  let workload =
    [
      cq ~name:"qa" [ v "X" ]
        [ atom (v "X") (c "ex:p") (c "ex:k"); atom (v "X") (c "ex:q") (v "Y") ];
    ]
  in
  let result =
    Core.Selector.select ~store ~reasoning:Core.Selector.No_reasoning
      ~options:{ Core.Search.default_options with time_budget = Some 0.5 }
      workload
  in
  let script = Core.Sql.deployment_script result in
  check_bool "has DDL" true (contains script "CREATE MATERIALIZED VIEW");
  check_bool "has the query" true (contains script "-- rewriting of qa");
  (* every recommended view name appears in the script *)
  List.iter
    (fun u ->
      check_bool
        ("view " ^ Query.Ucq.name u)
        true
        (contains script (Query.Ucq.name u)))
    result.Core.Selector.recommended

let prop_generated_queries_translate =
  QCheck.Test.make ~name:"every generated query has a SQL translation"
    ~count:100 arb_cq (fun q ->
      let sql = Core.Sql.cq_select q in
      String.length sql > 0
      && contains sql "FROM"
      && contains sql "SELECT DISTINCT")

let () =
  Alcotest.run "sql"
    [
      ( "views",
        [
          Alcotest.test_case "cq select structure" `Quick test_cq_select_structure;
          Alcotest.test_case "constant head column" `Quick
            test_cq_select_constant_head;
          Alcotest.test_case "literal escaping" `Quick test_literal_escaping;
          Alcotest.test_case "view DDL with union" `Quick test_view_ddl_union;
        ] );
      ( "rewritings",
        [
          Alcotest.test_case "operator shapes" `Quick test_rewriting_query_shapes;
          Alcotest.test_case "union" `Quick test_rewriting_union;
          Alcotest.test_case "deployment script" `Quick
            test_deployment_script_end_to_end;
          to_alcotest prop_generated_queries_translate;
        ] );
    ]
