(* Quickstart: select materialized views for a tiny RDF workload and
   answer the queries from the views alone.

     dune exec examples/quickstart.exe *)

let uri u = Rdf.Term.Uri u
let v x = Query.Qterm.Var x
let c u = Query.Qterm.Cst (uri u)

let () =
  (* 1. build an RDF database: a single triple table *)
  let store =
    Rdf.Store.of_triples
      [
        Rdf.Triple.make (uri "ex:vanGogh") (uri "ex:hasPainted") (uri "ex:starryNight");
        Rdf.Triple.make (uri "ex:vanGogh") (uri "ex:isParentOf") (uri "ex:vincentJr");
        Rdf.Triple.make (uri "ex:vincentJr") (uri "ex:hasPainted") (uri "ex:sunflowers2");
        Rdf.Triple.make (uri "ex:monet") (uri "ex:hasPainted") (uri "ex:waterLilies");
        Rdf.Triple.make (uri "ex:monet") (uri "ex:isParentOf") (uri "ex:michel");
        Rdf.Triple.make (uri "ex:michel") (uri "ex:hasPainted") (uri "ex:nympheas");
      ]
  in

  (* 2. the application workload: two conjunctive queries over t(s,p,o);
     q1 is the paper's running example *)
  let q1 =
    Query.Cq.make ~name:"q1"
      ~head:[ v "X"; v "Z" ]
      ~body:
        [
          Query.Atom.make (v "X") (c "ex:hasPainted") (c "ex:starryNight");
          Query.Atom.make (v "X") (c "ex:isParentOf") (v "Y");
          Query.Atom.make (v "Y") (c "ex:hasPainted") (v "Z");
        ]
  in
  let q2 =
    Query.Cq.make ~name:"q2"
      ~head:[ v "P"; v "K" ]
      ~body:
        [
          Query.Atom.make (v "P") (c "ex:isParentOf") (v "K");
          Query.Atom.make (v "K") (c "ex:hasPainted") (v "W");
        ]
  in

  (* 3. run view selection *)
  let result =
    Core.Selector.select ~store ~reasoning:Core.Selector.No_reasoning
      ~options:Core.Search.default_options [ q1; q2 ]
  in
  let report = result.Core.Selector.report in
  Printf.printf "search: %d states explored, cost %.1f -> %.1f (rcr %.2f)\n\n"
    report.Core.Search.explored report.Core.Search.initial_cost
    report.Core.Search.best_cost (Core.Search.rcr report);

  print_endline "recommended views:";
  List.iter
    (fun u ->
      List.iter
        (fun d -> Printf.printf "  %s\n" (Query.Cq.to_string d))
        (Query.Ucq.disjuncts u))
    result.Core.Selector.recommended;

  print_endline "\nrewritings:";
  List.iter
    (fun (q, r) -> Printf.printf "  %s := %s\n" q (Core.Rewriting.to_string r))
    result.Core.Selector.rewritings;

  (* 4. materialize the views and answer the workload from them *)
  let pipeline = Engine.Pipeline.materialize result in
  print_endline "\nanswers from the materialized views:";
  List.iter
    (fun (q : Query.Cq.t) ->
      Printf.printf "  %s:\n" q.Query.Cq.name;
      List.iter
        (fun tuple ->
          Printf.printf "    (%s)\n"
            (String.concat ", "
               (List.map Rdf.Term.to_string (Array.to_list tuple))))
        (Engine.Pipeline.answer pipeline q.Query.Cq.name))
    [ q1; q2 ]
