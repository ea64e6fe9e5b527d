(* RDFS reasoning scenario (§4 of the paper): implicit triples must be
   reflected in query answers, and the selected views must capture them.

   The schema is the §4.3 example: painting ⊑ picture and
   isExpIn ⊑p isLocatIn.  The query asks for pictures and their
   locations; some answers only exist because of the schema.

     dune exec examples/museum_reasoning.exe *)

let uri u = Rdf.Term.Uri u
let v x = Query.Qterm.Var x
let c u = Query.Qterm.Cst (uri u)

let schema =
  Rdf.Schema.of_statements
    [
      Rdf.Schema.Subclass (uri "ex:painting", uri "ex:picture");
      Rdf.Schema.Subproperty (uri "ex:isExpIn", uri "ex:isLocatIn");
    ]

let store () =
  Rdf.Store.of_triples
    [
      (* mona is only typed as a painting and only isExpIn the louvre:
         both facts about pictures/locations are implicit *)
      Rdf.Triple.make (uri "ex:mona") Rdf.Vocabulary.rdf_type (uri "ex:painting");
      Rdf.Triple.make (uri "ex:mona") (uri "ex:isExpIn") (uri "ex:louvre");
      Rdf.Triple.make (uri "ex:guernica") Rdf.Vocabulary.rdf_type (uri "ex:picture");
      Rdf.Triple.make (uri "ex:guernica") (uri "ex:isLocatIn") (uri "ex:reina");
    ]

let q =
  (* the §3.3 example query *)
  Query.Cq.make ~name:"q"
    ~head:[ v "X1"; v "X2" ]
    ~body:
      [
        Query.Atom.make (v "X1") (Query.Qterm.Cst Rdf.Vocabulary.rdf_type)
          (c "ex:picture");
        Query.Atom.make (v "X1") (c "ex:isLocatIn") (v "X2");
      ]

let print_answers label answers =
  Printf.printf "%s:\n" label;
  List.iter
    (fun tuple ->
      Printf.printf "  (%s)\n"
        (String.concat ", " (List.map Rdf.Term.to_string (Array.to_list tuple))))
    answers

let run_mode label reasoning =
  let store = store () in
  let result =
    Core.Selector.select ~store ~reasoning ~options:Core.Search.default_options
      [ q ]
  in
  Printf.printf "\n== %s ==\n" label;
  print_endline "materializable views:";
  List.iter
    (fun u ->
      Printf.printf "  %s  (%d union term(s))\n" (Query.Ucq.name u)
        (Query.Ucq.cardinal u);
      List.iter
        (fun d -> Printf.printf "      %s\n" (Query.Cq.to_string d))
        (Query.Ucq.disjuncts u))
    result.Core.Selector.recommended;
  print_answers "answers"
    (Engine.Pipeline.answer (Engine.Pipeline.materialize result) "q")

let () =
  (* plain evaluation misses the implicit answers *)
  let plain = Query.Evaluation.eval_cq (store ()) q in
  print_answers "without reasoning (incomplete!)" plain;

  (* direct evaluation on the saturated database: the ground truth *)
  let saturated = Rdf.Entailment.saturated_copy (store ()) schema in
  print_answers "\nground truth (saturated database)"
    (Query.Evaluation.eval_cq saturated q);

  (* reformulation captures the same answers without touching the db *)
  let reformulated = Query.Reformulation.reformulate q schema in
  Printf.printf "\nreformulation: %d union terms\n" (Query.Ucq.cardinal reformulated);
  print_answers "answers via reformulation on the original db"
    (Query.Evaluation.eval_ucq (store ()) reformulated);

  (* view selection in the two reasoning deployments *)
  run_mode "view selection with database saturation"
    (Core.Selector.Saturation schema);
  run_mode "view selection with post-reformulation (db untouched)"
    (Core.Selector.Post_reformulation schema)
