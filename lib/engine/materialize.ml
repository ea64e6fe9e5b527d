type env = (string, Relation.t) Hashtbl.t

let materialize_cq store (q : Query.Cq.t) =
  let rows = Query.Evaluation.eval_cq_codes store q in
  let cols = List.filter_map Query.Qterm.var_name q.head in
  if List.length cols <> List.length q.head then
    (* views with constant head positions keep positional columns *)
    let cols = List.mapi (fun i _ -> Printf.sprintf "c%d" i) q.head in
    Relation.make ~name:q.name ~cols rows
  else Relation.make ~name:q.name ~cols rows

let materialize_ucq store (u : Query.Ucq.t) =
  let rows = Query.Evaluation.eval_ucq_codes store u in
  let first = List.hd (Query.Ucq.disjuncts u) in
  let cols = List.filter_map Query.Qterm.var_name first.Query.Cq.head in
  let cols =
    if List.length cols = List.length first.Query.Cq.head then cols
    else List.mapi (fun i _ -> Printf.sprintf "c%d" i) first.Query.Cq.head
  in
  Relation.make ~name:(Query.Ucq.name u) ~cols rows

let materialize_views store views =
  let env = Hashtbl.create (List.length views) in
  List.iter
    (fun u ->
      let rel = materialize_ucq store u in
      Hashtbl.replace env (Relation.name rel) rel)
    views;
  env

let materialize_state store (s : Core.State.t) =
  let env = Hashtbl.create (List.length s.Core.State.views) in
  List.iter
    (fun v ->
      let rel = materialize_cq store v.Core.View.cq in
      Hashtbl.replace env (Relation.name rel) rel)
    s.Core.State.views;
  env

let total_size_bytes store env =
  Hashtbl.fold (fun _ rel acc -> acc + Relation.size_bytes store rel) env 0

let total_cardinality env =
  Hashtbl.fold (fun _ rel acc -> acc + Relation.cardinality rel) env 0
