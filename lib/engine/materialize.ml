type env = (string, Relation.t) Hashtbl.t

(* A relation's columns are the view's head variables. *)
let materialize_cq store (q : Query.Cq.t) =
  Relation.of_rowset ~name:q.name ~cols:(Query.Cq.head_vars q)
    (Query.Evaluation.eval_cq_rowset store q)

let materialize_ucq store (u : Query.Ucq.t) =
  Relation.of_rowset ~name:(Query.Ucq.name u) ~cols:(Query.Cq.head_vars (Query.Ucq.first u))
    (Query.Evaluation.eval_ucq_rowset store u)

let env_of rels =
  let env = Hashtbl.create (List.length rels) in
  List.iter (fun rel -> Hashtbl.replace env (Relation.name rel) rel) rels;
  env

let materialize_views store views = env_of (List.map (materialize_ucq store) views)

let materialize_state store (s : Core.State.t) =
  env_of (List.map (fun v -> materialize_cq store v.Core.View.cq) s.Core.State.views)

let total_size_bytes store env =
  Hashtbl.fold (fun _ rel acc -> acc + Relation.size_bytes store rel) env 0

let total_cardinality env =
  Hashtbl.fold (fun _ rel acc -> acc + Relation.cardinality rel) env 0
