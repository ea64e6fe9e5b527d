type reasoning =
  | No_reasoning
  | Saturation of Rdf.Schema.t
  | Pre_reformulation of Rdf.Schema.t
  | Post_reformulation of Rdf.Schema.t

type result = {
  report : Search.report;
  recommended : Query.Ucq.t list;
  rewritings : (string * Rewriting.t) list;
  stats : Stats.Statistics.t;
  store_for_materialization : Rdf.Store.t;
  reasoning : reasoning;
}

exception Unsupported_query of string

let reasoning_name = function
  | No_reasoning -> "none"
  | Saturation _ -> "saturation"
  | Pre_reformulation _ -> "pre-reformulation"
  | Post_reformulation _ -> "post-reformulation"

let plain_views state =
  List.map (fun v -> Query.Ucq.of_cq v.View.cq) state.State.views

(* final rewritings are normalized (Simplify) so that downstream engines
   receive compact select-project-join plans *)
let simplified_rewritings state =
  let simplified, _touched = Simplify.state_rewritings state in
  simplified.State.rewritings

(* Statistics and the store views are materialized against, per mode. *)
let statistics_for ~store = function
  | No_reasoning | Pre_reformulation _ ->
    (Stats.Statistics.create ~mode:Stats.Statistics.Plain store, store)
  | Saturation schema ->
    let saturated = Rdf.Entailment.saturated_copy store schema in
    (Stats.Statistics.create ~mode:Stats.Statistics.Plain saturated, saturated)
  | Post_reformulation schema ->
    (Stats.Statistics.create ~mode:(Stats.Statistics.Reformulated schema) store, store)

(* Materializable view definitions for the best state, per mode. *)
let recommended_views reasoning state =
  match reasoning with
  | No_reasoning | Saturation _ | Pre_reformulation _ -> plain_views state
  | Post_reformulation schema ->
    List.map
      (fun v -> Query.Reformulation.reformulate v.View.cq schema)
      state.State.views

(* The standard initial state of a workload, per mode (§5.1 / §4.3).
   Each query (or disjunct) it starts from must be a valid view. *)
let initial_state reasoning workload =
  let check name cq =
    Option.iter
      (fun reason ->
        raise
          (Unsupported_query
             (Printf.sprintf "query %s: %s: %s" name reason (Query.Cq.to_string cq))))
      (View.defect cq)
  in
  match reasoning with
  | No_reasoning | Saturation _ | Post_reformulation _ ->
    List.iter (fun q -> check q.Query.Cq.name q) workload;
    State.initial workload
  | Pre_reformulation schema ->
    let groups =
      List.map
        (fun q ->
          ( q.Query.Cq.name,
            Query.Ucq.disjuncts (Query.Reformulation.reformulate q schema) ))
        workload
    in
    List.iter (fun (name, disjuncts) -> List.iter (check name) disjuncts) groups;
    State.initial_union groups

let select ?jobs ~store ~reasoning ~options workload =
  let stats, store_for_materialization = statistics_for ~store reasoning in
  let estimator = Cost.create stats options.Search.weights in
  let report =
    Search.run_from ?jobs estimator options (initial_state reasoning workload)
  in
  {
    report;
    recommended = recommended_views reasoning report.Search.best;
    rewritings = simplified_rewritings report.Search.best;
    stats;
    store_for_materialization;
    reasoning;
  }
