type t = { selection : Core.Selector.result; views : Materialize.env }

exception Unknown_query of string
exception Not_maintainable of string

let materialize (s : Core.Selector.result) =
  { selection = s; views = Materialize.materialize_views s.store_for_materialization s.recommended }

let store t = t.selection.store_for_materialization
let views t = t.views

let rewriting t name =
  try List.assoc name t.selection.rewritings with Not_found -> raise (Unknown_query name)

let execute t name = Executor.execute (store t) t.views (rewriting t name)
let answer t name = Executor.execute_query (store t) t.views (rewriting t name)

(* Every view as a CQ over the store, or the reason an update cannot
   maintain them. *)
let maintained { selection = s; views } =
  let refuse why = raise (Not_maintainable (Core.Selector.reasoning_name s.reasoning ^ ": " ^ why)) in
  (match s.reasoning with
  | Core.Selector.Saturation _ -> refuse "the views sit on a saturated copy"
  | _ -> ());
  List.map
    (fun u ->
      match Query.Ucq.disjuncts u with
      | [ cq ] -> (cq, Hashtbl.find views (Query.Ucq.name u))
      | _ -> refuse ("view " ^ Query.Ucq.name u ^ " is a union of CQs"))
    s.recommended

let insert t triple = Maintenance.insert_triple (store t) (maintained t) triple
let delete t triple = Maintenance.delete_triple (store t) (maintained t) triple
