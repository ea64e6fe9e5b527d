module SMap = Map.Make (String)

(* Unify one atom with a concrete encoded triple, starting from an
   existing binding environment. *)
let unify_atom store bindings (atom : Query.Atom.t) (s, p, o) =
  let unify_pos acc term code =
    match acc with
    | None -> None
    | Some env -> (
      match term with
      | Query.Qterm.Cst c -> (
        match Rdf.Store.find_term store c with
        | Some code' when code' = code -> Some env
        | Some _ | None -> None)
      | Query.Qterm.Var x -> (
        match SMap.find_opt x env with
        | Some bound -> if bound = code then Some env else None
        | None -> Some (SMap.add x code env)))
  in
  unify_pos
    (unify_pos (unify_pos (Some bindings) atom.Query.Atom.s s) atom.Query.Atom.p p)
    atom.Query.Atom.o o

(* Evaluate the query with some variables pre-bound, by substituting the
   bindings into the body and evaluating the remaining pattern. *)
let eval_with_bindings store (q : Query.Cq.t) bindings skip_index =
  let substituted =
    Query.Cq.subst
      (fun x ->
        match SMap.find_opt x bindings with
        | Some code ->
          Some (Query.Qterm.Cst (Rdf.Store.decode_term store code))
        | None -> None)
      q
  in
  let remaining =
    List.filteri (fun i _ -> i <> skip_index) substituted.Query.Cq.body
  in
  match remaining with
  | [] ->
    (* single-atom view: the delta tuple is fully determined *)
    Query.Evaluation.eval_cq_codes store
      (Query.Cq.make ~name:q.Query.Cq.name ~head:substituted.Query.Cq.head
         ~body:substituted.Query.Cq.body)
  | _ ->
    Query.Evaluation.eval_cq_codes store
      (Query.Cq.make ~name:q.Query.Cq.name ~head:substituted.Query.Cq.head
         ~body:remaining)

let delta_insert store (q : Query.Cq.t) triple =
  let seen = Query.Rowset.create 16 in
  let deltas = ref [] in
  List.iteri
    (fun i atom ->
      match unify_atom store SMap.empty atom triple with
      | None -> ()
      | Some bindings ->
        List.iter
          (fun tuple ->
            if Query.Rowset.add seen tuple then deltas := tuple :: !deltas)
          (eval_with_bindings store q bindings i))
    q.Query.Cq.body;
  !deltas

let insert_triple store views triple =
  if not (Rdf.Store.add store triple) then 0
  else
    let encoded =
      match
        ( Rdf.Store.find_term store triple.Rdf.Triple.s,
          Rdf.Store.find_term store triple.Rdf.Triple.p,
          Rdf.Store.find_term store triple.Rdf.Triple.o )
      with
      | Some s, Some p, Some o -> (s, p, o)
      | _ -> assert false
    in
    List.fold_left
      (fun acc (cq, rel) ->
        List.fold_left
          (fun acc tuple -> if Relation.add_row rel tuple then acc + 1 else acc)
          acc (delta_insert store cq encoded))
      0 views

let delete_triple store views triple =
  match
    ( Rdf.Store.find_term store triple.Rdf.Triple.s,
      Rdf.Store.find_term store triple.Rdf.Triple.p,
      Rdf.Store.find_term store triple.Rdf.Triple.o )
  with
  | Some s, Some p, Some o when Rdf.Store.mem_encoded store (s, p, o) ->
    (* candidates computed while the triple is still present *)
    let candidates =
      List.map (fun (cq, rel) -> (cq, rel, delta_insert store cq (s, p, o))) views
    in
    let removed = Rdf.Store.remove_encoded store (s, p, o) in
    assert removed;
    List.fold_left
      (fun acc (cq, rel, tuples) ->
        List.fold_left
          (fun acc tuple ->
            (* still derivable without the deleted triple? *)
            let bound =
              List.fold_left2
                (fun env term code ->
                  match term with
                  | Query.Qterm.Var x -> SMap.add x code env
                  | Query.Qterm.Cst _ -> env)
                SMap.empty cq.Query.Cq.head (Array.to_list tuple)
            in
            let still =
              eval_with_bindings store cq bound (-1) <> []
            in
            if (not still) && Relation.remove_row rel tuple then acc + 1
            else acc)
          acc tuples)
      0 candidates
  | _ -> 0
