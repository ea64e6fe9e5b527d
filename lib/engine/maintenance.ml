(* The bindings under which the atom matches the encoded triple:
   constants must carry the triple's codes, and a repeated variable the
   same code at each of its positions. *)
let match_atom store (atom : Query.Atom.t) (s, p, o) =
  let pos env term code =
    Option.bind env (fun env ->
        match term with
        | Query.Qterm.Cst c ->
          if Option.equal Int.equal (Rdf.Store.find_term store c) (Some code) then Some env
          else None
        | Query.Qterm.Var x -> (
          match List.assoc_opt x env with
          | Some bound -> if bound = code then Some env else None
          | None -> Some ((x, code) :: env)))
  in
  pos (pos (pos (Some []) atom.Query.Atom.s s) atom.Query.Atom.p p) atom.Query.Atom.o o

(* The delta rule: for each atom matching the triple, the full body with
   that atom's variables bound to the triple's codes.  The atom itself
   becomes a membership probe of the (present) triple. *)
let delta_insert store (q : Query.Cq.t) triple =
  let seen = Query.Rowset.create 16 in
  let deltas = ref [] in
  List.iter
    (fun atom ->
      match match_atom store atom triple with
      | None -> ()
      | Some bound ->
        List.iter
          (fun tuple ->
            if Query.Rowset.add seen tuple then deltas := tuple :: !deltas)
          (Query.Evaluation.eval_cq_codes ~bound store q))
    q.Query.Cq.body;
  !deltas

let encode store (tr : Rdf.Triple.t) =
  let code = Rdf.Store.find_term store in
  match (code tr.Rdf.Triple.s, code tr.Rdf.Triple.p, code tr.Rdf.Triple.o) with
  | Some s, Some p, Some o -> Some (s, p, o)
  | _ -> None

let insert_triple store views triple =
  if not (Rdf.Store.add store triple) then 0
  else
    let encoded = Option.get (encode store triple) in
    List.fold_left
      (fun acc (cq, rel) ->
        List.fold_left
          (fun acc tuple -> if Relation.add_row rel tuple then acc + 1 else acc)
          acc (delta_insert store cq encoded))
      0 views

(* Is the tuple still an answer of the view?  Its head variables are
   bound to the tuple's codes and the body is evaluated. *)
let derivable store (q : Query.Cq.t) tuple =
  let bound =
    List.fold_left2
      (fun env term code ->
        match term with
        | Query.Qterm.Var x when not (List.mem_assoc x env) -> (x, code) :: env
        | Query.Qterm.Var _ | Query.Qterm.Cst _ -> env)
      [] q.Query.Cq.head (Array.to_list tuple)
  in
  Query.Evaluation.eval_cq_codes ~bound store q <> []

let delete_triple store views triple =
  match encode store triple with
  | Some enc when Rdf.Store.mem_encoded store enc ->
    (* candidates computed while the triple is still present *)
    let candidates =
      List.map (fun (cq, rel) -> (cq, rel, delta_insert store cq enc)) views
    in
    let removed = Rdf.Store.remove_encoded store enc in
    assert removed;
    List.fold_left
      (fun acc (cq, rel, tuples) ->
        List.fold_left
          (fun acc tuple ->
            if (not (derivable store cq tuple)) && Relation.remove_row rel tuple then
              acc + 1
            else acc)
          acc tuples)
      0 candidates
  | _ -> 0
