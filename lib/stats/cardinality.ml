let position_distinct stats (a : Query.Atom.t) pos =
  let count = Statistics.atom_count stats a in
  let raw =
    match Query.Atom.term_at a pos with
    | Query.Qterm.Cst _ -> 1.
    | Query.Qterm.Var _ -> (
      let column = match pos with Query.Atom.S -> `S | Query.Atom.P -> `P | Query.Atom.O -> `O in
      match (a.Query.Atom.p, pos) with
      | Query.Qterm.Cst prop, Query.Atom.S -> (
        match Statistics.property_distinct stats prop `S with
        | Some d -> d
        | None -> 0.)
      | Query.Qterm.Cst prop, Query.Atom.O -> (
        match Statistics.property_distinct stats prop `O with
        | Some d -> d
        | None -> 0.)
      | _, _ -> Statistics.column_distinct stats column)
  in
  Float.max 1. (Float.min raw (Float.max count 1.))

(* The factors of one variable are multiplied last place first, and
   the variables in {!Query.State_graph.fold} order: products past 2^53
   round differently in another order. *)
let estimate_with stats atoms occs =
  let counts = Array.map (Statistics.atom_count stats) atoms in
  if Array.exists (fun c -> c = 0.) counts then 0.
  else
    let cross = Array.fold_left ( *. ) 1. counts in
    let selectivity =
      Query.State_graph.fold
        (fun _var places acc ->
          match places with
          | [] | [ _ ] -> acc
          | _ :: _ :: _ ->
            let distincts =
              List.rev_map (fun (i, pos) -> position_distinct stats atoms.(i) pos) places
            in
            let product = List.fold_left ( *. ) 1. distincts in
            let smallest = List.fold_left Float.min Float.infinity distincts in
            acc *. (smallest /. product))
        occs 1.
    in
    Float.max (cross *. selectivity) 1e-9

let estimate_cq stats (q : Query.Cq.t) =
  estimate_with stats (Array.of_list q.body) (Query.State_graph.occurrences q)

let estimate_ucq stats u =
  List.fold_left (fun acc q -> acc +. estimate_cq stats q) 0. (Query.Ucq.disjuncts u)

let profile stats (q : Query.Cq.t) occs columns =
  let atoms = Array.of_list q.body in
  let card = estimate_with stats atoms occs in
  let distinct x =
    match Query.State_graph.places occs x with
    | [] -> 1.
    | places ->
      let per_place =
        List.fold_left
          (fun acc (i, pos) -> Float.min acc (position_distinct stats atoms.(i) pos))
          Float.infinity places
      in
      Float.max 1. (Float.min per_place card)
  in
  (card, List.map (fun x -> (x, distinct x)) columns)
