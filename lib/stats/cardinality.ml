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

(* occurrences of each variable across the body: (atom, position) list *)
let occurrences (q : Query.Cq.t) =
  let table = Hashtbl.create 16 in
  List.iter
    (fun a ->
      List.iter
        (fun pos ->
          match Query.Atom.term_at a pos with
          | Query.Qterm.Var x ->
            let prev = Option.value (Hashtbl.find_opt table x) ~default:[] in
            Hashtbl.replace table x ((a, pos) :: prev)
          | Query.Qterm.Cst _ -> ())
        Query.Atom.positions)
    q.Query.Cq.body;
  table

let estimate_with stats (q : Query.Cq.t) occs =
  let counts = List.map (Statistics.atom_count stats) q.Query.Cq.body in
  if List.exists (fun c -> c = 0.) counts then 0.
  else
    let cross = List.fold_left ( *. ) 1. counts in
    let selectivity =
      Hashtbl.fold
        (fun _var places acc ->
          match places with
          | [] | [ _ ] -> acc
          | _ :: _ :: _ ->
            let distincts =
              List.map (fun (a, pos) -> position_distinct stats a pos) places
            in
            let product = List.fold_left ( *. ) 1. distincts in
            let smallest = List.fold_left Float.min Float.infinity distincts in
            acc *. (smallest /. product))
        occs 1.
    in
    Float.max (cross *. selectivity) 1e-9

let estimate_cq stats q = estimate_with stats q (occurrences q)

let estimate_ucq stats u =
  List.fold_left (fun acc q -> acc +. estimate_cq stats q) 0. (Query.Ucq.disjuncts u)

let profile stats q columns =
  let occs = occurrences q in
  let card = estimate_with stats q occs in
  let distinct x =
    match Hashtbl.find_opt occs x with
    | None | Some [] -> 1.
    | Some places ->
      let per_place =
        List.fold_left
          (fun acc (a, pos) -> Float.min acc (position_distinct stats a pos))
          Float.infinity places
      in
      Float.max 1. (Float.min per_place card)
  in
  (card, List.map (fun x -> (x, distinct x)) columns)
