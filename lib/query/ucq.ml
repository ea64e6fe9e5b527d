type t = { name : string; disjuncts : Cq.t list }

let make ~name disjuncts =
  match disjuncts with
  | [] -> invalid_arg "Ucq.make: empty union"
  | first :: rest ->
    let a = Cq.arity first in
    if List.exists (fun q -> Cq.arity q <> a) rest then
      invalid_arg "Ucq.make: disjuncts with different arities";
    { name; disjuncts }

let of_cq q = { name = q.Cq.name; disjuncts = [ q ] }

let name t = t.name
let disjuncts t = t.disjuncts

let cardinal t = List.length t.disjuncts

let atom_count t =
  List.fold_left (fun acc q -> acc + Cq.atom_count q) 0 t.disjuncts

let constant_count t =
  List.fold_left (fun acc q -> acc + Cq.constant_count q) 0 t.disjuncts

let to_string t =
  String.concat "\n  UNION " (List.map Cq.to_string t.disjuncts)
