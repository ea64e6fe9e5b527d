type position = S | P | O

type t = { s : Qterm.t; p : Qterm.t; o : Qterm.t }

let make s p o = { s; p; o }

let compare a b =
  let c = Qterm.compare a.s b.s in
  if c <> 0 then c
  else
    let c = Qterm.compare a.p b.p in
    if c <> 0 then c else Qterm.compare a.o b.o

let equal a b = compare a b = 0

let term_at t = function S -> t.s | P -> t.p | O -> t.o

let set_at t pos v =
  match pos with S -> { t with s = v } | P -> { t with p = v } | O -> { t with o = v }

let positions = [ S; P; O ]

let position_name = function S -> "s" | P -> "p" | O -> "o"

let position_rank = function S -> 0 | P -> 1 | O -> 2

let compare_position a b = Int.compare (position_rank a) (position_rank b)

let equal_position a b = compare_position a b = 0

let vars t =
  List.filter_map (fun pos -> Qterm.var_name (term_at t pos)) positions

let var_set t = List.sort_uniq String.compare (vars t)

let constants t =
  List.filter_map
    (fun pos ->
      match Qterm.constant (term_at t pos) with
      | Some c -> Some (pos, c)
      | None -> None)
    positions

let constant_count t = List.length (constants t)

let subst f t =
  let apply = function
    | Qterm.Var x as v -> Option.value (f x) ~default:v
    | Qterm.Cst _ as c -> c
  in
  { s = apply t.s; p = apply t.p; o = apply t.o }

let subst_var x v t = subst (fun y -> if String.equal x y then Some v else None) t

let rename_var x y t = subst_var x (Qterm.Var y) t

let to_string t =
  Printf.sprintf "t(%s, %s, %s)" (Qterm.to_string t.s) (Qterm.to_string t.p)
    (Qterm.to_string t.o)
