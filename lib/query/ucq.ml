type t = {
  name : string;
  first : Cq.t;
  shapes : Rcq.t list;
  mutable expansion : Cq.t list option;
      (* the disjuncts, computed on first use; a race computes the same
         list twice *)
}

let check_arities fn a qs =
  if List.exists (fun q -> Cq.arity q <> a) qs then
    invalid_arg (fn ^ ": disjuncts with different arities")

let make ~name disjuncts =
  match disjuncts with
  | [] -> invalid_arg "Ucq.make: empty union"
  | first :: rest ->
    check_arities "Ucq.make" (Cq.arity first) rest;
    { name; first; shapes = List.map Rcq.of_cq disjuncts; expansion = Some disjuncts }

let of_cq q = make ~name:q.Cq.name [ q ]

let of_shapes ~name first shapes =
  if shapes = [] then invalid_arg "Ucq.of_shapes: no shape";
  check_arities "Ucq.of_shapes" (Cq.arity first) (List.map Rcq.cq shapes);
  { name; first; shapes; expansion = None }

let name t = t.name
let first t = t.first
let shapes t = t.shapes

let expand t =
  let seen = Hashtbl.create 64 in
  let fresh q =
    let key = Cq.canonical_string q in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  let all = t.first :: List.concat_map Rcq.expand t.shapes in
  List.mapi
    (fun i d -> Cq.rename d (Printf.sprintf "%s#%d" t.name i))
    (List.filter fresh all)

let disjuncts t =
  match t.expansion with
  | Some ds -> ds
  | None ->
    let ds = expand t in
    t.expansion <- Some ds;
    ds

let cardinal t = List.length (disjuncts t)

let atom_count t =
  List.fold_left (fun acc q -> acc + Cq.atom_count q) 0 (disjuncts t)

let constant_count t =
  List.fold_left (fun acc q -> acc + Cq.constant_count q) 0 (disjuncts t)
