type t = {
  name : string;
  head : Qterm.t list;
  body : Atom.t list;
  mutable canon : string;
      (* memoized canonical form, "" = not yet computed (a body is never
         empty, so a form never is), and its hash, -1 = not yet.
         Labelling is the expensive part of a plan-cache lookup, and
         head/body are immutable after construction, so it runs at most
         once per query value.  Every derived query below that changes
         head or body resets both. *)
  mutable canon_hash : int;
}

module SMap = Map.Make (String)
module SSet = Set.Make (String)

let body_var_set body =
  List.fold_left
    (fun acc a -> List.fold_left (fun acc v -> SSet.add v acc) acc (Atom.vars a))
    SSet.empty body

let make ~name ~head ~body =
  if body = [] then invalid_arg "Cq.make: empty body";
  let bvars = body_var_set body in
  List.iter
    (fun term ->
      match term with
      | Qterm.Var x when not (SSet.mem x bvars) ->
        invalid_arg ("Cq.make: unsafe head variable " ^ x)
      | Qterm.Var _ | Qterm.Cst _ -> ())
    head;
  { name; head; body; canon = ""; canon_hash = -1 }

(* the name does not enter the canonical form: keep the memo *)
let rename q name = { q with name }

let arity q = List.length q.head

let head_vars q =
  let rec collect seen = function
    | [] -> []
    | Qterm.Var x :: rest when not (SSet.mem x seen) ->
      x :: collect (SSet.add x seen) rest
    | _ :: rest -> collect seen rest
  in
  collect SSet.empty q.head

let body_vars q = SSet.elements (body_var_set q.body)

let existential_vars q =
  let heads = SSet.of_list (head_vars q) in
  List.filter (fun v -> not (SSet.mem v heads)) (body_vars q)

let atom_count q = List.length q.body

let constants q =
  List.sort_uniq Rdf.Term.compare
    (List.concat_map (fun a -> List.map snd (Atom.constants a)) q.body)

let constant_count q =
  List.fold_left (fun acc a -> acc + Atom.constant_count a) 0 q.body

let equal_syntactic a b =
  List.length a.head = List.length b.head
  && List.for_all2 Qterm.equal a.head b.head
  && List.length a.body = List.length b.body
  && List.for_all2 Atom.equal a.body b.body

let subst f q =
  let apply_term = function
    | Qterm.Var x as v -> Option.value (f x) ~default:v
    | Qterm.Cst _ as c -> c
  in
  {
    q with
    head = List.map apply_term q.head;
    body = List.map (Atom.subst f) q.body;
    canon = "";
    canon_hash = -1;
  }

let subst_var x v q = subst (fun y -> if String.equal x y then Some v else None) q

let freshen q =
  let mapping =
    List.fold_left
      (fun acc v -> SMap.add v (Qterm.Var (Qterm.fresh_var ())) acc)
      SMap.empty (body_vars q)
  in
  subst (fun v -> SMap.find_opt v mapping) q

(* -- Containment mappings (Chandra-Merlin) ------------------------------ *)

let unify_term subst from_term into_term =
  match from_term with
  | Qterm.Cst c -> (
    match into_term with
    | Qterm.Cst c' when Rdf.Term.equal c c' -> Some subst
    | Qterm.Cst _ | Qterm.Var _ -> None)
  | Qterm.Var x -> (
    match SMap.find_opt x subst with
    | Some bound -> if Qterm.equal bound into_term then Some subst else None
    | None -> Some (SMap.add x into_term subst))

let unify_atom subst (a : Atom.t) (b : Atom.t) =
  Option.bind (unify_term subst a.s b.s) (fun subst ->
      Option.bind (unify_term subst a.p b.p) (fun subst ->
          unify_term subst a.o b.o))

let homomorphism ?(check_head = true) ~from ~into () =
  let seed =
    if not check_head then Some SMap.empty
    else if List.length from.head <> List.length into.head then None
    else
      List.fold_left2
        (fun acc hf hi -> Option.bind acc (fun subst -> unify_term subst hf hi))
        (Some SMap.empty) from.head into.head
  in
  match seed with
  | None -> None
  | Some seed ->
    let rec search subst = function
      | [] -> Some subst
      | atom :: rest ->
        let try_target target =
          match unify_atom subst atom target with
          | Some subst' -> search subst' rest
          | None -> None
        in
        List.find_map try_target into.body
    in
    Option.map
      (fun subst -> SMap.bindings subst)
      (search seed from.body)

let contained_in q1 q2 =
  Option.is_some (homomorphism ~from:q2 ~into:q1 ())

let equivalent a b = contained_in a b && contained_in b a

(* A query is minimized by repeatedly folding it into itself minus one
   atom; the head must be preserved, so atoms whose removal makes a head
   variable unsafe are kept. *)
let minimize q =
  let try_drop q i =
    let body' = List.filteri (fun j _ -> j <> i) q.body in
    if body' = [] then None
    else
      let bvars = body_var_set body' in
      let head_safe =
        List.for_all
          (function Qterm.Var x -> SSet.mem x bvars | Qterm.Cst _ -> true)
          q.head
      in
      if not head_safe then None
      else
        let candidate = { q with body = body'; canon = ""; canon_hash = -1 } in
        match homomorphism ~from:q ~into:candidate () with
        | Some _ -> Some candidate
        | None -> None
    in
  let rec loop q =
    let n = List.length q.body in
    let rec attempt i = if i >= n then q else
      match try_drop q i with
      | Some smaller -> loop smaller
      | None -> attempt (i + 1)
    in
    attempt 0
  in
  loop q

let is_minimal q = atom_count (minimize q) = atom_count q

(* -- Connectivity -------------------------------------------------------- *)

let components q =
  let atoms = Array.of_list q.body in
  let n = Array.length atoms in
  let visited = Array.make n false in
  let adjacent i j = Atom.shares_var atoms.(i) atoms.(j) in
  let rec bfs frontier acc =
    match frontier with
    | [] -> acc
    | i :: rest ->
      let fresh = ref [] in
      for j = 0 to n - 1 do
        if (not visited.(j)) && adjacent i j then begin
          visited.(j) <- true;
          fresh := j :: !fresh
        end
      done;
      bfs (!fresh @ rest) (i :: acc)
  in
  let comps = ref [] in
  for i = 0 to n - 1 do
    if not visited.(i) then begin
      visited.(i) <- true;
      let comp = bfs [ i ] [] in
      comps := List.map (fun j -> atoms.(j)) (List.sort Int.compare comp) :: !comps
    end
  done;
  List.rev !comps

let is_connected q = List.length (components q) <= 1

(* -- Canonical labeling --------------------------------------------------- *)

(* A body position as the labelling sees it: a constant, by its key
   (computed once per labelling), or a variable. *)
type slot = Fixed of string | Free of string

let slot = function Qterm.Cst c -> Fixed (Rdf.Term.key c) | Qterm.Var x -> Free x

let slots (a : Atom.t) = [| slot a.s; slot a.p; slot a.o |]

let position_names = [| "s"; "p"; "o" |]

(* A constant's colour is its self-delimiting key, which starts with a
   kind tag (U, B or L); a variable's colour starts with 0 or c.  The two
   ranges are disjoint, and no label can run into the next slot. *)
let slot_color colors = function Fixed k -> k | Free x -> SMap.find x colors

let refine_colors body vars colors =
  (* each atom's signature, built once per round *)
  let signed =
    List.map
      (fun a ->
        ( a,
          "(" ^ slot_color colors a.(0) ^ "," ^ slot_color colors a.(1) ^ ","
          ^ slot_color colors a.(2) ^ ")" ))
      body
  in
  let signature v =
    let occurrences =
      List.concat_map
        (fun (a, sg) ->
          List.filter_map
            (fun pos ->
              match a.(pos) with
              | Free x when String.equal x v ->
                Some (position_names.(pos) ^ sg)
              | Free _ | Fixed _ -> None)
            [ 0; 1; 2 ])
        signed
    in
    SMap.find v colors ^ "|" ^ String.concat ";" (List.sort String.compare occurrences)
  in
  let sigs = List.map (fun v -> (v, signature v)) vars in
  let distinct = List.sort_uniq String.compare (List.map snd sigs) in
  let rank s =
    let rec index i = function
      | [] -> assert false
      | x :: rest -> if String.equal x s then i else index (i + 1) rest
    in
    index 0 distinct
  in
  List.fold_left
    (fun acc (v, s) -> SMap.add v (Printf.sprintf "c%03d" (rank s)) acc)
    SMap.empty sigs

let rec refine_to_fixpoint body vars colors =
  let next = refine_colors body vars colors in
  if SMap.equal String.equal colors next then colors
  else refine_to_fixpoint body vars next

type head_mode = Ordered | Set | NoHead

(* The form of a discrete colouring, and the label ("V<rank>") it gives
   each variable.  A tagged variable's tag follows the form, in label
   order. *)
let render ~head_mode ~tags ~head ~body colors =
  let var_rank =
    let sorted =
      List.sort
        (fun (_, c1) (_, c2) -> String.compare c1 c2)
        (SMap.bindings colors)
    in
    List.mapi (fun i (v, _) -> (v, Printf.sprintf "V%d" i)) sorted
  in
  let label = function Fixed k -> k | Free x -> List.assoc x var_rank in
  let atom_str a =
    "t(" ^ label a.(0) ^ "," ^ label a.(1) ^ "," ^ label a.(2) ^ ")"
  in
  let body_str = String.concat "&" (List.sort String.compare (List.map atom_str body)) in
  let form =
    match head_mode with
    | Ordered -> "[" ^ String.concat "," (List.map label head) ^ "]<=" ^ body_str
    | Set ->
      "{" ^ String.concat ","
        (List.sort String.compare (List.map label head)) ^ "}<=" ^ body_str
    | NoHead -> body_str
  in
  let form =
    if SMap.is_empty tags then form
    else
      List.fold_left
        (fun acc (v, l) ->
          match SMap.find_opt v tags with
          | Some tag -> acc ^ "|" ^ l ^ "=" ^ tag
          | None -> acc)
        form var_rank
  in
  (form, var_rank)

(* The canonical form and the labelling that produced it.  A tag joins
   its variable's initial colour (after a [#], which no head tag
   holds), so only equally tagged variables can swap labels. *)
let labelling ?(tags = SMap.empty) ~head_mode q =
  let vars = body_vars q in
  let head = List.map slot q.head in
  let body = List.map slots q.body in
  let render = render ~head_mode ~tags ~head ~body in
  let initial =
    let head_tags =
      match head_mode with
      | NoHead -> SMap.empty
      | Set ->
        (* heads compared as sets: every head variable gets the same tag *)
        List.fold_left
          (fun acc term ->
            match term with
            | Qterm.Var x -> SMap.add x "H" acc
            | Qterm.Cst _ -> acc)
          SMap.empty q.head
      | Ordered ->
        List.fold_left
          (fun (acc, i) term ->
            match term with
            | Qterm.Var x ->
              let prev = Option.value (SMap.find_opt x acc) ~default:"" in
              (SMap.add x (prev ^ "H" ^ string_of_int i) acc, i + 1)
            | Qterm.Cst _ -> (acc, i + 1))
          (SMap.empty, 0) q.head
        |> fst
    in
    List.fold_left
      (fun acc v ->
        let color = "0" ^ Option.value (SMap.find_opt v head_tags) ~default:"E" in
        let color =
          match SMap.find_opt v tags with Some tag -> color ^ "#" ^ tag | None -> color
        in
        SMap.add v color acc)
      SMap.empty vars
  in
  let discrete colors =
    let values = List.map snd (SMap.bindings colors) in
    List.length (List.sort_uniq String.compare values) = List.length values
  in
  let rec solve colors =
    let colors = refine_to_fixpoint body vars colors in
    if discrete colors then render colors
    else begin
      (* individualize each member of the first ambiguous class, keep the
         lexicographically least outcome: canonical and order-independent *)
      let by_color =
        List.fold_left
          (fun acc (v, c) ->
            SMap.update c
              (function None -> Some [ v ] | Some vs -> Some (v :: vs))
              acc)
          SMap.empty (SMap.bindings colors)
      in
      let _, clash =
        List.find (fun (_, vs) -> List.length vs > 1) (SMap.bindings by_color)
      in
      let candidates =
        List.map
          (fun v -> solve (SMap.add v (SMap.find v colors ^ "!") colors))
          clash
      in
      List.fold_left
        (fun best c -> if String.compare (fst c) (fst best) < 0 then c else best)
        (List.hd candidates) (List.tl candidates)
    end
  in
  if vars = [] then render SMap.empty else solve initial

let canonical_string q =
  if String.length q.canon = 0 then q.canon <- fst (labelling ~head_mode:Ordered q);
  q.canon

(* FNV-1a, as [Rdf.Term.hash], with no polymorphic Hashtbl.hash *)
let form_hash form =
  let h = ref 0x811c9dc5 in
  let mix c = h := (!h lxor Char.code c) * 0x01000193 land max_int in
  String.iter mix form;
  !h

let canonical_hash q =
  if q.canon_hash < 0 then q.canon_hash <- form_hash (canonical_string q);
  q.canon_hash

let canonical_tagged q = function
  | [] -> canonical_string q
  | tags ->
    let tags = List.fold_left (fun acc (v, tag) -> SMap.add v tag acc) SMap.empty tags in
    fst (labelling ~tags ~head_mode:Ordered q)

let canonical_body_string q = fst (labelling ~head_mode:NoHead q)

let canonical_head_set_string q = fst (labelling ~head_mode:Set q)

(* -- Body isomorphism (for view fusion) ---------------------------------- *)

(* Equal forms give each label to one variable of each body, and the
   forms are the bodies spelled in those labels: composing the two
   labellings maps v2's body onto v1's. *)
let body_isomorphism v1 v2 =
  let form1, labels1 = labelling ~head_mode:NoHead v1 in
  let form2, labels2 = labelling ~head_mode:NoHead v2 in
  if not (String.equal form1 form2) then None
  else
    let var_of_label = List.map (fun (x1, l) -> (l, x1)) labels1 in
    Some (List.map (fun (x2, l) -> (x2, List.assoc l var_of_label)) labels2)

let to_string q =
  Printf.sprintf "%s(%s) :- %s" q.name
    (String.concat ", " (List.map Qterm.to_string q.head))
    (String.concat ", " (List.map Atom.to_string q.body))
