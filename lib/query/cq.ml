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

type head_mode = Ordered | Set | NoHead

(* A labelling works on ints.  Variables are numbered [0 .. nv-1] in
   order of first occurrence, and a constant is coded [-(r+1)], where [r]
   is its rank by [Rdf.Term.compare] (kind, then label) among the
   query's own constants: colours are [>= 0], so the two ranges never
   meet, and constants of different kinds never share a code.  A slot
   of [slots] is the code of one atom position, atom [i] at [3i .. 3i+2]. *)
type coded = {
  nv : int;
  names : string array;  (* variable number -> name, [0 .. nv-1] *)
  consts : Rdf.Term.t array;  (* constant rank -> constant *)
  slots : int array;
  head : int array;  (* head codes; empty under [NoHead] *)
  sig_start : int array;
      (* variable v's signature is sig_.(sig_start.(v) .. sig_start.(v+1)-1) *)
  sig_ : int array;
      (* scratch: each variable's own colour, then a (position, colour of
         s, of p, of o) quadruple per occurrence *)
  order : int array;  (* scratch: variables sorted by a comparison *)
}

let no_term = Rdf.Term.Uri ""

(* The index of a name or a constant among the first [n] cells of an
   array, or [n] when it is not there. *)
let rec find_var names n x i =
  if i = n || String.equal names.(i) x then i else find_var names n x (i + 1)

let rec find_const seen n c i =
  if i = n || Rdf.Term.equal seen.(i) c then i else find_const seen n c (i + 1)

(* A term's code, by first occurrence for a constant; [counts] holds
   the variables and constants seen so far. *)
let code names seen counts = function
  | Qterm.Var x ->
    let n = counts.(0) in
    let i = find_var names n x 0 in
    if i = n then begin
      names.(i) <- x;
      counts.(0) <- n + 1
    end;
    i
  | Qterm.Cst c ->
    let n = counts.(1) in
    let i = find_const seen n c 0 in
    if i = n then begin
      seen.(i) <- c;
      counts.(1) <- n + 1
    end;
    -i - 1

let rec code_body names seen counts slots i = function
  | [] -> ()
  | (a : Atom.t) :: rest ->
    slots.(3 * i) <- code names seen counts a.s;
    slots.((3 * i) + 1) <- code names seen counts a.p;
    slots.((3 * i) + 2) <- code names seen counts a.o;
    code_body names seen counts slots (i + 1) rest

(* Insertion sort of an int array by [cmp], in place: the arrays sorted
   here hold one query's variables or constants.  (Not [Array.sort],
   whose heap sort raises an exception per sift, each kept as the
   domain's last exception while backtraces are on.) *)
let sort_by cmp a =
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let code_query ~head_mode q =
  let m = List.length q.body in
  let head_terms = match head_mode with NoHead -> [] | Ordered | Set -> q.head in
  let h = List.length head_terms in
  let names = Array.make (3 * m) "" and seen = Array.make ((3 * m) + h) no_term in
  let counts = [| 0; 0 |] in
  let slots = Array.make (3 * m) 0 and head = Array.make h 0 in
  code_body names seen counts slots 0 q.body;
  List.iteri (fun i t -> head.(i) <- code names seen counts t) head_terms;
  let nv = counts.(0) and nc = counts.(1) in
  (* recode the constants from first occurrence to rank *)
  let by_rank = Array.init nc Fun.id in
  sort_by (fun i j -> Rdf.Term.compare seen.(i) seen.(j)) by_rank;
  let consts = Array.make nc no_term and rank = Array.make nc 0 in
  for r = 0 to nc - 1 do
    consts.(r) <- seen.(by_rank.(r));
    rank.(by_rank.(r)) <- r
  done;
  for j = 0 to (3 * m) - 1 do
    let x = slots.(j) in
    if x < 0 then slots.(j) <- -rank.(-x - 1) - 1
  done;
  for j = 0 to h - 1 do
    let x = head.(j) in
    if x < 0 then head.(j) <- -rank.(-x - 1) - 1
  done;
  let sig_start = Array.make (nv + 1) 0 in
  for j = 0 to (3 * m) - 1 do
    let x = slots.(j) in
    if x >= 0 then sig_start.(x + 1) <- sig_start.(x + 1) + 4
  done;
  for v = 0 to nv - 1 do
    sig_start.(v + 1) <- sig_start.(v + 1) + sig_start.(v) + 1
  done;
  {
    nv;
    names;
    consts;
    slots;
    head;
    sig_start;
    sig_ = Array.make sig_start.(nv) 0;
    order = Array.make nv 0;
  }

let rec compare_blocks a i j width k =
  if k = width then 0
  else
    let c = Int.compare a.(i + k) a.(j + k) in
    if c <> 0 then c else compare_blocks a i j width (k + 1)

(* Sorts the [n] blocks of [width] ints from [a.(off)] lexicographically,
   in place (insertion sort: a block count is an atom or occurrence
   count). *)
let sort_blocks a off width n =
  for i = 1 to n - 1 do
    let j = ref (off + (i * width)) in
    while !j > off && compare_blocks a (!j - width) !j width 0 > 0 do
      for k = 0 to width - 1 do
        let x = a.(!j - width + k) in
        a.(!j - width + k) <- a.(!j + k);
        a.(!j + k) <- x
      done;
      j := !j - width
    done
  done

(* Ranks the variables by [cmp] into [colors] (dense, from 0, equal
   variables equal), through [cq.order]; returns the number of ranks. *)
let rank_by cq cmp colors =
  let order = cq.order in
  for v = 0 to cq.nv - 1 do
    order.(v) <- v
  done;
  sort_by cmp order;
  let r = ref 0 in
  if cq.nv > 0 then colors.(order.(0)) <- 0;
  for i = 1 to cq.nv - 1 do
    if cmp order.(i - 1) order.(i) <> 0 then incr r;
    colors.(order.(i)) <- !r
  done;
  if cq.nv = 0 then 0 else !r + 1

(* Each variable's tag, if it has one. *)
let var_tags cq tags =
  let tag = Array.make cq.nv None in
  List.iter
    (fun (x, t) ->
      let v = find_var cq.names cq.nv x 0 in
      if v < cq.nv then tag.(v) <- Some t)
    tags;
  tag

(* The initial colouring into [colors]: ranks of what an isomorphism
   keeps of each variable, its head positions ([Ordered]), whether it
   is in the head ([Set]), and its tag.  Returns the number of classes. *)
let initial_colors cq ~head_mode tag colors =
  let head_pos = Array.make cq.nv [] in
  (match head_mode with
  | NoHead -> ()
  | Ordered ->
    for i = Array.length cq.head - 1 downto 0 do
      let x = cq.head.(i) in
      if x >= 0 then head_pos.(x) <- i :: head_pos.(x)
    done
  | Set ->
    Array.iter (fun x -> if x >= 0 then head_pos.(x) <- [ 0 ]) cq.head);
  rank_by cq
    (fun u v ->
      match List.compare Int.compare head_pos.(u) head_pos.(v) with
      | 0 -> Option.compare String.compare tag.(u) tag.(v)
      | c -> c)
    colors

let color colors x = if x >= 0 then colors.(x) else x

let compare_signatures cq u v =
  let su = cq.sig_start.(u) and sv = cq.sig_start.(v) in
  let lu = cq.sig_start.(u + 1) - su and lv = cq.sig_start.(v + 1) - sv in
  let rec go k =
    if k = lu || k = lv then Int.compare lu lv
    else
      let c = Int.compare cq.sig_.(su + k) cq.sig_.(sv + k) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

(* One refinement round, from [colors] into [next]: a variable's
   signature is its own colour and the sorted (position, colour of s, of
   p, of o) of its occurrences, and its new colour is the rank of its
   signature.  A signature starts with the old colour, so the new
   colouring refines the old one and keeps its order.  Returns the
   number of classes. *)
let refine cq colors next =
  let sg = cq.sig_ and slots = cq.slots in
  for v = 0 to cq.nv - 1 do
    let base = cq.sig_start.(v) in
    sg.(base) <- colors.(v);
    let at = ref (base + 1) in
    for j = 0 to Array.length slots - 1 do
      if slots.(j) = v then begin
        let a = j - (j mod 3) in
        sg.(!at) <- j mod 3;
        sg.(!at + 1) <- color colors slots.(a);
        sg.(!at + 2) <- color colors slots.(a + 1);
        sg.(!at + 3) <- color colors slots.(a + 2);
        at := !at + 4
      end
    done;
    sort_blocks sg (base + 1) 4 ((!at - base - 1) / 4)
  done;
  rank_by cq (compare_signatures cq) next

(* Refine until the number of classes stops growing; the result is
   dense. *)
let rec refine_to_fixpoint cq colors classes =
  let next = Array.make cq.nv 0 in
  let classes' = refine cq colors next in
  if classes' > classes then refine_to_fixpoint cq next classes' else (next, classes')

(* The int form of a discrete colouring: the atoms spelled in labels
   (a variable's label is its colour, a constant's its code), sorted,
   then the head, in order under [Ordered] and sorted under [Set]. *)
let int_form cq ~head_mode colors =
  let n = Array.length cq.slots and h = Array.length cq.head in
  let form = Array.make (n + h) 0 in
  for j = 0 to n - 1 do
    form.(j) <- color colors cq.slots.(j)
  done;
  sort_blocks form 0 3 (n / 3);
  for j = 0 to h - 1 do
    form.(n + j) <- color colors cq.head.(j)
  done;
  (match head_mode with Set -> sort_blocks form n 1 h | Ordered | NoHead -> ());
  form

let rec compare_forms a b i =
  if i = Array.length a then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_forms a b (i + 1)

(* The least int form over the leaves of the individualization tree
   below [colors], and the leaf's colouring.  After refinement, each
   member of the first class of two or more variables is individualized
   in turn: given a colour of its own just below its class's, which the
   next refinement ranks. *)
let rec solve cq ~head_mode colors classes =
  let colors, classes = refine_to_fixpoint cq colors classes in
  if classes = cq.nv then (int_form cq ~head_mode colors, colors)
  else begin
    (* colours are dense ranks: the first class holding two *)
    let size = Array.make classes 0 in
    Array.iter (fun c -> size.(c) <- size.(c) + 1) colors;
    let c = ref 0 in
    while size.(!c) < 2 do
      incr c
    done;
    let best = ref None in
    for v = 0 to cq.nv - 1 do
      if colors.(v) = !c then begin
        let split = Array.map (fun x -> (2 * x) + 1) colors in
        split.(v) <- 2 * !c;
        let ((form, _) as leaf) = solve cq ~head_mode split (classes + 1) in
        match !best with
        | Some (best_form, _) when compare_forms best_form form 0 <= 0 -> ()
        | Some _ | None -> best := Some leaf
      end
    done;
    Option.get !best
  end

let add_int b n =
  if n < 10 then Buffer.add_char b (Char.unsafe_chr (48 + n))
  else Buffer.add_string b (string_of_int n)

(* A variable as V<label>, a constant by its self-delimiting
   {!Rdf.Term.key}, so no label runs into the next. *)
let add_label b cq x =
  if x >= 0 then begin
    Buffer.add_char b 'V';
    add_int b x
  end
  else Rdf.Term.add_key b cq.consts.(-x - 1)

(* The winning int form spelled once; a tagged variable's tag follows
   the form, in label order, after its length. *)
let render cq ~head_mode tag colors form =
  let n = Array.length cq.slots and h = Array.length cq.head in
  (* room for every label and the separator after it, so the buffer
     never grows *)
  let capacity = ref (8 + (2 * n)) in
  Array.iter
    (fun x -> capacity := !capacity + if x >= 0 then 10 else 26 + Rdf.Term.size cq.consts.(-x - 1))
    form;
  Array.iter
    (function Some t -> capacity := !capacity + 32 + String.length t | None -> ())
    tag;
  let b = Buffer.create !capacity in
  (match head_mode with
  | NoHead -> ()
  | Ordered | Set ->
    let ordered = match head_mode with Ordered -> true | Set | NoHead -> false in
    Buffer.add_char b (if ordered then '[' else '{');
    for j = 0 to h - 1 do
      if j > 0 then Buffer.add_char b ',';
      add_label b cq form.(n + j)
    done;
    Buffer.add_string b (if ordered then "]<=" else "}<="));
  for i = 0 to (n / 3) - 1 do
    if i > 0 then Buffer.add_char b '&';
    Buffer.add_string b "t(";
    add_label b cq form.(3 * i);
    Buffer.add_char b ',';
    add_label b cq form.((3 * i) + 1);
    Buffer.add_char b ',';
    add_label b cq form.((3 * i) + 2);
    Buffer.add_char b ')'
  done;
  if Array.exists Option.is_some tag then begin
    let var_of_label = Array.make cq.nv 0 in
    Array.iteri (fun v l -> var_of_label.(l) <- v) colors;
    Array.iteri
      (fun l v ->
        match tag.(v) with
        | Some t ->
          Buffer.add_string b "|V";
          add_int b l;
          Buffer.add_char b '=';
          add_int b (String.length t);
          Buffer.add_char b ':';
          Buffer.add_string b t
        | None -> ())
      var_of_label
  end;
  Buffer.contents b

(* The canonical form, the coded query and the discrete colouring that
   produced it (variable number -> label).  The individualization tree
   and its int forms depend on the query only up to renaming, so the
   least form is canonical; equal int forms spell alike, so which of
   several equal leaves wins does not change the form. *)
let labelling ?(tags = []) ~head_mode q =
  let cq = code_query ~head_mode q in
  let tag = var_tags cq tags in
  let colors = Array.make cq.nv 0 in
  let classes = initial_colors cq ~head_mode tag colors in
  let form, colors = solve cq ~head_mode colors classes in
  (render cq ~head_mode tag colors form, cq, colors)

let form ?tags ~head_mode q =
  let form, _, _ = labelling ?tags ~head_mode q in
  form

let canonical_string q =
  if String.length q.canon = 0 then q.canon <- form ~head_mode:Ordered q;
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
  | tags -> form ~tags ~head_mode:Ordered q

let canonical_body_string q = form ~head_mode:NoHead q

let canonical_head_set_string q = form ~head_mode:Set q

(* -- Body isomorphism (for view fusion) ---------------------------------- *)

(* Equal forms give each label to one variable of each body, and the
   forms are the bodies spelled in those labels: composing the two
   labellings maps v2's body onto v1's. *)
let body_isomorphism v1 v2 =
  let form1, cq1, labels1 = labelling ~head_mode:NoHead v1 in
  let form2, cq2, labels2 = labelling ~head_mode:NoHead v2 in
  if not (String.equal form1 form2) then None
  else
    let by_label cq labels =
      let vars = Array.make cq.nv "" in
      Array.iteri (fun v l -> vars.(l) <- cq.names.(v)) labels;
      vars
    in
    let vars1 = by_label cq1 labels1 and vars2 = by_label cq2 labels2 in
    Some (List.init cq2.nv (fun l -> (vars2.(l), vars1.(l))))

let to_string q =
  Printf.sprintf "%s(%s) :- %s" q.name
    (String.concat ", " (List.map Qterm.to_string q.head))
    (String.concat ", " (List.map Atom.to_string q.body))
