(* Algorithm 1 as a breadth-first search over shapes (restricted CQs,
   {!Rcq}).  Rules 1 and 2 only swap the constant at one position for a
   sub-class or sub-property, so a shape puts a fresh variable there,
   restricted to the constant's whole sub-class (sub-property) closure,
   instead of copying the query once per constant.  Rules 3 and 4 swap
   one atom for another with a property constant, which is widened the
   same way.  Rules 5 and 6 restrict the bound variable itself to the
   classes (properties and rdf:type).

   A restricted variable is {e local} when it occurs once in the body,
   at a class or property position, and not in the head: rules 1-4 act
   on its constants independently of the rest of the query, so its set
   can simply grow.  Any other restricted variable is {e pinned}: its
   constant also stands elsewhere (a head position, another atom), and
   a rule applied at one occurrence would separate it from the others.
   So a pinned variable keeps only the constants no rule applies to at
   any of its occurrences; each other constant is substituted into a
   shape of its own, where the substituted occurrences widen
   independently.  These are the correlated substitutions (a head
   constant paired with a body constant) that stay separate shapes.

   The expansion of the shapes is the oracle's set of disjuncts: every
   member is reachable by the rules (widening adds rule 1/2 successors,
   splits and restrictions are rule 5/6 substitutions), and every
   member's successors are members again, because local sets are
   closed, pinned constants admit no rule, and rules 3-6 are applied to
   every shape. *)

module TSet = Set.Make (Rdf.Term)
module SMap = Map.Make (String)

let rdf_type = Rdf.Vocabulary.rdf_type
let is_type = function Qterm.Cst c -> Rdf.Term.equal c rdf_type | Qterm.Var _ -> false

(* A shape under construction: the query and its restricted variables'
   sets (any size; singletons and empty sets are resolved by [settle]). *)
type shape = { q : Cq.t; sets : TSet.t SMap.t }

let closure step set =
  let rec go set frontier =
    match frontier with
    | [] -> set
    | x :: rest ->
      let next = List.filter (fun y -> not (TSet.mem y set)) (step x) in
      go (List.fold_left (fun s y -> TSet.add y s) set next) (next @ rest)
  in
  go set (TSet.elements set)

let sub_classes schema set = closure (Rdf.Schema.direct_subclasses schema) set
let sub_properties schema set = closure (Rdf.Schema.direct_subproperties schema) set

(* The positions a rule can act on: the object of an rdf:type atom (a
   class position, rules 1, 3 and 4) and any property position (rule
   2, and rules 1-4 once it holds rdf:type). *)
type role = Class_pos | Property_pos | Other_pos

let role (a : Atom.t) = function
  | Atom.P -> Property_pos
  | Atom.O when is_type a.p -> Class_pos
  | Atom.S | Atom.O -> Other_pos

(* Whether some rule rewrites constant [c] at a position of this role. *)
let rule_applies schema c = function
  | Class_pos ->
    (not (TSet.equal (sub_classes schema (TSet.singleton c)) (TSet.singleton c)))
    || Rdf.Schema.properties_with_domain schema c <> []
    || Rdf.Schema.properties_with_range schema c <> []
  | Property_pos ->
    Rdf.Term.equal c rdf_type
    || not (TSet.equal (sub_properties schema (TSet.singleton c)) (TSet.singleton c))
  | Other_pos -> false

let occurrences (q : Cq.t) x =
  List.concat
    (List.mapi
       (fun i (a : Atom.t) ->
         List.filter_map
           (fun pos ->
             match Atom.term_at a pos with
             | Qterm.Var y when String.equal x y -> Some (i, role a pos)
             | Qterm.Var _ | Qterm.Cst _ -> None)
           Atom.positions)
       q.body)

let in_head (q : Cq.t) x =
  List.exists (function Qterm.Var y -> String.equal x y | Qterm.Cst _ -> false) q.head

(* The role of a local variable's one occurrence, if it is local. *)
let local_role q x =
  match occurrences q x with
  | [ (_, ((Class_pos | Property_pos) as r)) ] when not (in_head q x) -> Some r
  | _ -> None

let replace_atom (q : Cq.t) i a' =
  Cq.make ~name:q.name ~head:q.head ~body:(List.mapi (fun j a -> if j = i then a' else a) q.body)

let substitute sh x c =
  { q = Cq.subst_var x (Qterm.Cst c) sh.q; sets = SMap.remove x sh.sets }

(* A fresh local variable restricted to [set] at position [pos] of atom
   [i], or the constant itself when the set has one member. *)
let restrict_at sh i pos set =
  match TSet.elements set with
  | [ c ] -> { sh with q = replace_atom sh.q i (Atom.set_at (List.nth sh.q.body i) pos (Qterm.Cst c)) }
  | _ ->
    let x = Qterm.fresh_var () in
    {
      q = replace_atom sh.q i (Atom.set_at (List.nth sh.q.body i) pos (Qterm.var x));
      sets = SMap.add x set sh.sets;
    }

(* One normalization move on a shape, or [None] once it is settled:
   the shapes that replace it.  Their expansions cover its expansion,
   plus rule 1/2 successors of its members when a set widens. *)
let settle_once schema sh =
  let resolve_small () =
    List.find_map
      (fun (x, set) ->
        match TSet.elements set with
        | [] -> Some []
        | [ c ] -> Some [ substitute sh x c ]
        | _ -> None)
      (SMap.bindings sh.sets)
  in
  (* a constant with sub-classes (sub-properties) at a class (property)
     position becomes a local variable; rdf:type below a property is
     left to [step], which gives it a shape of its own *)
  let widen_constant () =
    List.find_map
      (fun (i, (a : Atom.t)) ->
        match (a.p, a.o) with
        | Qterm.Cst p, _ when not (Rdf.Term.equal p rdf_type) ->
          let subs = TSet.remove rdf_type (sub_properties schema (TSet.singleton p)) in
          if TSet.cardinal subs < 2 then None else Some [ restrict_at sh i Atom.P subs ]
        | p, Qterm.Cst c when is_type p ->
          let subs = sub_classes schema (TSet.singleton c) in
          if TSet.cardinal subs < 2 then None else Some [ restrict_at sh i Atom.O subs ]
        | _ -> None)
      (List.mapi (fun i a -> (i, a)) sh.q.body)
  in
  let widen_local () =
    List.find_map
      (fun (x, set) ->
        let set' =
          match local_role sh.q x with
          | Some Class_pos -> sub_classes schema set
          | Some Property_pos -> TSet.remove rdf_type (sub_properties schema set)
          | Some Other_pos | None -> set
        in
        if TSet.equal set set' then None else Some [ { sh with sets = SMap.add x set' sh.sets } ])
      (SMap.bindings sh.sets)
  in
  let split_pinned () =
    List.find_map
      (fun (x, set) ->
        if Option.is_some (local_role sh.q x) then None
        else
          let roles = List.map snd (occurrences sh.q x) in
          let moving, staying =
            TSet.partition (fun c -> List.exists (rule_applies schema c) roles) set
          in
          if TSet.is_empty moving then None
          else
            Some
              ({ sh with sets = SMap.add x staying sh.sets }
              :: List.map (substitute sh x) (TSet.elements moving)))
      (SMap.bindings sh.sets)
  in
  List.find_map (fun move -> move ()) [ resolve_small; widen_constant; widen_local; split_pinned ]

(* Settle a shape into shapes on which no normalization move applies. *)
let settle schema sh =
  let rec go acc = function
    | [] -> List.rev acc
    | sh :: rest -> (
      match settle_once schema sh with
      | None -> go (sh :: acc) rest
      | Some shapes -> go acc (shapes @ rest))
  in
  go [] [ sh ]

(* The constants at a position: a constant, or a local variable's set. *)
let constants_at sh = function
  | Qterm.Cst c -> Some (TSet.singleton c)
  | Qterm.Var x -> (
    match SMap.find_opt x sh.sets with
    | Some set when Option.is_some (local_role sh.q x) -> Some set
    | Some _ | None -> None)

let drop_local sh = function
  | Qterm.Var x -> { sh with sets = SMap.remove x sh.sets }
  | Qterm.Cst _ -> sh

let union_map f set = TSet.fold (fun c acc -> TSet.union (TSet.of_list (f c)) acc) set TSet.empty

(* Rules 3-6 and rule 2 onto or from rdf:type, once on each atom of a
   settled shape; rules 1 and 2 otherwise live in the settled sets. *)
let step schema sh =
  let on_atom i (a : Atom.t) =
    let with_atom sh a' = { sh with q = replace_atom sh.q i a' } in
    if is_type a.p then begin
      let typing =
        match constants_at sh a.o with
        | None -> []
        | Some classes ->
          let without = drop_local sh a.o in
          let typed atom_of props =
            if TSet.is_empty props then []
            else
              let y = Qterm.var (Qterm.fresh_var ()) in
              let sh' = with_atom without (atom_of y) in
              [ restrict_at sh' i Atom.P props ]
          in
          (* rule 3: domain typing; rule 4: range typing *)
          typed
            (fun y -> Atom.make a.s a.p y)
            (union_map (Rdf.Schema.properties_with_domain schema) classes)
          @ typed
              (fun y -> Atom.make y a.p a.s)
              (union_map (Rdf.Schema.properties_with_range schema) classes)
      in
      let rule5 =
        match a.o with
        | Qterm.Var x when not (SMap.mem x sh.sets) -> (
          match Rdf.Schema.classes schema with
          | [] -> []
          | classes -> [ { sh with sets = SMap.add x (TSet.of_list classes) sh.sets } ])
        | Qterm.Var _ | Qterm.Cst _ -> []
      in
      (* rule 2 on rdf:type itself *)
      let below =
        TSet.remove rdf_type (TSet.of_list (Rdf.Schema.direct_subproperties schema rdf_type))
      in
      let rule2 = if TSet.is_empty below then [] else [ restrict_at sh i Atom.P below ] in
      typing @ rule5 @ rule2
    end
    else
      match a.p with
      | Qterm.Var x when not (SMap.mem x sh.sets) ->
        (* rule 6, with rdf:type in a shape of its own *)
        let typed = substitute sh x rdf_type in
        (match Rdf.Schema.properties schema with
        | [] -> []
        | props ->
          [ { sh with sets = SMap.add x (TSet.remove rdf_type (TSet.of_list props)) sh.sets } ])
        @ [ typed ]
      | p -> (
        (* rule 2 onto rdf:type, when it is a sub-property *)
        match constants_at sh p with
        | Some props when TSet.mem rdf_type (sub_properties schema props) ->
          [ restrict_at (drop_local sh p) i Atom.P (TSet.singleton rdf_type) ]
        | Some _ | None -> [])
  in
  List.concat (List.mapi on_atom sh.q.body)

let rcq_of sh =
  Rcq.make sh.q (List.map (fun (x, set) -> (x, TSet.elements set)) (SMap.bindings sh.sets))

let reformulate q schema =
  let seen = Hashtbl.create 16 in
  let shapes = ref [] in
  let queue = Queue.create () in
  let push sh =
    List.iter
      (fun sh ->
        let r = rcq_of sh in
        let key = Rcq.canonical_string r in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          shapes := r :: !shapes;
          Queue.add sh queue
        end)
      (settle schema sh)
  in
  push { q; sets = SMap.empty };
  while not (Queue.is_empty queue) do
    List.iter push (step schema (Queue.pop queue))
  done;
  Ucq.of_shapes ~name:q.Cq.name q (List.rev !shapes)
