type statement =
  | Subclass of Term.t * Term.t
  | Subproperty of Term.t * Term.t
  | Domain of Term.t * Term.t
  | Range of Term.t * Term.t

module TermMap = Map.Make (Term)
module TermSet = Set.Make (Term)

(* Each relation is kept in both directions for O(log n) lookups from
   either side (reformulation needs the "sub" side, saturation the
   "super" side). *)
type t = {
  stmts : statement list;
  sub_of : TermSet.t TermMap.t;        (* c2 -> {c1 | c1 subClassOf c2} *)
  super_of : TermSet.t TermMap.t;      (* c1 -> {c2 | c1 subClassOf c2} *)
  subp_of : TermSet.t TermMap.t;
  superp_of : TermSet.t TermMap.t;
  dom_of : TermSet.t TermMap.t;        (* p -> {c | p domain c} *)
  dom_props : TermSet.t TermMap.t;     (* c -> {p | p domain c} *)
  rng_of : TermSet.t TermMap.t;
  rng_props : TermSet.t TermMap.t;
}

let empty =
  {
    stmts = [];
    sub_of = TermMap.empty;
    super_of = TermMap.empty;
    subp_of = TermMap.empty;
    superp_of = TermMap.empty;
    dom_of = TermMap.empty;
    dom_props = TermMap.empty;
    rng_of = TermMap.empty;
    rng_props = TermMap.empty;
  }

let map_add key value map =
  let existing = Option.value (TermMap.find_opt key map) ~default:TermSet.empty in
  TermMap.add key (TermSet.add value existing) map

let mem_statement t stmt = List.mem stmt t.stmts

let add t stmt =
  if mem_statement t stmt then t
  else
    let t = { t with stmts = stmt :: t.stmts } in
    match stmt with
    | Subclass (c1, c2) ->
      { t with sub_of = map_add c2 c1 t.sub_of; super_of = map_add c1 c2 t.super_of }
    | Subproperty (p1, p2) ->
      { t with
        subp_of = map_add p2 p1 t.subp_of;
        superp_of = map_add p1 p2 t.superp_of }
    | Domain (p, c) ->
      { t with dom_of = map_add p c t.dom_of; dom_props = map_add c p t.dom_props }
    | Range (p, c) ->
      { t with rng_of = map_add p c t.rng_of; rng_props = map_add c p t.rng_props }

let of_statements stmts = List.fold_left add empty stmts

let statements t = List.rev t.stmts

let size t = List.length t.stmts

let classes t =
  let collect acc = function
    | Subclass (c1, c2) -> TermSet.add c1 (TermSet.add c2 acc)
    | Domain (_, c) | Range (_, c) -> TermSet.add c acc
    | Subproperty _ -> acc
  in
  TermSet.elements (List.fold_left collect TermSet.empty t.stmts)

let properties t =
  let collect acc = function
    | Subproperty (p1, p2) -> TermSet.add p1 (TermSet.add p2 acc)
    | Domain (p, _) | Range (p, _) -> TermSet.add p acc
    | Subclass _ -> acc
  in
  TermSet.elements (List.fold_left collect TermSet.empty t.stmts)

let lookup map key =
  match TermMap.find_opt key map with
  | Some set -> TermSet.elements set
  | None -> []

let direct_subclasses t c = lookup t.sub_of c
let direct_superclasses t c = lookup t.super_of c
let direct_subproperties t p = lookup t.subp_of p
let direct_superproperties t p = lookup t.superp_of p
let domains_of t p = lookup t.dom_of p
let ranges_of t p = lookup t.rng_of p
let properties_with_domain t c = lookup t.dom_props c
let properties_with_range t c = lookup t.rng_props c

(* Strict transitive closure by breadth-first traversal; cycles in the
   inclusion graph are tolerated (the start node may appear in its own
   closure if it lies on a cycle). *)
let closure step start =
  let rec loop seen = function
    | [] -> seen
    | x :: rest ->
      let next = List.filter (fun y -> not (TermSet.mem y seen)) (step x) in
      loop (List.fold_left (fun acc y -> TermSet.add y acc) seen next) (next @ rest)
  in
  TermSet.elements (loop TermSet.empty [ start ])

let superclasses_closure t c = closure (direct_superclasses t) c
let subclasses_closure t c = closure (direct_subclasses t) c
let superproperties_closure t p = closure (direct_superproperties t) p

let to_triples t =
  let triple_of = function
    | Subclass (c1, c2) -> Triple.make c1 Vocabulary.rdfs_subclassof c2
    | Subproperty (p1, p2) -> Triple.make p1 Vocabulary.rdfs_subpropertyof p2
    | Domain (p, c) -> Triple.make p Vocabulary.rdfs_domain c
    | Range (p, c) -> Triple.make p Vocabulary.rdfs_range c
  in
  List.map triple_of (statements t)

let of_triples triples =
  let stmt_of (tr : Triple.t) =
    if Term.equal tr.p Vocabulary.rdfs_subclassof then Some (Subclass (tr.s, tr.o))
    else if Term.equal tr.p Vocabulary.rdfs_subpropertyof then
      Some (Subproperty (tr.s, tr.o))
    else if Term.equal tr.p Vocabulary.rdfs_domain then Some (Domain (tr.s, tr.o))
    else if Term.equal tr.p Vocabulary.rdfs_range then Some (Range (tr.s, tr.o))
    else None
  in
  of_statements (List.filter_map stmt_of triples)

let statement_to_string statement =
  let a, relation, b =
    match statement with
    | Subclass (a, b) -> (a, "subClassOf", b)
    | Subproperty (a, b) -> (a, "subPropertyOf", b)
    | Domain (p, c) -> (p, "domain", c)
    | Range (p, c) -> (p, "range", c)
  in
  String.concat " " [ Term.to_string a; relation; Term.to_string b; "." ]

let to_string t = String.concat "\n" (List.map statement_to_string (statements t))
