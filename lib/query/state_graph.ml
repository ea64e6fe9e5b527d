type join_edge = {
  atom_a : int;
  pos_a : Atom.position;
  atom_b : int;
  pos_b : Atom.position;
  var : string;
}

let compare_join_edge a b =
  let c = Int.compare a.atom_a b.atom_a in
  if c <> 0 then c
  else
    let c = Atom.compare_position a.pos_a b.pos_a in
    if c <> 0 then c
    else
      let c = Int.compare a.atom_b b.atom_b in
      if c <> 0 then c
      else
        let c = Atom.compare_position a.pos_b b.pos_b in
        if c <> 0 then c else String.compare a.var b.var

let equal_join_edge a b = compare_join_edge a b = 0

type selection_edge = {
  atom : int;
  pos : Atom.position;
  constant : Rdf.Term.t;
}

type place = int * Atom.position

type occurrences = (string, place list) Hashtbl.t

let occurrences (q : Cq.t) =
  let table = Hashtbl.create 16 in
  List.iteri
    (fun i a ->
      List.iter
        (fun pos ->
          match Atom.term_at a pos with
          | Qterm.Var x ->
            let prev = Option.value (Hashtbl.find_opt table x) ~default:[] in
            Hashtbl.replace table x (prev @ [ (i, pos) ])
          | Qterm.Cst _ -> ())
        Atom.positions)
    q.Cq.body;
  table

let places table x = Option.value (Hashtbl.find_opt table x) ~default:[]

let fold = Hashtbl.fold

let join_edges q =
  let edges = ref [] in
  Hashtbl.iter
    (fun var places ->
      let rec pairs = function
        | [] -> ()
        | (i, pi) :: rest ->
          List.iter
            (fun (j, pj) ->
              if i <> j then
                let (atom_a, pos_a), (atom_b, pos_b) =
                  if i < j then ((i, pi), (j, pj)) else ((j, pj), (i, pi))
                in
                edges := { atom_a; pos_a; atom_b; pos_b; var } :: !edges)
            rest;
          pairs rest
      in
      pairs places)
    (occurrences q);
  List.sort compare_join_edge !edges

let selection_edges q =
  List.concat
    (List.mapi
       (fun i a ->
         List.filter_map
           (fun pos ->
             match Atom.term_at a pos with
             | Qterm.Cst c -> Some { atom = i; pos; constant = c }
             | Qterm.Var _ -> None)
           Atom.positions)
       q.Cq.body)

(* Connected components over a node set (distinct atom indices), given a
   multiset of undirected edges (atom index pairs); an edge with an end
   outside the set is ignored.  Union-find over an array indexed by atom:
   each component is sorted, and the components come in the order of
   their first node in [nodes]. *)
let components nodes edges =
  let size = 1 + List.fold_left max (-1) nodes in
  (* [parent.(n)] is -1 for an atom outside the set *)
  let parent = Array.make size (-1) in
  List.iter (fun n -> parent.(n) <- n) nodes;
  let rec root n = if parent.(n) = n then n else root parent.(n) in
  let member n = n < size && parent.(n) >= 0 in
  List.iter
    (fun (a, b) ->
      if member a && member b then
        let ra = root a and rb = root b in
        if ra <> rb then parent.(max ra rb) <- min ra rb)
    edges;
  let sorted = List.sort_uniq Int.compare nodes in
  let emitted = Array.make size false in
  List.filter_map
    (fun n ->
      let r = root n in
      if emitted.(r) then None
      else begin
        emitted.(r) <- true;
        Some (List.filter (fun m -> root m = r) sorted)
      end)
    nodes

let nodes q = List.mapi (fun i _ -> i) q.Cq.body

let endpoints edges = List.map (fun e -> (e.atom_a, e.atom_b)) edges

(* The VB enumeration calls the connectivity test O(2^n) times on one
   view; recomputing (and re-sorting) the edge list inside every call
   dominated its profile.  The checker closes over the edge pairs
   computed once. *)
let subset_checker q =
  let edges = endpoints (join_edges q) in
  function [] -> false | subset -> List.length (components subset edges) = 1

(* A yes/no needs no edge records: one atom pair per two consecutive
   places of a variable connects all its places. *)
let is_connected q =
  let pairs =
    Hashtbl.fold
      (fun _ places acc ->
        let rec chain acc = function
          | (i, _) :: ((j, _) :: _ as rest) ->
            chain (if i = j then acc else (i, j) :: acc) rest
          | _ -> acc
        in
        chain acc places)
      (occurrences q) []
  in
  match nodes q with
  | [] -> false
  | nodes -> List.length (components nodes pairs) = 1

let components_without_edge q edge =
  (* remove exactly one occurrence of the edge's endpoints pair *)
  let removed = ref false in
  let surviving =
    List.filter
      (fun e ->
        if (not !removed) && equal_join_edge e edge then begin
          removed := true;
          false
        end
        else true)
      (join_edges q)
  in
  components (nodes q) (endpoints surviving)

let components_without_occurrence q i pos =
  let surviving =
    List.filter
      (fun e ->
        not
          ((e.atom_a = i && Atom.equal_position e.pos_a pos)
          || (e.atom_b = i && Atom.equal_position e.pos_b pos)))
      (join_edges q)
  in
  components (nodes q) (endpoints surviving)

let edge_to_string e =
  Printf.sprintf "n%d.%s=n%d.%s (%s)" e.atom_a
    (Atom.position_name e.pos_a)
    e.atom_b
    (Atom.position_name e.pos_b)
    e.var
