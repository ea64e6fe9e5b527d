(* Incremental view maintenance over views prepared once per store.

   A view's delta and re-check plans are the view's own body compiled
   with parameter slots ({!Query.Plan.compile} [~params]), so an update
   only compares codes and writes them into a plan's frame: in steady
   state it compiles no plan, interns nothing and looks up no
   constant. *)

(* A view atom's position: a constant's code, or the atom's [i]th
   distinct variable. *)
type pos = Code of int | Param of int

type atom = {
  terms : pos array;  (* s, p, o *)
  params : string list;  (* the atom's distinct variables, s-p-o first-occurrence order *)
  firsts : int array;  (* the position where each parameter first occurs *)
  mutable delta : Query.Plan.t option;  (* compiled on the atom's first match *)
}

type prepared = {
  cq : Query.Cq.t;
  head_params : string list;  (* the distinct head variables *)
  head_firsts : int array;  (* the head position where each first occurs *)
  mutable atoms : atom array;  (* [||] while a body constant is absent *)
  mutable absent : int;
      (* the dictionary size at which a body constant was found absent,
         or -1: the dictionary is append-only, so a resolved code never
         goes stale and only an absent constant can appear later *)
  mutable recheck : Query.Plan.t option;  (* compiled on the view's first re-check *)
}

(* One store's prepared views, kept on the store.  A linear list: the
   views a store maintains are few and are passed as the same values on
   every update, so the physical scan almost always hits. *)
type memo = { mutable entries : prepared list; mutable compiles : int }

type Rdf.Store.cache += Memo of memo

(* Coordinator-only: a memo's plans record their last execution and the
   memo has no lock, so one domain maintains a store. *)
let memo_of store =
  match Rdf.Store.find_cache store (function Memo memo -> Some memo | _ -> None) with
  | Some memo -> memo
  | None ->
    let memo = { entries = []; compiles = 0 } in
    Rdf.Store.add_cache store (Memo memo);
    memo
[@@coordinator_only]

(* The distinct variables of a term list, in order of first occurrence,
   with the index of that occurrence. *)
let distinct_vars terms =
  let rec go k seen = function
    | [] -> []
    | Query.Qterm.Var x :: rest when not (List.exists (String.equal x) seen) ->
      (x, k) :: go (k + 1) (x :: seen) rest
    | _ :: rest -> go (k + 1) seen rest
  in
  let vars = go 0 [] terms in
  (List.map fst vars, Array.of_list (List.map snd vars))

let rec index_of x i = function
  | [] -> invalid_arg "Maintenance.index_of"
  | y :: rest -> if String.equal x y then i else index_of x (i + 1) rest

(* Resolve the view's constants against the current dictionary.  An
   absent constant leaves the view empty, so it gets no atoms and no
   plan until the dictionary grows. *)
let resolve store e =
  let absent = ref false in
  let atom (a : Query.Atom.t) =
    let terms = [ a.s; a.p; a.o ] in
    let params, firsts = distinct_vars terms in
    let pos = function
      | Query.Qterm.Var x -> Param (index_of x 0 params)
      | Query.Qterm.Cst c -> (
        match Rdf.Store.find_term store c with
        | Some code -> Code code
        | None ->
          absent := true;
          Code (-1))
    in
    { terms = Array.of_list (List.map pos terms); params; firsts; delta = None }
  in
  let atoms = Array.of_list (List.map atom e.cq.Query.Cq.body) in
  if !absent then begin
    e.atoms <- [||];
    e.absent <- Rdf.Store.dict_size store
  end
  else begin
    e.atoms <- atoms;
    e.absent <- -1
  end

(* The entry is found by the view value itself, else by its head and
   body: two isomorphic views with differently named or ordered head
   variables need different parameter orders, so a canonical form
   cannot key them. *)
let find memo (q : Query.Cq.t) =
  let rec by_value = function
    | [] -> by_syntax memo.entries
    (* lint: allow phys-equal — a fast path; the syntactic scan decides a miss *)
    | e :: rest -> if e.cq == q then Some e else by_value rest
  and by_syntax = function
    | [] -> None
    | e :: rest -> if Query.Cq.equal_syntactic e.cq q then Some e else by_syntax rest
  in
  by_value memo.entries

let prepared memo store q =
  match find memo q with
  | Some e ->
    if e.absent >= 0 && e.absent <> Rdf.Store.dict_size store then resolve store e;
    e
  | None ->
    let head_params, head_firsts = distinct_vars q.Query.Cq.head in
    let e = { cq = q; head_params; head_firsts; atoms = [||]; absent = -1; recheck = None } in
    resolve store e;
    memo.entries <- e :: memo.entries;
    e

let compile memo store (e : prepared) params =
  memo.compiles <- memo.compiles + 1;
  Query.Plan.compile ~params store e.cq

let code_at (s, p, o) k = if k = 0 then s else if k = 1 then p else o

(* Constants must carry the triple's codes, and a repeated variable the
   same code at each of its positions. *)
let pos_matches a triple k =
  match a.terms.(k) with
  | Code c -> code_at triple k = c
  | Param i -> code_at triple k = code_at triple a.firsts.(i)

let args_of firsts get =
  let args = Array.make (Array.length firsts) 0 in
  for i = 0 to Array.length firsts - 1 do
    args.(i) <- get firsts.(i)
  done;
  args

(* The delta rule: for each atom matching the triple, the full body with
   that atom's variables set to the triple's codes.  The atom itself
   becomes a membership probe of the (present) triple.  [None] when no
   atom matches: the row set is made on the first match. *)
let delta memo store e triple =
  let rows = ref None in
  for i = 0 to Array.length e.atoms - 1 do
    let a = e.atoms.(i) in
    if pos_matches a triple 0 && pos_matches a triple 1 && pos_matches a triple 2 then begin
      let plan =
        match a.delta with
        | Some plan -> plan
        | None ->
          let plan = compile memo store e a.params in
          a.delta <- Some plan;
          plan
      in
      let set =
        match !rows with
        | Some set -> set
        | None ->
          let set = Rdf.Rowset.create 16 in
          rows := Some set;
          set
      in
      Query.Evaluation.eval_params_into store e.cq plan ~params:a.params
        (args_of a.firsts (code_at triple))
        set
    end
  done;
  !rows

let delta_insert store q triple =
  let memo = memo_of store in
  match delta memo store (prepared memo store q) triple with
  | Some rows -> Rdf.Rowset.elements rows
  | None -> []

let encode store (tr : Rdf.Triple.t) =
  let code = Rdf.Store.find_term store in
  match (code tr.Rdf.Triple.s, code tr.Rdf.Triple.p, code tr.Rdf.Triple.o) with
  | Some s, Some p, Some o -> Some (s, p, o)
  | _ -> None

let insert_triple store views triple =
  let encoded = Rdf.Store.encode_triple store triple in
  if not (Rdf.Store.add_encoded store encoded) then 0
  else
    let memo = memo_of store in
    List.fold_left
      (fun acc (cq, rel) ->
        match delta memo store (prepared memo store cq) encoded with
        | None -> acc
        | Some rows ->
          Rdf.Rowset.fold
            (fun tuple acc -> if Relation.add_row rel tuple then acc + 1 else acc)
            rows acc)
      0 views

(* Is the tuple still an answer of the view?  The body, with the head
   variables set to the tuple's codes. *)
let derivable memo store e tuple =
  let plan =
    match e.recheck with
    | Some plan -> plan
    | None ->
      let plan = compile memo store e e.head_params in
      e.recheck <- Some plan;
      plan
  in
  let rows = Rdf.Rowset.create 1 in
  Query.Evaluation.eval_params_into store e.cq plan ~params:e.head_params
    (args_of e.head_firsts (Array.get tuple))
    rows;
  Rdf.Rowset.cardinal rows > 0

let delete_triple store views triple =
  match encode store triple with
  | Some enc when Rdf.Store.mem_encoded store enc ->
    let memo = memo_of store in
    (* candidates computed while the triple is still present *)
    let candidates =
      List.filter_map
        (fun (cq, rel) ->
          let e = prepared memo store cq in
          Option.map (fun rows -> (e, rel, rows)) (delta memo store e enc))
        views
    in
    let removed = Rdf.Store.remove_encoded store enc in
    assert removed;
    List.fold_left
      (fun acc (e, rel, rows) ->
        Rdf.Rowset.fold
          (fun tuple acc ->
            if (not (derivable memo store e tuple)) && Relation.remove_row rel tuple then
              acc + 1
            else acc)
          rows acc)
      0 candidates
  | _ -> 0

let prepared_count store = List.length (memo_of store).entries
let compiled_count store = (memo_of store).compiles
