type mode =
  | Plain
  | Reformulated of Rdf.Schema.t

(* [Reformulated] only: the saturated database, as the rows of one
   evaluation grouped by property.  The triples with property code [p]
   are rows [first.(p)] to [first.(p + 1) - 1] of [subj] and [obj];
   [first] covers the codes of the dictionary at the evaluation, and a
   code interned since matches no triple. *)
type saturation = {
  first : int array;
  subj : int array;
  obj : int array;
}

type t = {
  store : Rdf.Store.t;
  mode : mode;
  mutable saturation : saturation option;
  atom_counts : (string, float) Hashtbl.t;
  column_distincts : (string, float) Hashtbl.t;
  property_distincts : (string, float) Hashtbl.t;
  term_sizes : (string, float) Hashtbl.t;
      (* [Reformulated] only: the store memoizes its own column sizes *)
}

let create ?(mode = Plain) store =
  {
    store;
    mode;
    saturation = None;
    atom_counts = Hashtbl.create 256;
    column_distincts = Hashtbl.create 8;
    property_distincts = Hashtbl.create 64;
    term_sizes = Hashtbl.create 4;
  }

(* Atoms are keyed by their constant pattern only: variable names are
   irrelevant to the count (they are relaxations of one another).  A
   constant's key is self-delimiting and never starts with '?', so the
   three parts need no separator. *)
let pattern_key (a : Query.Atom.t) =
  let part = function
    | Query.Qterm.Cst c -> Rdf.Term.key c
    | Query.Qterm.Var _ -> "?"
  in
  part a.s ^ part a.p ^ part a.o

let pattern_count store (a : Query.Atom.t) =
  let bound = function
    | Query.Qterm.Cst c -> (
      match Rdf.Store.find_term store c with
      | Some code -> `Ok (Some code)
      | None -> `Absent)
    | Query.Qterm.Var _ -> `Ok None
  in
  match (bound a.s, bound a.p, bound a.o) with
  | `Ok s, `Ok p, `Ok o ->
    float_of_int (Rdf.Store.count_matching store { Rdf.Store.ps = s; pp = p; po = o })
  | _ -> 0.

(* ---------- the saturation, under [Reformulated] ---------------------------- *)

let all_var_atom = Query.Atom.make (Query.Qterm.Var "_s") (Query.Qterm.Var "_p") (Query.Qterm.Var "_o")

(* A counting sort of the rows on their property code. *)
let group_by_property codes rows =
  let n = Query.Rowset.cardinal rows in
  let first = Array.make (codes + 1) 0 in
  let subj = Array.make n 0 and obj = Array.make n 0 in
  if n > 0 then begin
    let cols = Query.Rowset.columns rows in
    let s = cols.(0) and p = cols.(1) and o = cols.(2) in
    for r = 0 to n - 1 do
      first.(p.(r) + 1) <- first.(p.(r) + 1) + 1
    done;
    for c = 1 to codes do
      first.(c) <- first.(c) + first.(c - 1)
    done;
    let next = Array.sub first 0 codes in
    for r = 0 to n - 1 do
      let i = next.(p.(r)) in
      next.(p.(r)) <- i + 1;
      subj.(i) <- s.(r);
      obj.(i) <- o.(r)
    done
  end;
  { first; subj; obj }

(* §4.3: under [Reformulated schema] every statistic is read off the
   answers of the reformulation of t(_s,_p,_o), heading all three
   positions, evaluated on the explicit store: by Theorem 4.2 those are
   exactly the triples of the saturated database, which is never built.
   The evaluation runs once per [t], through one-shot plans: cached
   plans and interned canonical forms would outlive the search, and
   the heap state they left slowed later updates.  It interns the head
   constants of the reformulation (rdf:type, classes and properties of
   the schema), so a statistic resolves its constants only after it. *)
let saturation t schema =
  match t.saturation with
  | Some sat -> sat
  | None ->
    let head = [ all_var_atom.s; all_var_atom.p; all_var_atom.o ] in
    let q = Query.Cq.make ~name:"saturation" ~head ~body:[ all_var_atom ] in
    let rows =
      Query.Evaluation.eval_ucq_rowset ~cache:false t.store
        (Query.Reformulation.reformulate q schema)
    in
    let sat = group_by_property (Rdf.Store.dict_size t.store) rows in
    t.saturation <- Some sat;
    sat

(* The code of a constant in the saturation, or [None] when no triple
   can hold it. *)
let code_in t sat c =
  match Rdf.Store.find_term t.store c with
  | Some code when code < Array.length sat.first - 1 -> Some code
  | Some _ | None -> None

(* Rows [lo, hi) whose subject and object match [s] and [o], where -1
   matches any code. *)
let count_rows sat s o lo hi =
  let n = ref 0 in
  for i = lo to hi - 1 do
    if (s < 0 || sat.subj.(i) = s) && (o < 0 || sat.obj.(i) = o) then incr n
  done;
  !n

let saturated_count t schema (a : Query.Atom.t) =
  let sat = saturation t schema in
  let code = function
    | Query.Qterm.Cst c -> code_in t sat c
    | Query.Qterm.Var _ -> Some (-1)
  in
  match (code a.s, code a.p, code a.o) with
  | Some s, Some p, Some o ->
    if p < 0 then count_rows sat s o 0 (Array.length sat.subj)
    else count_rows sat s o sat.first.(p) sat.first.(p + 1)
  | _ -> 0

(* Fold [f] over the distinct codes among [codes.(lo)] to
   [codes.(hi - 1)]. *)
let fold_distinct sat codes lo hi f acc =
  let seen = Bytes.make (Array.length sat.first - 1) '\000' in
  let acc = ref acc in
  for i = lo to hi - 1 do
    let c = codes.(i) in
    if Bytes.get seen c = '\000' then begin
      Bytes.set seen c '\001';
      acc := f c !acc
    end
  done;
  !acc

(* ---------- the statistics --------------------------------------------------- *)

let atom_count t a =
  let key = pattern_key a in
  match Hashtbl.find_opt t.atom_counts key with
  | Some n -> n
  | None ->
    let n =
      match t.mode with
      | Plain -> pattern_count t.store a
      | Reformulated schema -> float_of_int (saturated_count t schema a)
    in
    Hashtbl.add t.atom_counts key n;
    n

let total_triples t = atom_count t all_var_atom

let column_name = function `S -> "s" | `P -> "p" | `O -> "o"

(* Under [Reformulated], one pass over a column of the saturation gives
   both column statistics: the distinct count, and the integer sum of
   the distinct values' sizes over that count (the formula of
   [Rdf.Store.avg_term_size]). *)
let saturated_column t schema col =
  let sat = saturation t schema in
  let weigh code (count, total) =
    (count + 1, total + Rdf.Term.size (Rdf.Store.decode_term t.store code))
  in
  let count, total =
    match col with
    | `S -> fold_distinct sat sat.subj 0 (Array.length sat.subj) weigh (0, 0)
    | `O -> fold_distinct sat sat.obj 0 (Array.length sat.obj) weigh (0, 0)
    | `P ->
      let acc = ref (0, 0) in
      for p = 0 to Array.length sat.first - 2 do
        if sat.first.(p + 1) > sat.first.(p) then acc := weigh p !acc
      done;
      !acc
  in
  let key = column_name col in
  let size = if count = 0 then 0. else float_of_int total /. float_of_int count in
  Hashtbl.add t.column_distincts key (float_of_int count);
  Hashtbl.add t.term_sizes key size

let column_distinct t col =
  let key = column_name col in
  match Hashtbl.find_opt t.column_distincts key with
  | Some n -> n
  | None -> (
    match t.mode with
    | Plain ->
      let n = float_of_int (Rdf.Store.distinct_in_column t.store col) in
      Hashtbl.add t.column_distincts key n;
      n
    | Reformulated schema ->
      saturated_column t schema col;
      Hashtbl.find t.column_distincts key)

let avg_term_size t col =
  match t.mode with
  | Plain -> Rdf.Store.avg_term_size t.store col
  | Reformulated schema -> (
    let key = column_name col in
    match Hashtbl.find_opt t.term_sizes key with
    | Some size -> size
    | None ->
      saturated_column t schema col;
      Hashtbl.find t.term_sizes key)

let saturated_property_distinct t schema prop col =
  let sat = saturation t schema in
  match code_in t sat prop with
  | None -> 0
  | Some p ->
    let codes = match col with `S -> sat.subj | `O -> sat.obj in
    fold_distinct sat codes sat.first.(p) sat.first.(p + 1) (fun _ n -> n + 1) 0

let property_distinct t prop col =
  let key = Rdf.Term.key prop ^ column_name (col :> [ `S | `P | `O ]) in
  match Hashtbl.find_opt t.property_distincts key with
  | Some n -> if n < 0. then None else Some n
  | None ->
    let n =
      match t.mode with
      | Plain ->
        let var = match col with `S -> "_s" | `O -> "_o" in
        let body = [ Query.Atom.make (Query.Qterm.Var "_s") (Query.Qterm.Cst prop) (Query.Qterm.Var "_o") ] in
        let q = Query.Cq.make ~name:"distinct" ~head:[ Query.Qterm.Var var ] ~body in
        float_of_int (Query.Evaluation.count_cq t.store q)
      | Reformulated schema -> float_of_int (saturated_property_distinct t schema prop col)
    in
    let stored = if n = 0. then -1. else n in
    Hashtbl.add t.property_distincts key stored;
    if stored < 0. then None else Some n

let relaxations (a : Query.Atom.t) =
  let options pos =
    match Query.Atom.term_at a pos with
    | Query.Qterm.Cst _ as c ->
      [ c; Query.Qterm.Var ("_r" ^ Query.Atom.position_name pos) ]
    | Query.Qterm.Var _ as v -> [ v ]
  in
  List.concat_map
    (fun s ->
      List.concat_map
        (fun p -> List.map (fun o -> Query.Atom.make s p o) (options Query.Atom.O))
        (options Query.Atom.P))
    (options Query.Atom.S)

let prewarm t queries =
  List.iter
    (fun q ->
      List.iter
        (fun a ->
          List.iter
            (fun (r : Query.Atom.t) ->
              ignore (atom_count t r : float);
              match r.p with
              | Query.Qterm.Cst prop ->
                ignore (property_distinct t prop `S : float option);
                ignore (property_distinct t prop `O : float option)
              | Query.Qterm.Var _ -> ())
            (relaxations a))
        q.Query.Cq.body)
    queries;
  List.iter
    (fun col ->
      ignore (column_distinct t col : float);
      ignore (avg_term_size t col : float))
    [ `S; `P; `O ]
[@@coordinator_only]

let cache_size t = Hashtbl.length t.atom_counts

let memo_size t =
  Hashtbl.length t.atom_counts
  + Hashtbl.length t.column_distincts
  + Hashtbl.length t.property_distincts
  + Hashtbl.length t.term_sizes
