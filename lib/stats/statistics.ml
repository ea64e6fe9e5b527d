type mode =
  | Plain
  | Reformulated of Rdf.Schema.t

(* The database the statistics describe, grouped by property: the
   store's own triples under [Plain], the saturated database under
   [Reformulated].  The triples with property code [p] are rows
   [first.(p)] to [first.(p + 1) - 1] of [subj] and [obj].  [create]
   builds it, so [first] covers the codes of the dictionary at that
   time, and a code interned since matches no triple. *)
type table = {
  first : int array;
  subj : int array;
  obj : int array;
}

type t = {
  store : Rdf.Store.t;
  table : table;
  atom_counts : (string, float) Hashtbl.t;
  columns : (string, float * float) Hashtbl.t;
      (* per column: the distinct count and the average term size *)
  property_distincts : (string, float) Hashtbl.t;
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

(* ---------- the table --------------------------------------------------------- *)

let all_var_atom = Query.Atom.make (Query.Qterm.Var "_s") (Query.Qterm.Var "_p") (Query.Qterm.Var "_o")

(* A counting sort of rows [0, n) on their property code, where [s r],
   [p r] and [o r] read the codes of row [r]. *)
let group_by_property codes n s p o =
  let first = Array.make (codes + 1) 0 in
  let subj = Array.make n 0 and obj = Array.make n 0 in
  for r = 0 to n - 1 do
    let c = p r + 1 in
    first.(c) <- first.(c) + 1
  done;
  for c = 1 to codes do
    first.(c) <- first.(c) + first.(c - 1)
  done;
  let next = Array.sub first 0 codes in
  for r = 0 to n - 1 do
    let c = p r in
    let i = next.(c) in
    next.(c) <- i + 1;
    subj.(i) <- s r;
    obj.(i) <- o r
  done;
  { first; subj; obj }

(* Built by [create].  Under [Plain] the rows are the store's triples,
   read in place by one scan.  Under [Reformulated schema] (§4.3) they
   are the answers of the reformulation of t(_s,_p,_o), heading all
   three positions, evaluated on the explicit store: by Theorem 4.2
   those are exactly the triples of the saturated database, which is
   never built.  The evaluation runs through one-shot plans: cached
   ones would stay on the store after the search, and the heap state
   they left slowed later updates.  It interns the head constants of
   the reformulation (rdf:type, classes and properties of the schema),
   so a statistic resolves its constants only after it. *)
let build store = function
  | Plain ->
    let data, n = Rdf.Store.scan_all store in
    group_by_property (Rdf.Store.dict_size store) n
      (fun r -> data.(3 * r))
      (fun r -> data.((3 * r) + 1))
      (fun r -> data.((3 * r) + 2))
  | Reformulated schema ->
    let head = [ all_var_atom.s; all_var_atom.p; all_var_atom.o ] in
    let q = Query.Cq.make ~name:"saturation" ~head ~body:[ all_var_atom ] in
    let rows =
      Query.Evaluation.eval_ucq_rowset ~cache:false store
        (Query.Reformulation.reformulate q schema)
    in
    let cols = Query.Rowset.columns rows in
    group_by_property (Rdf.Store.dict_size store) (Query.Rowset.cardinal rows)
      (fun r -> cols.(0).(r))
      (fun r -> cols.(1).(r))
      (fun r -> cols.(2).(r))

let create ?(mode = Plain) store =
  {
    store;
    table = build store mode;
    atom_counts = Hashtbl.create 256;
    columns = Hashtbl.create 4;
    property_distincts = Hashtbl.create 64;
  }

(* The code of a constant in the table, or [None] when no triple can
   hold it. *)
let code_in t tbl c =
  match Rdf.Store.find_term t.store c with
  | Some code when code < Array.length tbl.first - 1 -> Some code
  | Some _ | None -> None

(* Rows [lo, hi) whose subject and object match [s] and [o], where -1
   matches any code. *)
let count_rows tbl s o lo hi =
  let n = ref 0 in
  for i = lo to hi - 1 do
    if (s < 0 || tbl.subj.(i) = s) && (o < 0 || tbl.obj.(i) = o) then incr n
  done;
  !n

(* Fold [f] over the distinct codes among [codes.(lo)] to
   [codes.(hi - 1)]. *)
let fold_distinct tbl codes lo hi f acc =
  let seen = Bytes.make (Array.length tbl.first - 1) '\000' in
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
    let tbl = t.table in
    let code = function
      | Query.Qterm.Cst c -> code_in t tbl c
      | Query.Qterm.Var _ -> Some (-1)
    in
    let n =
      match (code a.Query.Atom.s, code a.p, code a.o) with
      | Some s, Some p, Some o ->
        if p < 0 then count_rows tbl s o 0 (Array.length tbl.subj)
        else count_rows tbl s o tbl.first.(p) tbl.first.(p + 1)
      | _ -> 0
    in
    let n = float_of_int n in
    Hashtbl.add t.atom_counts key n;
    n

let total_triples t = atom_count t all_var_atom

let column_name = function `S -> "s" | `P -> "p" | `O -> "o"

(* One pass over a column gives both column statistics: the distinct
   count, and the integer sum of the distinct values' sizes over that
   count. *)
let column t col =
  let key = column_name col in
  match Hashtbl.find_opt t.columns key with
  | Some stats -> stats
  | None ->
    let tbl = t.table in
    let weigh code (count, total) =
      (count + 1, total + Rdf.Term.size (Rdf.Store.decode_term t.store code))
    in
    let count, total =
      match col with
      | `S -> fold_distinct tbl tbl.subj 0 (Array.length tbl.subj) weigh (0, 0)
      | `O -> fold_distinct tbl tbl.obj 0 (Array.length tbl.obj) weigh (0, 0)
      | `P ->
        let acc = ref (0, 0) in
        for p = 0 to Array.length tbl.first - 2 do
          if tbl.first.(p + 1) > tbl.first.(p) then acc := weigh p !acc
        done;
        !acc
    in
    let size = if count = 0 then 0. else float_of_int total /. float_of_int count in
    let stats = (float_of_int count, size) in
    Hashtbl.add t.columns key stats;
    stats

let column_distinct t col = fst (column t col)
let avg_term_size t col = snd (column t col)

let property_distinct t prop col =
  let key = Rdf.Term.key prop ^ column_name (col :> [ `S | `P | `O ]) in
  match Hashtbl.find_opt t.property_distincts key with
  | Some n -> if n < 0. then None else Some n
  | None ->
    let tbl = t.table in
    let n =
      match code_in t tbl prop with
      | None -> 0
      | Some p ->
        let codes = match col with `S -> tbl.subj | `O -> tbl.obj in
        fold_distinct tbl codes tbl.first.(p) tbl.first.(p + 1) (fun _ n -> n + 1) 0
    in
    let stored = if n = 0 then -1. else float_of_int n in
    Hashtbl.add t.property_distincts key stored;
    if stored < 0. then None else Some stored

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
  List.iter (fun col -> ignore (column t col : float * float)) [ `S; `P; `O ]
[@@coordinator_only]

let cache_size t = Hashtbl.length t.atom_counts

let memo_size t =
  Hashtbl.length t.atom_counts
  + Hashtbl.length t.columns
  + Hashtbl.length t.property_distincts
