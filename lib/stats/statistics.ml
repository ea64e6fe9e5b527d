type mode =
  | Plain
  | Reformulated of Rdf.Schema.t

type t = {
  store : Rdf.Store.t;
  mode : mode;
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

(* Rebuild the atom with canonical variable names so that repeated
   variables (t(X,p,X)) do not skew eval-based counts differently from
   pattern counts. *)
let canonical_atom (a : Query.Atom.t) =
  let fresh prefix = Query.Qterm.Var prefix in
  let rebuild pos prefix =
    match Query.Atom.term_at a pos with
    | Query.Qterm.Cst _ as c -> c
    | Query.Qterm.Var _ -> fresh prefix
  in
  Query.Atom.make (rebuild Query.Atom.S "_s") (rebuild Query.Atom.P "_p") (rebuild Query.Atom.O "_o")

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

(* §4.3: under [Reformulated schema] a statistic counts the answers of
   the reformulation of the query that defines it, evaluated on the
   explicit store.  Theorem 4.2 makes that the count on the saturated
   database, which is never built.  Each count runs once (the memo keeps
   it), and [Evaluation.count_ucq] compiles its plans uncached: caching
   them kept every reformulation's plans and interned canonical forms
   alive after the search, and the heap state they left slowed later
   updates. *)
let count_ucq t u = float_of_int (Query.Evaluation.count_ucq t.store u)

let atom_count t a =
  let key = pattern_key a in
  match Hashtbl.find_opt t.atom_counts key with
  | Some n -> n
  | None ->
    let a = canonical_atom a in
    let n =
      match t.mode with
      | Plain -> pattern_count t.store a
      | Reformulated schema -> count_ucq t (Query.Reformulation.reformulate_atom a schema)
    in
    Hashtbl.add t.atom_counts key n;
    n

let all_var_atom = Query.Atom.make (Query.Qterm.Var "_s") (Query.Qterm.Var "_p") (Query.Qterm.Var "_o")

let total_triples t = atom_count t all_var_atom

let column_name = function `S -> "s" | `P -> "p" | `O -> "o"

(* Under [Reformulated], one evaluation of the column query t(_s,_p,_o)
   projected on the column's variable gives both column statistics: the
   distinct count, and the integer sum of the distinct values' sizes
   over that count (the formula of [Rdf.Store.avg_term_size]). *)
let reformulated_column t schema col =
  let key = column_name col in
  let head = [ Query.Qterm.Var ("_" ^ key) ] in
  let q = Query.Cq.make ~name:"column" ~head ~body:[ all_var_atom ] in
  let rows =
    Query.Evaluation.eval_ucq_codes ~cache:false t.store
      (Query.Reformulation.reformulate q schema)
  in
  let total =
    List.fold_left
      (fun acc row -> acc + Rdf.Term.size (Rdf.Store.decode_term t.store row.(0)))
      0 rows
  in
  let count = List.length rows in
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
      reformulated_column t schema col;
      Hashtbl.find t.column_distincts key)

let avg_term_size t col =
  match t.mode with
  | Plain -> Rdf.Store.avg_term_size t.store col
  | Reformulated schema -> (
    let key = column_name col in
    match Hashtbl.find_opt t.term_sizes key with
    | Some size -> size
    | None ->
      reformulated_column t schema col;
      Hashtbl.find t.term_sizes key)

let property_distinct t prop col =
  let key = Rdf.Term.key prop ^ column_name (col :> [ `S | `P | `O ]) in
  match Hashtbl.find_opt t.property_distincts key with
  | Some n -> if n < 0. then None else Some n
  | None ->
    let var = match col with `S -> "_s" | `O -> "_o" in
    let body = [ Query.Atom.make (Query.Qterm.Var "_s") (Query.Qterm.Cst prop) (Query.Qterm.Var "_o") ] in
    let q = Query.Cq.make ~name:"distinct" ~head:[ Query.Qterm.Var var ] ~body in
    let n =
      match t.mode with
      | Plain -> float_of_int (Query.Evaluation.count_cq t.store q)
      | Reformulated schema -> count_ucq t (Query.Reformulation.reformulate q schema)
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
