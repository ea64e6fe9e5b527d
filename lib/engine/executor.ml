(* Columnar execution of rewriting plans over materialized views.

   Intermediate results are chunks: one flat [int array] per column
   plus a row count.  A chunk whose rows are exactly a row set's rows
   records that set, read in place: a scan reads a view's own set; a
   renaming, a selection that keeps every row and a one-branch union
   carry their input's set; deduplication and a union of several
   branches build one with a bulk [Rowset.add_columns] pass.  A
   selection that drops rows gathers its survivors once, a projection
   reorders column references and hands them to deduplication, and a
   join builds fresh columns; none of these is a set.  The result
   relation wraps the chunk's own set, so a view's rows are never
   hashed on the way out and any other row is hashed at most once.  It
   may therefore be a view's own set: read it before the views are
   next maintained, and never write it. *)

type chunk = {
  cols : string list;  (* column names, in order *)
  data : int array array;  (* per-column values, each of length >= n *)
  n : int;  (* row count *)
  set : Query.Rowset.t option;  (* the set whose rows these are, if any *)
}

let column_index cols c =
  let rec find i = function
    | [] -> failwith ("Executor: unknown column " ^ c)
    | c' :: rest -> if String.equal c c' then i else find (i + 1) rest
  in
  find 0 cols

let set_of ch =
  let rs = Query.Rowset.create (max ch.n 16) in
  ignore (Query.Rowset.add_columns rs ch.data ch.n : int);
  rs

(* A set's rows as a chunk, in place.  A set that never held a row has
   no columns yet. *)
let of_set cols rs =
  let n = Query.Rowset.cardinal rs in
  let data =
    if n = 0 then Array.make (List.length cols) [||] else Query.Rowset.columns rs
  in
  { cols; data; n; set = Some rs }

(* Set-semantics dedup of a whole chunk: a set is kept as it is, any
   other chunk is hashed in one bulk pass and read out of its set. *)
let dedup ch =
  match ch.set with Some _ -> ch | None -> of_set ch.cols (set_of ch)

(* Row [r]'s codes at columns [idx] of [data], into [key]. *)
let fill key data idx r =
  for i = 0 to Array.length idx - 1 do
    key.(i) <- data.(idx.(i)).(r)
  done

let rec eval store env expr : chunk =
  match expr with
  | Core.Rewriting.Scan name -> (
    match Hashtbl.find_opt env name with
    | Some rel -> of_set (Relation.cols rel) (Relation.rowset rel)
    | None -> failwith ("Executor: unknown view " ^ name))
  | Core.Rewriting.Select (conds, inner) ->
    let ch = eval store env inner in
    (* compile each condition to a per-row-index predicate over the
       chunk's columns *)
    let tests =
      Array.of_list
        (List.map
           (fun cond ->
             match cond with
             | Core.Rewriting.Eq_cst (c, term) -> (
               let col = ch.data.(column_index ch.cols c) in
               match Rdf.Store.find_term store term with
               | Some code -> fun r -> col.(r) = code
               | None -> fun _ -> false)
             | Core.Rewriting.Eq_col (c1, c2) ->
               let a = ch.data.(column_index ch.cols c1) in
               let b = ch.data.(column_index ch.cols c2) in
               fun r -> a.(r) = b.(r))
           conds)
    in
    let passes r =
      let i = ref 0 in
      while !i < Array.length tests && tests.(!i) r do
        incr i
      done;
      !i = Array.length tests
    in
    (* rows before the first failing one all pass; when none fails the
       chunk, and its set, are kept as they are *)
    let first = ref 0 in
    while !first < ch.n && passes !first do
      incr first
    done;
    if !first = ch.n then ch
    else begin
      (* selection vector of survivors, then one gather per column *)
      let sel = Array.init ch.n (fun r -> r) in
      let k = ref !first in
      for r = !first + 1 to ch.n - 1 do
        if passes r then begin
          sel.(!k) <- r;
          incr k
        end
      done;
      let m = !k in
      {
        ch with
        data = Array.map (fun col -> Array.init m (fun i -> col.(sel.(i)))) ch.data;
        n = m;
        set = None;
      }
    end
  | Core.Rewriting.Project (out_cols, inner) ->
    let ch = eval store env inner in
    (* a projection only reorders column references; the dedup pass
       owns any data movement *)
    let data =
      Array.of_list
        (List.map (fun c -> ch.data.(column_index ch.cols c)) out_cols)
    in
    dedup { cols = out_cols; data; n = ch.n; set = None }
  | Core.Rewriting.Rename (mapping, inner) ->
    let ch = eval store env inner in
    let renamed =
      List.map
        (fun c ->
          match List.assoc_opt c mapping with Some c' -> c' | None -> c)
        ch.cols
    in
    { ch with cols = renamed }
  | Core.Rewriting.Join (conds, l, r) ->
    let lch = eval store env l in
    let rch = eval store env r in
    let pairs =
      match conds with
      | [] ->
        List.filter_map
          (fun c -> if List.mem c lch.cols then Some (c, c) else None)
          rch.cols
      | _ :: _ -> conds
    in
    let lkey =
      Array.of_list (List.map (fun (a, _) -> column_index lch.cols a) pairs)
    in
    let rkey =
      Array.of_list (List.map (fun (_, b) -> column_index rch.cols b) pairs)
    in
    (* output columns mirror Rewriting.columns: left columns, then the
       right columns whose names are not already present on the left *)
    let kept_right =
      List.filter
        (fun (_, c) -> not (List.mem c lch.cols))
        (List.mapi (fun i c -> (i, c)) rch.cols)
    in
    let out_cols = lch.cols @ List.map snd kept_right in
    let lw = List.length lch.cols in
    let kept = Array.of_list (List.map fst kept_right) in
    (* hash join: the left rows' distinct join keys go into a row set;
       a key's index there heads its chain of left rows, latest first *)
    let keys = Query.Rowset.create (max lch.n 16) in
    let key = Array.make (Array.length lkey) 0 in
    let first = Array.make lch.n (-1) and next = Array.make lch.n (-1) in
    for r = 0 to lch.n - 1 do
      fill key lch.data lkey r;
      let g =
        match Query.Rowset.find keys key with
        | -1 ->
          ignore (Query.Rowset.add keys key : bool);
          Query.Rowset.cardinal keys - 1
        | g -> g
      in
      next.(r) <- first.(g);
      first.(g) <- r
    done;
    (* probe with the right rows, appending matches column-wise into
       growable output vectors *)
    let width = lw + Array.length kept in
    let cap = ref 64 in
    let out = Array.init width (fun _ -> Array.make !cap 0) in
    let n = ref 0 in
    let grow need =
      if need > !cap then begin
        let cap' = max need (2 * !cap) in
        for c = 0 to width - 1 do
          let fresh = Array.make cap' 0 in
          Array.blit out.(c) 0 fresh 0 !n;
          out.(c) <- fresh
        done;
        cap := cap'
      end
    in
    for r = 0 to rch.n - 1 do
      fill key rch.data rkey r;
      let lr = ref (match Query.Rowset.find keys key with -1 -> -1 | g -> first.(g)) in
      while !lr >= 0 do
        grow (!n + 1);
        let j = !n in
        for c = 0 to lw - 1 do
          out.(c).(j) <- lch.data.(c).(!lr)
        done;
        for c = 0 to Array.length kept - 1 do
          out.(lw + c).(j) <- rch.data.(kept.(c)).(r)
        done;
        n := j + 1;
        lr := next.(!lr)
      done
    done;
    { cols = out_cols; data = out; n = !n; set = None }
  | Core.Rewriting.Union branches -> (
    let results = List.map (eval store env) branches in
    match results with
    | [] -> failwith "Executor: empty union"
    | [ only ] -> dedup only
    | (first : chunk) :: _ ->
      let hint = List.fold_left (fun acc ch -> acc + ch.n) 0 results in
      let rs = Query.Rowset.create (max hint 16) in
      List.iter
        (fun ch -> ignore (Query.Rowset.add_columns rs ch.data ch.n : int))
        results;
      of_set first.cols rs)

let execute store env expr =
  let ch = eval store env expr in
  let rs = match ch.set with Some rs -> rs | None -> set_of ch in
  Relation.of_rowset ~name:"result" ~cols:ch.cols rs

let execute_query store env expr =
  Relation.to_term_rows store (execute store env expr)
