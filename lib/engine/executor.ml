(* Execution of rewriting plans over materialized views, on packed
   rows.

   Intermediate results are chunks: one flat [int array] holding the
   rows packed row-major, one code per column each, plus a row count,
   the layout of a Rdf.Rowset's own rows.  A chunk whose rows are exactly a
   row set's rows records that set, read in place: a scan reads a
   view's own set; a renaming, a selection that keeps every row and a
   one-branch union carry their input's set; a projection adds its
   projected rows straight into a fresh set, and deduplication and a
   union of several branches build one with a bulk [Rowset.add_rows]
   pass.  A selection that drops rows gathers its survivors once and a
   join builds fresh rows; neither is a set.  The result relation wraps
   the chunk's own set, so a view's rows are never hashed on the way
   out and any other row is hashed at most once.  It may therefore be a
   view's own set: read it before the views are next maintained, and
   never write it. *)

type chunk = {
  cols : string list;  (* column names, in order *)
  data : int array;  (* rows packed [width] codes each, [width * n] or more *)
  n : int;  (* row count *)
  set : Rdf.Rowset.t option;  (* the set whose rows these are, if any *)
}

let column_index cols c =
  let rec find i = function
    | [] -> failwith ("Executor: unknown column " ^ c)
    | c' :: rest -> if String.equal c c' then i else find (i + 1) rest
  in
  find 0 cols

(* Codes per row. *)
let width ch = List.length ch.cols

let set_of ch =
  let rs = Rdf.Rowset.create ch.n in
  ignore (Rdf.Rowset.add_rows rs ~width:(width ch) ch.data ch.n : int);
  rs

(* A set's rows as a chunk, in place. *)
let of_set cols rs =
  { cols; data = Rdf.Rowset.data rs; n = Rdf.Rowset.cardinal rs; set = Some rs }

(* Set-semantics dedup of a whole chunk: a set is kept as it is, any
   other chunk is hashed in one bulk pass and read out of its set. *)
let dedup ch =
  match ch.set with Some _ -> ch | None -> of_set ch.cols (set_of ch)

(* Row [r]'s codes at columns [idx] of [data], [w] codes a row, into
   [key]. *)
let fill key data w idx r =
  for i = 0 to Array.length idx - 1 do
    key.(i) <- data.((w * r) + idx.(i))
  done

let rec eval store env expr : chunk =
  match expr with
  | Core.Rewriting.Scan name -> (
    match Hashtbl.find_opt env name with
    | Some rel -> of_set (Relation.cols rel) (Relation.rowset rel)
    | None -> failwith ("Executor: unknown view " ^ name))
  | Core.Rewriting.Select (conds, inner) ->
    let ch = eval store env inner in
    let w = width ch and data = ch.data in
    (* compile each condition to a per-row-index predicate over the
       chunk's rows *)
    let tests =
      Array.of_list
        (List.map
           (fun cond ->
             match cond with
             | Core.Rewriting.Eq_cst (c, term) -> (
               let i = column_index ch.cols c in
               match Rdf.Store.find_term store term with
               | Some code -> fun r -> data.((w * r) + i) = code
               | None -> fun _ -> false)
             | Core.Rewriting.Eq_col (c1, c2) ->
               let a = column_index ch.cols c1 and b = column_index ch.cols c2 in
               fun r -> data.((w * r) + a) = data.((w * r) + b))
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
      (* the survivors, gathered once *)
      let out = Array.make (w * ch.n) 0 in
      Array.blit data 0 out 0 (w * !first);
      let m = ref !first in
      for r = !first + 1 to ch.n - 1 do
        if passes r then begin
          Array.blit data (w * r) out (w * !m) w;
          incr m
        end
      done;
      { ch with data = out; n = !m; set = None }
    end
  | Core.Rewriting.Project (out_cols, inner) ->
    let ch = eval store env inner in
    (* each projected row goes straight into the result set, hashed
       once *)
    let idx = Array.of_list (List.map (column_index ch.cols) out_cols) in
    let rs = Rdf.Rowset.of_width (Array.length idx) ch.n in
    let key = Rdf.Rowset.key rs and w = width ch in
    for r = 0 to ch.n - 1 do
      fill key ch.data w idx r;
      ignore (Rdf.Rowset.add rs key : bool)
    done;
    of_set out_cols rs
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
    let lw = width lch and rw = width rch in
    let kept = Array.of_list (List.map fst kept_right) in
    (* hash join: the left rows' distinct join keys go into a row set;
       a key's index there heads its chain of left rows, latest first *)
    let keys = Rdf.Rowset.of_width (Array.length lkey) lch.n in
    let key = Rdf.Rowset.key keys in
    let first = Array.make lch.n (-1) and next = Array.make lch.n (-1) in
    for r = 0 to lch.n - 1 do
      fill key lch.data lw lkey r;
      let g = Rdf.Rowset.find_or_add keys key in
      next.(r) <- first.(g);
      first.(g) <- r
    done;
    (* probe with the right rows, appending matches into a growable
       packed output *)
    let width = lw + Array.length kept in
    let out = ref (Array.make (64 * width) 0) in
    let n = ref 0 in
    for r = 0 to rch.n - 1 do
      fill key rch.data rw rkey r;
      let lr = ref (match Rdf.Rowset.find keys key with -1 -> -1 | g -> first.(g)) in
      while !lr >= 0 do
        let b = width * !n in
        if b + width > Array.length !out then begin
          let bigger = Array.make (2 * Array.length !out) 0 in
          Array.blit !out 0 bigger 0 b;
          out := bigger
        end;
        Array.blit lch.data (lw * !lr) !out b lw;
        for c = 0 to Array.length kept - 1 do
          !out.(b + lw + c) <- rch.data.((rw * r) + kept.(c))
        done;
        incr n;
        lr := next.(!lr)
      done
    done;
    { cols = out_cols; data = !out; n = !n; set = None }
  | Core.Rewriting.Union branches -> (
    let results = List.map (eval store env) branches in
    match results with
    | [] -> failwith "Executor: empty union"
    | [ only ] -> dedup only
    | (first : chunk) :: _ ->
      let hint = List.fold_left (fun acc ch -> acc + ch.n) 0 results in
      let rs = Rdf.Rowset.create hint in
      List.iter
        (fun ch -> ignore (Rdf.Rowset.add_rows rs ~width:(width ch) ch.data ch.n : int))
        results;
      of_set first.cols rs)

let execute store env expr =
  let ch = eval store env expr in
  let rs = match ch.set with Some rs -> rs | None -> set_of ch in
  Relation.of_rowset ~name:"result" ~cols:ch.cols rs

let execute_query store env expr =
  Relation.to_term_rows store (execute store env expr)
