let rec node_count = function
  | Rewriting.Scan _ -> 1
  | Rewriting.Select (_, e) | Rewriting.Project (_, e) | Rewriting.Rename (_, e)
    -> 1 + node_count e
  | Rewriting.Join (_, l, r) -> 1 + node_count l + node_count r
  | Rewriting.Union branches ->
    1 + List.fold_left (fun acc e -> acc + node_count e) 0 branches

let cond_columns = function
  | Rewriting.Eq_cst (col, _) -> [ col ]
  | Rewriting.Eq_col (a, b) -> [ a; b ]

let subset smaller bigger = List.for_all (fun c -> List.mem c bigger) smaller

(* map a condition's column names through the inverse of a renaming *)
let cond_preimage mapping cond =
  let back col =
    match List.find_opt (fun (_, target) -> String.equal target col) mapping with
    | Some (source, _) -> source
    | None -> col
  in
  match cond with
  | Rewriting.Eq_cst (col, term) -> Rewriting.Eq_cst (back col, term)
  | Rewriting.Eq_col (a, b) -> Rewriting.Eq_col (back a, back b)

let compose_renames base_columns inner outer =
  (* Rename outer (Rename inner e): a column c goes c -> inner(c) -> outer(inner(c));
     only actual columns of [e] may appear as sources *)
  List.filter_map
    (fun source ->
      let target = Rewriting.rename outer (Rewriting.rename inner source) in
      if String.equal source target then None else Some (source, target))
    base_columns

let is_identity_rename mapping =
  List.for_all (fun (a, b) -> String.equal a b) mapping

(* One top-level rewrite step on an expression whose children are already
   normalized; [None] when no rule applies. *)
let step env expr =
  match expr with
  | Rewriting.Select ([], e) -> Some e
  | Rewriting.Select (c1, Rewriting.Select (c2, e)) ->
    Some (Rewriting.Select (c1 @ c2, e))
  | Rewriting.Select (conds, Rewriting.Project (cols, e)) ->
    Some (Rewriting.Project (cols, Rewriting.Select (conds, e)))
  | Rewriting.Select (conds, Rewriting.Rename (mapping, e)) ->
    Some
      (Rewriting.Rename
         (mapping, Rewriting.Select (List.map (cond_preimage mapping) conds, e)))
  | Rewriting.Select (conds, Rewriting.Join (jc, l, r)) ->
    let lcols = Rewriting.columns env l in
    let rcols = Rewriting.columns env r in
    let to_left, rest =
      List.partition (fun c -> subset (cond_columns c) lcols) conds
    in
    let to_right, above =
      List.partition (fun c -> subset (cond_columns c) rcols) rest
    in
    if to_left = [] && to_right = [] then None
    else begin
      let wrap conds e = if conds = [] then e else Rewriting.Select (conds, e) in
      Some
        (wrap above
           (Rewriting.Join (jc, wrap to_left l, wrap to_right r)))
    end
  | Rewriting.Project (cols, e)
    when List.equal String.equal (Rewriting.columns env e) cols ->
    Some e
  | Rewriting.Project (cols, Rewriting.Project (_, e)) ->
    Some (Rewriting.Project (cols, e))
  | Rewriting.Rename (mapping, e) when is_identity_rename mapping -> Some e
  | Rewriting.Rename (outer, Rewriting.Rename (inner, e)) ->
    Some
      (Rewriting.Rename
         (compose_renames (Rewriting.columns env e) inner outer, e))
  | Rewriting.Union [ single ] -> Some single
  | Rewriting.Union branches
    when List.exists (function Rewriting.Union _ -> true | _ -> false) branches
    ->
    Some
      (Rewriting.Union
         (List.concat_map
            (function Rewriting.Union inner -> inner | other -> [ other ])
            branches))
  | Rewriting.Union branches ->
    let deduped =
      List.fold_left
        (fun acc branch ->
          if List.exists (Rewriting.equal branch) acc then acc
          else branch :: acc)
        [] branches
      |> List.rev
    in
    if List.length deduped < List.length branches then
      Some (Rewriting.Union deduped)
    else None
  | Rewriting.Scan _ | Rewriting.Select _ | Rewriting.Project _
  | Rewriting.Rename _ | Rewriting.Join _ ->
    None

let rec fixpoint env expr budget =
  if budget = 0 then expr
  else
    match step env expr with
    | Some expr' -> fixpoint env expr' (budget - 1)
    | None -> expr

let rec simplify env expr =
  let expr =
    match expr with
    | Rewriting.Scan _ -> expr
    | Rewriting.Select (conds, e) -> Rewriting.Select (conds, simplify env e)
    | Rewriting.Project (cols, e) -> Rewriting.Project (cols, simplify env e)
    | Rewriting.Rename (mapping, e) -> Rewriting.Rename (mapping, simplify env e)
    | Rewriting.Join (jc, l, r) ->
      Rewriting.Join (jc, simplify env l, simplify env r)
    | Rewriting.Union branches -> Rewriting.Union (List.map (simplify env) branches)
  in
  match step env expr with
  | Some expr' -> simplify env (fixpoint env expr' 64)
  | None -> expr

(* Whole-state normalization for final reporting: simplify every
   rewriting and say which queries actually changed, as a Delta (no
   views move, so only [rewritings_touched] is populated).  The search
   itself keeps the raw expressions — simplifying mid-search would
   change nothing semantically but would invalidate the bit-exact
   per-rewriting REC sharing of Cost.child. *)
let state_rewritings (s : State.t) =
  let env = State.env s in
  let touched = ref [] in
  let rewritings =
    List.map
      (fun (q, r) ->
        let r' = simplify env r in
        if not (Rewriting.equal r r') then touched := q :: !touched;
        (q, r'))
      s.State.rewritings
  in
  ( State.make ~views:s.State.views ~rewritings,
    {
      Delta.views_removed = [];
      views_added = [];
      rewritings_touched = List.rev !touched;
    } )
