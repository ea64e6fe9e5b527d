type cond =
  | Eq_cst of string * Rdf.Term.t
  | Eq_col of string * string

type t =
  | Scan of string
  | Select of cond list * t
  | Project of string list * t
  | Join of (string * string) list * t * t
  | Rename of (string * string) list * t
  | Union of t list

type env = (string, string list) Hashtbl.t

let rec columns env = function
  | Scan name -> (
    match Hashtbl.find_opt env name with
    | Some cols -> cols
    | None -> failwith ("Rewriting.columns: unknown view " ^ name))
  | Select (_, e) -> columns env e
  | Project (cols, _) -> cols
  | Join (_, l, r) ->
    let lc = columns env l in
    let rc = columns env r in
    lc @ List.filter (fun c -> not (List.mem c lc)) rc
  | Rename (mapping, e) ->
    List.map
      (fun c -> match List.assoc_opt c mapping with Some c' -> c' | None -> c)
      (columns env e)
  | Union [] -> failwith "Rewriting.columns: empty union"
  | Union (e :: _) -> columns env e

let equal_cond a b =
  match (a, b) with
  | Eq_cst (c1, v1), Eq_cst (c2, v2) ->
    String.equal c1 c2 && Rdf.Term.equal v1 v2
  | Eq_col (a1, b1), Eq_col (a2, b2) ->
    String.equal a1 a2 && String.equal b1 b2
  | Eq_cst _, Eq_col _ | Eq_col _, Eq_cst _ -> false

let equal_pair (a1, b1) (a2, b2) = String.equal a1 a2 && String.equal b1 b2

let rec equal x y =
  match (x, y) with
  | Scan a, Scan b -> String.equal a b
  | Select (ca, ea), Select (cb, eb) ->
    List.equal equal_cond ca cb && equal ea eb
  | Project (ca, ea), Project (cb, eb) ->
    List.equal String.equal ca cb && equal ea eb
  | Join (ca, la, ra), Join (cb, lb, rb) ->
    List.equal equal_pair ca cb && equal la lb && equal ra rb
  | Rename (ma, ea), Rename (mb, eb) ->
    List.equal equal_pair ma mb && equal ea eb
  | Union ba, Union bb -> List.equal equal ba bb
  | ( (Scan _ | Select _ | Project _ | Join _ | Rename _ | Union _),
      (Scan _ | Select _ | Project _ | Join _ | Rename _ | Union _) ) ->
    false

let rec substitute name replacement expr =
  match expr with
  | Scan n -> if String.equal n name then replacement else expr
  | Select (conds, e) -> Select (conds, substitute name replacement e)
  | Project (cols, e) -> Project (cols, substitute name replacement e)
  | Join (conds, l, r) ->
    Join (conds, substitute name replacement l, substitute name replacement r)
  | Rename (mapping, e) -> Rename (mapping, substitute name replacement e)
  | Union branches -> Union (List.map (substitute name replacement) branches)

let rec mentions name = function
  | Scan n -> String.equal n name
  | Select (_, e) | Project (_, e) | Rename (_, e) -> mentions name e
  | Join (_, l, r) -> mentions name l || mentions name r
  | Union branches -> List.exists (mentions name) branches

let views_used expr =
  let rec collect acc = function
    | Scan n -> if List.mem n acc then acc else n :: acc
    | Select (_, e) | Project (_, e) | Rename (_, e) -> collect acc e
    | Join (_, l, r) -> collect (collect acc l) r
    | Union branches -> List.fold_left collect acc branches
  in
  List.rev (collect [] expr)

let well_formed env expr =
  let ok = ref true in
  let check_cols available cols =
    List.iter (fun c -> if not (List.mem c available) then ok := false) cols
  in
  let rec walk e =
    match e with
    | Scan n -> if not (Hashtbl.mem env n) then ok := false
    | Select (conds, inner) ->
      walk inner;
      if !ok then
        let avail = columns env inner in
        List.iter
          (function
            | Eq_cst (c, _) -> check_cols avail [ c ]
            | Eq_col (c1, c2) -> check_cols avail [ c1; c2 ])
          conds
    | Project (cols, inner) ->
      walk inner;
      if !ok then check_cols (columns env inner) cols
    | Join (conds, l, r) ->
      walk l;
      walk r;
      if !ok then begin
        let lc = columns env l in
        let rc = columns env r in
        List.iter
          (fun (a, b) ->
            check_cols lc [ a ];
            check_cols rc [ b ])
          conds
      end
    | Rename (mapping, inner) ->
      walk inner;
      if !ok then begin
        check_cols (columns env inner) (List.map fst mapping);
        let targets = List.map snd mapping in
        if
          List.length (List.sort_uniq String.compare targets)
          <> List.length targets
        then ok := false;
        if !ok then begin
          let out = columns env e in
          if
            List.length (List.sort_uniq String.compare out) <> List.length out
          then ok := false
        end
      end
    | Union branches ->
      List.iter walk branches;
      if !ok then
        match branches with
        | [] -> ok := false
        | first :: rest ->
          let a = List.length (columns env first) in
          List.iter
            (fun b -> if List.length (columns env b) <> a then ok := false)
            rest
  in
  walk expr;
  !ok

let cond_to_string = function
  | Eq_cst (c, v) -> c ^ "=" ^ Rdf.Term.to_string v
  | Eq_col (a, b) -> a ^ "=" ^ b

let rec to_string = function
  | Scan n -> n
  | Select (conds, e) ->
    "σ[" ^ String.concat "," (List.map cond_to_string conds) ^ "](" ^ to_string e
    ^ ")"
  | Project (cols, e) ->
    "π[" ^ String.concat "," cols ^ "](" ^ to_string e ^ ")"
  | Join (conds, l, r) ->
    let tag =
      match conds with
      | [] -> "⋈"
      | _ ->
        "⋈[" ^ String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) conds)
        ^ "]"
    in
    "(" ^ to_string l ^ " " ^ tag ^ " " ^ to_string r ^ ")"
  | Rename (mapping, e) ->
    "ρ[" ^ String.concat "," (List.map (fun (a, b) -> a ^ "→" ^ b) mapping)
    ^ "](" ^ to_string e ^ ")"
  | Union branches -> String.concat " ∪ " (List.map to_string branches)
