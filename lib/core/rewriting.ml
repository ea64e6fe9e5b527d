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

let column_index cols c =
  let rec find i = function
    | [] -> failwith ("unknown column " ^ c)
    | c' :: rest -> if String.equal c c' then i else find (i + 1) rest
  in
  find 0 cols

let rename mapping c =
  match List.assoc_opt c mapping with Some c' -> c' | None -> c

type join_layout = {
  pairs : (string * string) list;
  kept : int list;
  out : string list;
}

let join_layout lcols rcols conds =
  let pairs =
    match conds with
    | [] -> List.filter_map (fun c -> if List.mem c lcols then Some (c, c) else None) rcols
    | _ :: _ -> conds
  in
  let rec keep i = function
    | [] -> ([], [])
    | c :: rest ->
      let ((kept, names) as both) = keep (i + 1) rest in
      if List.mem c lcols then both else (i :: kept, c :: names)
  in
  let kept, names = keep 0 rcols in
  { pairs; kept; out = lcols @ names }

let check cols c = ignore (column_index cols c : int)

let rec distinct what = function
  | [] -> ()
  | c :: rest ->
    if List.mem c rest then
      failwith ("Rewriting.columns: repeated " ^ what ^ " " ^ c);
    distinct what rest

(* The one column walk: each node's columns from its children's, with
   every reference checked on the way up. *)
let rec columns env = function
  | Scan name -> (
    match Hashtbl.find_opt env name with
    | Some cols -> cols
    | None -> failwith ("Rewriting.columns: unknown view " ^ name))
  | Select (conds, e) ->
    let cols = columns env e in
    List.iter
      (function
        | Eq_cst (c, _) -> check cols c
        | Eq_col (a, b) -> check cols a; check cols b)
      conds;
    cols
  | Project (out, e) ->
    let cols = columns env e in
    List.iter (check cols) out;
    out
  | Join (conds, l, r) ->
    let lcols = columns env l and rcols = columns env r in
    List.iter (fun (a, b) -> check lcols a; check rcols b) conds;
    (join_layout lcols rcols conds).out
  | Rename (mapping, e) ->
    let cols = columns env e in
    List.iter (fun (a, _) -> check cols a) mapping;
    distinct "rename target" (List.map snd mapping);
    let out = List.map (rename mapping) cols in
    distinct "column" out;
    out
  | Union [] -> failwith "Rewriting.columns: empty union"
  | Union (e :: rest) ->
    let cols = columns env e in
    List.iter
      (fun b ->
        if List.compare_lengths (columns env b) cols <> 0 then
          failwith "Rewriting.columns: union branches differ in arity")
      rest;
    cols

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
  match columns env expr with _ -> true | exception Failure _ -> false

(* A column prints bare where the state-file reader takes a word for a
   column; one it would read as a blank node, or after [=] as the
   keyword [type], prints as the variable [?c]. *)
let column c =
  if String.equal c "type" || String.starts_with ~prefix:"_:" c then "?" ^ c else c

let list f items = String.concat ", " (List.map f items)

let pair separator (a, b) = column a ^ separator ^ column b

let cond_to_string = function
  | Eq_cst (c, v) -> column c ^ "=" ^ Rdf.Term.to_string v
  | Eq_col (a, b) -> pair "=" (a, b)

let rec to_string = function
  | Scan name -> "scan " ^ name
  | Select (conds, e) ->
    Printf.sprintf "select[%s](%s)" (list cond_to_string conds) (to_string e)
  | Project (cols, e) ->
    Printf.sprintf "project[%s](%s)" (list column cols) (to_string e)
  | Join (conds, l, r) ->
    Printf.sprintf "join[%s](%s, %s)" (list (pair "=") conds) (to_string l)
      (to_string r)
  | Rename (mapping, e) ->
    Printf.sprintf "rename[%s](%s)" (list (pair "->") mapping) (to_string e)
  | Union branches -> Printf.sprintf "union(%s)" (list to_string branches)
