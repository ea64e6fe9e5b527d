let quote_ident name = "\"" ^ name ^ "\""

let escape_string s =
  String.concat "''" (String.split_on_char '\'' s)

let constant_literal term = "'" ^ escape_string (Rdf.Term.to_string term) ^ "'"

let column_name = function
  | Query.Atom.S -> "s"
  | Query.Atom.P -> "p"
  | Query.Atom.O -> "o"

(* SELECT body of a conjunctive query over the triple table: one table
   alias per atom, constants as equality predicates, repeated variables
   as join predicates. *)
let cq_select (q : Query.Cq.t) =
  let atoms = Array.of_list q.Query.Cq.body in
  let alias i = Printf.sprintf "t%d" i in
  let first_occurrence = Hashtbl.create 16 in
  let predicates = ref [] in
  Array.iteri
    (fun i a ->
      List.iter
        (fun pos ->
          let reference = alias i ^ "." ^ column_name pos in
          match Query.Atom.term_at a pos with
          | Query.Qterm.Cst constant ->
            predicates := (reference ^ " = " ^ constant_literal constant) :: !predicates
          | Query.Qterm.Var x -> (
            match Hashtbl.find_opt first_occurrence x with
            | Some original ->
              predicates := (reference ^ " = " ^ original) :: !predicates
            | None -> Hashtbl.add first_occurrence x reference))
        Query.Atom.positions)
    atoms;
  let select_items =
    List.mapi
      (fun i term ->
        match term with
        | Query.Qterm.Var x ->
          Hashtbl.find first_occurrence x ^ " AS " ^ quote_ident x
        | Query.Qterm.Cst constant ->
          constant_literal constant ^ " AS " ^ quote_ident (Printf.sprintf "c%d" i))
      q.Query.Cq.head
  in
  let from_items =
    List.init (Array.length atoms) (fun i -> "triples " ^ alias i)
  in
  let where =
    match List.rev !predicates with
    | [] -> ""
    | preds -> "\nWHERE " ^ String.concat "\n  AND " preds
  in
  Printf.sprintf "SELECT DISTINCT %s\nFROM %s%s"
    (String.concat ", " select_items)
    (String.concat ", " from_items)
    where

let view_columns (u : Query.Ucq.t) =
  let first = List.hd (Query.Ucq.disjuncts u) in
  List.mapi
    (fun i term ->
      match term with
      | Query.Qterm.Var x -> x
      | Query.Qterm.Cst _ -> Printf.sprintf "c%d" i)
    first.Query.Cq.head

let view_ddl u =
  let body = String.concat "\nUNION\n" (List.map cq_select (Query.Ucq.disjuncts u)) in
  Printf.sprintf "CREATE MATERIALIZED VIEW %s(%s) AS\n%s;"
    (quote_ident (Query.Ucq.name u))
    (String.concat ", " (List.map quote_ident (view_columns u)))
    body

(* ---------- rewritings ----------------------------------------------------- *)

let cond_to_sql qualify = function
  | Rewriting.Eq_cst (col, term) ->
    qualify col ^ " = " ^ constant_literal term
  | Rewriting.Eq_col (a, b) -> qualify a ^ " = " ^ qualify b

let rewriting_query env qname expr =
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  (* returns (sql, columns) *)
  let rec render expr =
    match expr with
    | Rewriting.Scan name ->
      let cols = Rewriting.columns env expr in
      ( Printf.sprintf "SELECT %s FROM %s"
          (String.concat ", " (List.map quote_ident cols))
          (quote_ident name),
        cols )
    | Rewriting.Select (conds, inner) ->
      let sql, cols = render inner in
      let sub = fresh "f" in
      let qualify col = sub ^ "." ^ quote_ident col in
      ( Printf.sprintf "SELECT * FROM (\n%s\n) %s WHERE %s" sql sub
          (String.concat " AND " (List.map (cond_to_sql qualify) conds)),
        cols )
    | Rewriting.Project (cols, inner) ->
      let sql, _ = render inner in
      let sub = fresh "p" in
      ( Printf.sprintf "SELECT DISTINCT %s FROM (\n%s\n) %s"
          (String.concat ", "
             (List.map (fun c -> sub ^ "." ^ quote_ident c) cols))
          sql sub,
        cols )
    | Rewriting.Rename (mapping, inner) ->
      let sql, in_cols = render inner in
      let sub = fresh "r" in
      let out_cols =
        List.map
          (fun c ->
            match List.assoc_opt c mapping with Some c' -> c' | None -> c)
          in_cols
      in
      ( Printf.sprintf "SELECT %s FROM (\n%s\n) %s"
          (String.concat ", "
             (List.map2
                (fun original renamed ->
                  sub ^ "." ^ quote_ident original ^ " AS " ^ quote_ident renamed)
                in_cols out_cols))
          sql sub,
        out_cols )
    | Rewriting.Join (conds, l, r) ->
      let lsql, lcols = render l in
      let rsql, rcols = render r in
      let la = fresh "l" in
      let ra = fresh "r" in
      let pairs =
        match conds with
        | [] ->
          List.filter_map
            (fun c -> if List.mem c lcols then Some (c, c) else None)
            rcols
        | _ :: _ -> conds
      in
      let on_clause =
        match pairs with
        | [] -> "1 = 1"
        | _ ->
          String.concat " AND "
            (List.map
               (fun (a, b) ->
                 la ^ "." ^ quote_ident a ^ " = " ^ ra ^ "." ^ quote_ident b)
               pairs)
      in
      let right_extra = List.filter (fun c -> not (List.mem c lcols)) rcols in
      let select_items =
        List.map (fun c -> la ^ "." ^ quote_ident c) lcols
        @ List.map (fun c -> ra ^ "." ^ quote_ident c) right_extra
      in
      ( Printf.sprintf "SELECT %s FROM (\n%s\n) %s JOIN (\n%s\n) %s ON %s"
          (String.concat ", " select_items)
          lsql la rsql ra on_clause,
        lcols @ right_extra )
    | Rewriting.Union branches ->
      let rendered = List.map render branches in
      ( String.concat "\nUNION\n"
          (List.map (fun (sql, _) -> "(" ^ sql ^ ")") rendered),
        (match rendered with
        | (_, cols) :: _ -> cols
        | [] -> failwith "Sql.rewriting_query: empty union") )
  in
  let sql, _ = render expr in
  Printf.sprintf "-- rewriting of %s\n%s;" qname sql

let deployment_script (result : Selector.result) =
  let views = List.map view_ddl result.Selector.recommended in
  let env = Hashtbl.create 16 in
  List.iter
    (fun u -> Hashtbl.replace env (Query.Ucq.name u) (view_columns u))
    result.Selector.recommended;
  let queries =
    List.map
      (fun (qname, r) -> rewriting_query env qname r)
      result.Selector.rewritings
  in
  String.concat "\n\n" (views @ queries)
