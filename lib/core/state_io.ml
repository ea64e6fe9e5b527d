(* Line-oriented text format for states, so that a search result can be
   written to disk and later re-certified by `rdfviews check`.

   A file holds one or more states:

     state
     view v1(?x, ?y) :- t(?x, <ex:p>, ?y).
     view v2(?z) :- t(?z, <ex:q>, <ex:c>).
     rewrite q1 := project[x, y](join[y=z](scan v1, scan v2))

   Views reuse the workload query syntax (Query.Parser); the view's name
   is the symbol rewritings scan.  Rewriting expressions:

     scan NAME
     select[COND, ...](E)        COND: col=<uri> | col="lit" | col=col
     project[col, ...](E)
     join[lcol=rcol, ...](E, E)  join[](E, E) is the natural join
     rename[old->new, ...](E)
     union(E, E, ...)

   Constants in conditions are always written bracketed (<uri>, "lit",
   _:blank) so a bare identifier on the right of '=' always reads as a
   column name. *)

exception Syntax_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Syntax_error m)) fmt

(* ---------- writing ------------------------------------------------------ *)

(* Constants bracketed unconditionally, unlike Rdf.Term.to_string which
   leaves ':'-free URIs bare (a bare URI would be read back as a column
   name). *)
let term_to_text = function
  | Rdf.Term.Uri u -> "<" ^ u ^ ">"
  | Rdf.Term.Blank b -> "_:" ^ b
  | Rdf.Term.Literal l -> "\"" ^ l ^ "\""

let cond_to_text = function
  | Rewriting.Eq_cst (c, term) -> c ^ "=" ^ term_to_text term
  | Rewriting.Eq_col (a, b) -> a ^ "=" ^ b

let rec expr_to_text = function
  | Rewriting.Scan name -> "scan " ^ name
  | Rewriting.Select (conds, e) ->
    Printf.sprintf "select[%s](%s)"
      (String.concat ", " (List.map cond_to_text conds))
      (expr_to_text e)
  | Rewriting.Project (cols, e) ->
    Printf.sprintf "project[%s](%s)" (String.concat ", " cols) (expr_to_text e)
  | Rewriting.Join (conds, l, r) ->
    Printf.sprintf "join[%s](%s, %s)"
      (String.concat ", " (List.map (fun (a, b) -> a ^ "=" ^ b) conds))
      (expr_to_text l) (expr_to_text r)
  | Rewriting.Rename (mapping, e) ->
    Printf.sprintf "rename[%s](%s)"
      (String.concat ", " (List.map (fun (a, b) -> a ^ "->" ^ b) mapping))
      (expr_to_text e)
  | Rewriting.Union branches ->
    Printf.sprintf "union(%s)" (String.concat ", " (List.map expr_to_text branches))

let state_to_text (s : State.t) =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "state\n";
  List.iter
    (fun v ->
      Buffer.add_string buffer "view ";
      (* query_to_text may span lines; a view entry is one line *)
      Buffer.add_string buffer
        (String.concat " "
           (List.filter
              (fun s -> s <> "")
              (String.split_on_char '\n'
                 (Query.Parser.query_to_text v.View.cq)
              |> List.map String.trim)));
      Buffer.add_char buffer '\n')
    s.State.views;
  List.iter
    (fun (q, r) ->
      Buffer.add_string buffer
        (Printf.sprintf "rewrite %s := %s\n" q (expr_to_text r)))
    s.State.rewritings;
  Buffer.contents buffer

let states_to_text states =
  "# rdfviews state file\n" ^ String.concat "\n" (List.map state_to_text states)

let write_file path states =
  let oc = open_out path in
  output_string oc (states_to_text states);
  close_out oc

(* ---------- expression parsing ------------------------------------------- *)

type token =
  | Ident of string
  | Constant of Rdf.Term.t
  | Lbracket | Rbracket | Lparen | Rparen
  | Comma | Equal | Arrow

(* '-' stays out of identifiers so 'a->b' tokenizes as an arrow pair;
   column and view names are variable-shaped (letters, digits, '_', '.'). *)
let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '[' then (emit Lbracket; incr i)
    else if c = ']' then (emit Rbracket; incr i)
    else if c = '(' then (emit Lparen; incr i)
    else if c = ')' then (emit Rparen; incr i)
    else if c = ',' then (emit Comma; incr i)
    else if c = '=' then (emit Equal; incr i)
    else if c = '-' && !i + 1 < n && text.[!i + 1] = '>' then begin
      emit Arrow;
      i := !i + 2
    end
    else if c = '<' then begin
      match String.index_from_opt text !i '>' with
      | None -> fail "unterminated <uri> in %S" text
      | Some close ->
        emit (Constant (Rdf.Term.Uri (String.sub text (!i + 1) (close - !i - 1))));
        i := close + 1
    end
    else if c = '"' then begin
      match String.index_from_opt text (!i + 1) '"' with
      | None -> fail "unterminated string in %S" text
      | Some close ->
        emit
          (Constant (Rdf.Term.Literal (String.sub text (!i + 1) (close - !i - 1))));
        i := close + 1
    end
    else if c = '_' && !i + 1 < n && text.[!i + 1] = ':' then begin
      let j = ref (!i + 2) in
      while !j < n && is_ident_char text.[!j] do incr j done;
      emit (Constant (Rdf.Term.Blank (String.sub text (!i + 2) (!j - !i - 2))));
      i := !j
    end
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char text.[!j] do incr j done;
      emit (Ident (String.sub text !i (!j - !i)));
      i := !j
    end
    else fail "unexpected character %C in %S" c text
  done;
  List.rev !tokens

(* Recursive-descent over the token list. *)
let parse_expr text =
  let tokens = ref (tokenize text) in
  let peek () = match !tokens with [] -> None | t :: _ -> Some t in
  let advance () = match !tokens with [] -> () | _ :: rest -> tokens := rest in
  let expect t what =
    match !tokens with
    | t' :: rest when t' = t -> tokens := rest
    | _ -> fail "expected %s in %S" what text
  in
  let ident what =
    match !tokens with
    | Ident s :: rest ->
      tokens := rest;
      s
    | _ -> fail "expected %s in %S" what text
  in
  let bracketed element =
    expect Lbracket "'['";
    match peek () with
    | Some Rbracket ->
      advance ();
      []
    | _ ->
      let first = element () in
      let rec more acc =
        match peek () with
        | Some Comma ->
          advance ();
          more (element () :: acc)
        | _ ->
          expect Rbracket "']'";
          List.rev acc
      in
      first :: more []
  in
  let cond () =
    let c = ident "a column name" in
    expect Equal "'='";
    match !tokens with
    | Constant term :: rest ->
      tokens := rest;
      Rewriting.Eq_cst (c, term)
    | Ident c' :: rest ->
      tokens := rest;
      Rewriting.Eq_col (c, c')
    | _ -> fail "expected a column or constant after '=' in %S" text
  in
  let col_pair () =
    let a = ident "a left column" in
    expect Equal "'='";
    let b = ident "a right column" in
    (a, b)
  in
  let rename_pair () =
    let a = ident "a column name" in
    expect Arrow "'->'";
    let b = ident "a column name" in
    (a, b)
  in
  let rec expr () =
    match ident "an operator (scan/select/project/join/rename/union)" with
    | "scan" -> Rewriting.Scan (ident "a view name after scan")
    | "select" ->
      let conds = bracketed cond in
      let e = parenthesized_one () in
      Rewriting.Select (conds, e)
    | "project" ->
      let cols = bracketed (fun () -> ident "a column name") in
      let e = parenthesized_one () in
      Rewriting.Project (cols, e)
    | "join" ->
      let conds = bracketed col_pair in
      expect Lparen "'(' after join[...]";
      let l = expr () in
      expect Comma "',' between join operands";
      let r = expr () in
      expect Rparen "')' closing join";
      Rewriting.Join (conds, l, r)
    | "rename" ->
      let mapping = bracketed rename_pair in
      let e = parenthesized_one () in
      Rewriting.Rename (mapping, e)
    | "union" ->
      expect Lparen "'(' after union";
      let first = expr () in
      let rec more acc =
        match peek () with
        | Some Comma ->
          advance ();
          more (expr () :: acc)
        | _ ->
          expect Rparen "')' closing union";
          List.rev acc
      in
      Rewriting.Union (first :: more [])
    | op -> fail "unknown operator %s in %S" op text
  and parenthesized_one () =
    expect Lparen "'('";
    let e = expr () in
    expect Rparen "')'";
    e
  in
  let e = expr () in
  if !tokens <> [] then fail "trailing tokens in %S" text;
  e

(* ---------- file parsing -------------------------------------------------- *)

let parse_states text =
  let lines = String.split_on_char '\n' text in
  let states = ref [] in
  let views = ref [] in
  let rewritings = ref [] in
  let open_state = ref false in
  let flush () =
    if !open_state then begin
      states :=
        State.make ~views:(List.rev !views) ~rewritings:(List.rev !rewritings)
        :: !states;
      views := [];
      rewritings := []
    end;
    open_state := false
  in
  List.iteri
    (fun lineno raw ->
      let line = String.trim raw in
      let where = lineno + 1 in
      if line = "" || line.[0] = '#' then ()
      else if line = "state" then begin
        flush ();
        open_state := true
      end
      else if String.length line > 5 && String.sub line 0 5 = "view " then begin
        if not !open_state then fail "line %d: view outside a state block" where;
        let cq =
          try Query.Parser.parse_query (String.sub line 5 (String.length line - 5))
          with Query.Parser.Parse_error m -> fail "line %d: %s" where m
        in
        let view =
          try View.of_cq cq with Invalid_argument m -> fail "line %d: %s" where m
        in
        views := view :: !views
      end
      else if String.length line > 8 && String.sub line 0 8 = "rewrite " then begin
        if not !open_state then
          fail "line %d: rewrite outside a state block" where;
        let rest = String.sub line 8 (String.length line - 8) in
        let name, body =
          match String.index_opt rest ':' with
          | Some i
            when i + 1 < String.length rest
                 && rest.[i + 1] = '='
                 && String.trim (String.sub rest 0 i) <> "" ->
            ( String.trim (String.sub rest 0 i),
              String.sub rest (i + 2) (String.length rest - i - 2) )
          | Some _ | None -> fail "line %d: expected NAME := EXPR" where
        in
        let expr =
          try parse_expr body with Syntax_error m -> fail "line %d: %s" where m
        in
        rewritings := (name, expr) :: !rewritings
      end
      else fail "line %d: expected 'state', 'view ...' or 'rewrite ...'" where)
    lines;
  flush ();
  List.rev !states

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  parse_states contents
