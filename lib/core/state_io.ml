(* State files, written by View.to_string and Rewriting.to_string and
   read through Query.Parser's token stream; the grammar is documented
   in state_io.mli. *)

module P = Query.Parser

exception Syntax_error of string

(* ---------- writing ------------------------------------------------------ *)

let state_to_text (s : State.t) =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "state\n";
  List.iter
    (fun v -> Buffer.add_string buffer ("view " ^ View.to_string v ^ "\n"))
    s.State.views;
  List.iter
    (fun (q, r) ->
      Buffer.add_string buffer
        (Printf.sprintf "rewrite %s := %s\n" q (Rewriting.to_string r)))
    s.State.rewritings;
  Buffer.contents buffer

let states_to_text states =
  "# rdfviews state file\n" ^ String.concat "\n" (List.map state_to_text states)

let write_file path states =
  let oc = open_out path in
  output_string oc (states_to_text states);
  close_out oc

(* ---------- reading ------------------------------------------------------ *)

(* Grammar position decides what a word is: no word is reserved. *)

let name s =
  match P.next s with
  | P.Ident w -> w
  | tok -> P.fail s ("expected a name, found " ^ P.token_to_string tok)

(* A column is a variable name, so an uppercase one lexes as a Variable. *)
let column s =
  match P.next s with
  | P.Ident c | P.Variable c -> c
  | tok -> P.fail s ("expected a column, found " ^ P.token_to_string tok)

(* [opening] element, ..., [closing]; empty when [closing] comes first. *)
let sequence s opening closing element =
  P.expect s opening;
  if P.peek s = Some closing then (ignore (P.next s); [])
  else
    let rec more acc =
      match P.next s with
      | P.Comma -> more (element s :: acc)
      | tok when tok = closing -> List.rev acc
      | tok ->
        P.fail s
          (Printf.sprintf "expected , or %s, found %s" (P.token_to_string closing)
             (P.token_to_string tok))
    in
    more [ element s ]

let bracketed s element = sequence s P.Lbracket P.Rbracket element

let cond s =
  let c = column s in
  P.expect s P.Equal;
  match P.next s with
  | P.Uri u -> Rewriting.Eq_cst (c, Rdf.Term.Uri u)
  | P.Literal l -> Rewriting.Eq_cst (c, Rdf.Term.Literal l)
  | P.Blank b -> Rewriting.Eq_cst (c, Rdf.Term.Blank b)
  | P.Ident "type" -> Rewriting.Eq_cst (c, Rdf.Vocabulary.rdf_type)
  | P.Ident c' | P.Variable c' -> Rewriting.Eq_col (c, c')
  | tok ->
    P.fail s ("expected a column or a constant, found " ^ P.token_to_string tok)

let pair separator s =
  let a = column s in
  P.expect s separator;
  (a, column s)

let rec expr s =
  match P.next s with
  | P.Ident "scan" -> Rewriting.Scan (name s)
  | P.Ident "select" ->
    let conds = bracketed s cond in
    Rewriting.Select (conds, operand s)
  | P.Ident "project" ->
    let cols = bracketed s column in
    Rewriting.Project (cols, operand s)
  | P.Ident "join" -> (
    let conds = bracketed s (pair P.Equal) in
    match operands s with
    | [ l; r ] -> Rewriting.Join (conds, l, r)
    | _ -> P.fail s "join takes two operands")
  | P.Ident "rename" ->
    let mapping = bracketed s (pair P.Arrow) in
    Rewriting.Rename (mapping, operand s)
  | P.Ident "union" -> (
    match operands s with
    | [] -> P.fail s "union takes at least one operand"
    | branches -> Rewriting.Union branches)
  | tok ->
    P.fail s
      ("expected an operator (scan/select/project/join/rename/union), found "
     ^ P.token_to_string tok)

and operands s = sequence s P.Lparen P.Rparen expr

and operand s =
  match operands s with
  | [ e ] -> e
  | _ -> P.fail s "expected one operand"

let located parse text =
  try parse (P.stream_of text)
  with P.Parse_error message -> raise (Syntax_error message)

let parse_expr =
  located (fun s ->
      let e = expr s in
      (match P.peek s with
       | None -> ()
       | Some _ -> P.fail s ("trailing " ^ P.token_to_string (P.next s)));
      e)

let view s =
  let cq = P.parse_rule s in
  try View.of_cq cq with Invalid_argument message -> P.fail s message

let rewrite s =
  let q = name s in
  P.expect s P.Assign;
  (q, expr s)

(* [current] is the open state's views and rewritings, latest first. *)
let parse_states =
  located (fun s ->
      let close acc = function
        | None -> acc
        | Some (views, rewritings) ->
          State.make ~views:(List.rev views) ~rewritings:(List.rev rewritings)
          :: acc
      in
      let rec loop acc current =
        if P.peek s = None then List.rev (close acc current)
        else
          match (P.next s, current) with
          | P.Ident "state", _ -> loop (close acc current) (Some ([], []))
          | P.Ident "view", Some (views, rewritings) ->
            loop acc (Some (view s :: views, rewritings))
          | P.Ident "rewrite", Some (views, rewritings) ->
            loop acc (Some (views, rewrite s :: rewritings))
          | P.Ident (("view" | "rewrite") as directive), None ->
            P.fail s (directive ^ " outside a state block")
          | _ -> P.fail s "expected 'state', 'view ...' or 'rewrite ...'"
      in
      loop [] None)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  parse_states contents
