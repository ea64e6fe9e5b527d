exception Parse_error of string

(* ---------- lexer -------------------------------------------------------- *)

type token =
  | Ident of string
  | Variable of string
  | Uri of string
  | Literal of string
  | Blank of string
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Comma
  | Dot
  | Equal
  | Turnstile
  | Arrow
  | Assign

let token_to_string = function
  | Ident s -> s
  | Variable s -> "?" ^ s
  | Uri s -> Rdf.Term.to_string (Rdf.Term.Uri s)
  | Literal s -> Rdf.Term.to_string (Rdf.Term.Literal s)
  | Blank s -> Rdf.Term.to_string (Rdf.Term.Blank s)
  | Lparen -> "("
  | Rparen -> ")"
  | Lbracket -> "["
  | Rbracket -> "]"
  | Comma -> ","
  | Dot -> "."
  | Equal -> "="
  | Turnstile -> ":-"
  | Arrow -> "->"
  | Assign -> ":="

let fail_at line message =
  raise (Parse_error (Printf.sprintf "line %d: %s" line message))

let is_word_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = ':' || ch = '-'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push tok = tokens := (tok, !line) :: !tokens in
  let pair_at j a b = j + 1 < n && input.[j] = a && input.[j + 1] = b in
  (* a word stops before "->" and ":=", so "a->b" and "q:=e" split *)
  let word_end start =
    let j = ref start in
    while
      !j < n
      && is_word_char input.[!j]
      && not (pair_at !j '-' '>' || pair_at !j ':' '=')
    do
      incr j
    done;
    !j
  in
  while !i < n do
    let ch = input.[!i] in
    if ch = '\n' then begin
      incr line;
      incr i
    end
    else if ch = ' ' || ch = '\t' || ch = '\r' then incr i
    else if ch = '#' then begin
      while !i < n && input.[!i] <> '\n' do
        incr i
      done
    end
    else if ch = '(' then (push Lparen; incr i)
    else if ch = ')' then (push Rparen; incr i)
    else if ch = '[' then (push Lbracket; incr i)
    else if ch = ']' then (push Rbracket; incr i)
    else if ch = ',' then (push Comma; incr i)
    else if ch = '.' then (push Dot; incr i)
    else if ch = '=' then (push Equal; incr i)
    else if pair_at !i ':' '-' then (push Turnstile; i := !i + 2)
    else if pair_at !i '-' '>' then (push Arrow; i := !i + 2)
    else if pair_at !i ':' '=' then (push Assign; i := !i + 2)
    else if ch = '<' then begin
      let close = try String.index_from input !i '>' with Not_found ->
        fail_at !line "unterminated URI"
      in
      push (Uri (String.sub input (!i + 1) (close - !i - 1)));
      i := close + 1
    end
    else if ch = '"' then begin
      let close = try String.index_from input (!i + 1) '"' with Not_found ->
        fail_at !line "unterminated literal"
      in
      push (Literal (String.sub input (!i + 1) (close - !i - 1)));
      i := close + 1
    end
    else if ch = '?' then begin
      let start = !i + 1 in
      let j = word_end start in
      if j = start then fail_at !line "empty variable name";
      push (Variable (String.sub input start (j - start)));
      i := j
    end
    else if is_word_char ch then begin
      let start = !i in
      let j = word_end start in
      let word = String.sub input start (j - start) in
      (if word.[0] >= 'A' && word.[0] <= 'Z' then push (Variable word)
       else if String.starts_with ~prefix:"_:" word then begin
         if String.length word = 2 then fail_at !line "empty blank node label";
         push (Blank (String.sub word 2 (String.length word - 2)))
       end
       else push (Ident word));
      i := j
    end
    else fail_at !line (Printf.sprintf "unexpected character %c" ch)
  done;
  List.rev !tokens

(* ---------- token stream -------------------------------------------------- *)

(* [line] is the line of the last consumed token (1 before the first):
   every error raised while parsing names it, including running out of
   tokens and constructor errors on a finished rule or triple. *)
type stream = { mutable tokens : (token * int) list; mutable line : int }

let stream_of input = { tokens = tokenize input; line = 1 }

let fail s message = fail_at s.line message

let peek s = match s.tokens with [] -> None | (tok, _) :: _ -> Some tok

let next s =
  match s.tokens with
  | [] -> fail s "unexpected end of input"
  | (tok, line) :: rest ->
    s.tokens <- rest;
    s.line <- line;
    tok

let expect s expected =
  let tok = next s in
  if tok <> expected then
    fail s
      (Printf.sprintf "expected %s, found %s" (token_to_string expected)
         (token_to_string tok))

(* ---------- term parsing -------------------------------------------------- *)

let term_of_token s = function
  | Variable x -> Qterm.Var x
  | Uri u -> Qterm.Cst (Rdf.Term.Uri u)
  | Literal l -> Qterm.Cst (Rdf.Term.Literal l)
  | Blank b -> Qterm.Cst (Rdf.Term.Blank b)
  | Ident "type" -> Qterm.Cst Rdf.Vocabulary.rdf_type
  | Ident w -> Qterm.Cst (Rdf.Term.Uri w)
  | tok -> fail s (Printf.sprintf "expected a term, found %s" (token_to_string tok))

let parse_term s = term_of_token s (next s)

(* ---------- query parsing ------------------------------------------------- *)

let parse_term_list s =
  expect s Lparen;
  let rec loop acc =
    let term = parse_term s in
    match next s with
    | Comma -> loop (term :: acc)
    | Rparen -> List.rev (term :: acc)
    | tok ->
      fail s
        (Printf.sprintf "expected , or ), found %s" (token_to_string tok))
  in
  loop []

let parse_atom s =
  (match next s with
  | Ident "t" -> ()
  | tok ->
    fail s
      (Printf.sprintf "expected atom t(...), found %s" (token_to_string tok)));
  match parse_term_list s with
  | [ subject; predicate; obj ] -> Atom.make subject predicate obj
  | terms ->
    fail s
      (Printf.sprintf "atom must have 3 terms, found %d" (List.length terms))

let parse_rule s =
  let name =
    match next s with
    | Ident n -> n
    | tok ->
      fail s
        (Printf.sprintf "expected query name, found %s" (token_to_string tok))
  in
  let head = parse_term_list s in
  expect s Turnstile;
  let rec body acc =
    let atom = parse_atom s in
    match next s with
    | Comma -> body (atom :: acc)
    | Dot -> List.rev (atom :: acc)
    | tok ->
      fail s
        (Printf.sprintf "expected , or ., found %s" (token_to_string tok))
  in
  let body = body [] in
  try Cq.make ~name ~head ~body with Invalid_argument message -> fail s message

(* A workload names each query once: the selector keys rewritings by
   query name. *)
let parse_rules s =
  let rec loop acc =
    match peek s with
    | None -> List.rev acc
    | Some _ ->
      let q = parse_rule s in
      if List.exists (fun (p : Cq.t) -> String.equal p.name q.Cq.name) acc then
        fail s ("duplicate query name " ^ q.Cq.name);
      loop (q :: acc)
  in
  loop []

let parse_workload input = parse_rules (stream_of input)

let parse_query input =
  let s = stream_of input in
  match parse_rules s with
  | [ q ] -> q
  | queries ->
    fail s
      (Printf.sprintf "expected exactly one query, found %d"
         (List.length queries))

(* ---------- schema parsing ------------------------------------------------ *)

(* A schema constant: the next term, which must be a URI. *)
let parse_constant s =
  match parse_term s with
  | Qterm.Cst (Rdf.Term.Uri _ as t) -> t
  | Qterm.Cst _ -> fail s "schema terms must be URIs"
  | Qterm.Var _ -> fail s "schema statements cannot contain variables"

let parse_schema input =
  let s = stream_of input in
  let rec loop acc =
    match peek s with
    | None -> Rdf.Schema.of_statements (List.rev acc)
    | Some _ ->
      let subject = parse_constant s in
      let statement =
        match next s with
        | Ident r -> (
          match String.lowercase_ascii r with
          | "subclassof" -> fun obj -> Rdf.Schema.Subclass (subject, obj)
          | "subpropertyof" -> fun obj -> Rdf.Schema.Subproperty (subject, obj)
          | "domain" -> fun obj -> Rdf.Schema.Domain (subject, obj)
          | "range" -> fun obj -> Rdf.Schema.Range (subject, obj)
          | other -> fail s ("unknown schema relation " ^ other))
        | tok ->
          fail s
            (Printf.sprintf "expected a schema relation, found %s"
               (token_to_string tok))
      in
      let statement = statement (parse_constant s) in
      expect s Dot;
      loop (statement :: acc)
  in
  loop []

(* ---------- triple parsing ------------------------------------------------ *)

let parse_triples input =
  let s = stream_of input in
  let rdf_term () =
    match parse_term s with
    | Qterm.Cst t -> t
    | Qterm.Var _ -> fail s "triples cannot contain variables"
  in
  let rec loop acc =
    match peek s with
    | None -> List.rev acc
    | Some _ ->
      let subject = rdf_term () in
      let predicate = rdf_term () in
      let obj = rdf_term () in
      expect s Dot;
      let triple =
        try Rdf.Triple.make subject predicate obj
        with Invalid_argument message -> fail s message
      in
      loop (triple :: acc)
  in
  loop []
