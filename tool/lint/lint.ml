(* Repo-specific source linter.

   Usage: lint.exe [--list-rules] [PATH ...]

   Parses every .ml file under the given paths (default: lib bin bench)
   with the host compiler's parser and walks the parsetree with an
   [Ast_iterator], enforcing the rules in [Rules.rules].  Rules scoped
   [Lib_only] fire only for files under a lib/ directory.

   Suppression: a comment containing "lint: allow <rule-id>" on the
   offending line, or on the line directly above it, silences that one
   diagnostic.

   Exit codes:
     0  no violations
     1  at least one violation
     2  usage error, unreadable path, or unparseable source file *)

let usage =
  "lint.exe [--list-rules] [PATH ...]\n\
   Lints OCaml sources against the repo rule table (see --list-rules).\n\
   Exit codes: 0 clean, 1 violations found, 2 usage/parse error."

(* ---------- diagnostics -------------------------------------------------- *)

type violation = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let violations : violation list ref = ref []
let suppressed = ref 0
let files_checked = ref 0
let hard_errors = ref []

(* Source lines of the file under analysis, for suppression comments. *)
let current_lines : string array ref = ref [||]

let suppressed_at rule_id line =
  let mark = "lint: allow " ^ rule_id in
  let has l =
    l >= 1 && l <= Array.length !current_lines
    && (let text = !current_lines.(l - 1) in
        let tn = String.length text and mn = String.length mark in
        let rec scan i =
          i + mn <= tn && (String.sub text i mn = mark || scan (i + 1))
        in
        scan 0)
  in
  has line || has (line - 1)

let report ~file ~(loc : Location.t) rule_id message =
  let pos = loc.Location.loc_start in
  let line = pos.Lexing.pos_lnum in
  let col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol in
  if suppressed_at rule_id line then incr suppressed
  else violations := { file; line; col; rule = rule_id; message } :: !violations

(* ---------- longident helpers ------------------------------------------- *)

let flatten lid = try Longident.flatten lid with _ -> []

(* Last (module, name) pair of an access path: [Rdf.Term.uri] ->
   ("Term", "uri"); [compare] -> ("", "compare"). *)
let tail_pair lid =
  match List.rev (flatten lid) with
  | name :: md :: _ -> (md, name)
  | [ name ] -> ("", name)
  | [] -> ("", "")

let pair_in table lid = List.mem (tail_pair lid) table

(* ---------- domain-expression heuristic ---------------------------------- *)

let rec is_domain_expr (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_construct ({ txt; _ }, _) ->
    let _, name = tail_pair txt in
    List.mem name Rules.domain_constructors
  | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, _)
    ->
    pair_in Rules.domain_producers txt
  | Parsetree.Pexp_ident { txt; _ } -> pair_in Rules.domain_values txt
  | Parsetree.Pexp_constraint (inner, _) -> is_domain_expr inner
  | _ -> false

let describe_domain_expr (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_construct ({ txt; _ }, _) ->
    String.concat "." (flatten txt)
  | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, _)
  | Parsetree.Pexp_ident { txt; _ } ->
    String.concat "." (flatten txt)
  | _ -> "expression"

(* ---------- per-expression checks ---------------------------------------- *)

(* Names let-bound anywhere in the file; a bare [compare]/[hash] that a
   module defines itself (Rdf.Term.compare inside term.ml) is not the
   polymorphic one. *)
let locally_bound : (string, unit) Hashtbl.t = Hashtbl.create 16

(* Let-bound aliases of a relation's row set: [let rs = Relation.rowset
   rel] records "rs", so a row-set write through the alias is caught. *)
let rowset_aliases : (string, unit) Hashtbl.t = Hashtbl.create 16

let is_relation_rowset (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, _) ->
    tail_pair txt = ("Relation", "rowset")
  | _ -> false

let collect_bound structure =
  Hashtbl.reset locally_bound;
  Hashtbl.reset rowset_aliases;
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } -> Hashtbl.replace locally_bound txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
      value_binding =
        (fun self vb ->
          (match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt = alias; _ }
            when is_relation_rowset vb.Parsetree.pvb_expr ->
            Hashtbl.replace rowset_aliases alias ()
          | _ -> ());
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it structure

let check_ident ~file ~is_lib txt loc =
  match tail_pair txt with
  | "", "compare" when not (Hashtbl.mem locally_bound "compare") ->
    report ~file ~loc "poly-compare"
      "bare `compare` is the polymorphic comparison; use a dedicated compare"
  | ("Stdlib" | "Pervasives"), ("compare" | "=" | "<>") ->
    report ~file ~loc "poly-compare"
      "Stdlib polymorphic comparison; use a dedicated compare/equal"
  | "Hashtbl", ("hash" | "seeded_hash") ->
    report ~file ~loc "poly-hash"
      "polymorphic Hashtbl.hash; use the domain module's hash"
  | "Obj", "magic" -> report ~file ~loc "obj-magic" "Obj.magic is banned"
  | "Array", "sort" when is_lib ->
    report ~file ~loc "array-sort"
      "Array.sort raises an exception per sift; use Array.stable_sort"
  | "", name when is_lib && List.mem name Rules.stdout_idents ->
    report ~file ~loc "stdout-in-lib"
      (Printf.sprintf "`%s` writes to stdout from a library" name)
  | pair when is_lib && List.mem pair Rules.stdout_qualified ->
    report ~file ~loc "stdout-in-lib"
      (Printf.sprintf "`%s` writes to stdout from a library"
         (String.concat "." (flatten txt)))
  | _ -> ()

let positional_args args =
  List.filter_map
    (function Asttypes.Nolabel, e -> Some e | _ -> None)
    args

let check_apply ~file ~is_lib fn args loc =
  match fn.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt = Longident.Lident (("==" | "!=") as op); _ }
    when is_lib ->
    report ~file ~loc "phys-equal"
      (Printf.sprintf
         "physical %s compares object identity, which transitions and \
          reloads do not preserve; compare by name or dedicated equal"
         op)
  | Parsetree.Pexp_ident { txt; _ }
    when is_lib && tail_pair txt = ("List", "memq") ->
    report ~file ~loc "phys-equal"
      "List.memq compares by physical identity, which transitions and \
       reloads do not preserve; use a name-based List.exists"
  | Parsetree.Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ } -> (
    match positional_args args with
    | a :: b :: _ ->
      let offender =
        if is_domain_expr a then Some a
        else if is_domain_expr b then Some b
        else None
      in
      Option.iter
        (fun e ->
          report ~file ~loc "poly-equal"
            (Printf.sprintf
               "polymorphic %s applied to domain value %s; use the module's \
                equal"
               op (describe_domain_expr e)))
        offender
    | _ -> ())
  | Parsetree.Pexp_ident { txt; _ }
    when (match tail_pair txt with
         | "Hashtbl", op -> List.mem op Rules.hashtbl_key_ops
         | _ -> false) -> (
    match positional_args args with
    | _table :: key :: _ when is_domain_expr key ->
      report ~file ~loc "hashtbl-domain-key"
        (Printf.sprintf
           "generic Hashtbl keyed by domain value %s; use the module's \
            Hashtbl.Make table"
           (describe_domain_expr key))
    | _ -> ())
  | _ -> ()

(* retained-exec-row: a callback passed to one of the row-streaming
   executor entry points ([Rules.row_callback_entries]) whose body
   stores the emitted row array itself — consed onto a list, assigned
   through [:=] or a record field, or handed to a retaining container
   operation ([Rules.row_retaining_sinks]) — instead of an
   [Array.copy].  The executor reuses the frame across emissions, so
   every retained reference silently becomes the last row.  Purely
   syntactic: only the raw callback parameter is tracked, so an alias
   ([let r = row in ...]) escapes the net; the QCheck differential
   suite is the backstop for those. *)
let rec is_raw_ident name (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt = Longident.Lident n; _ } -> String.equal n name
  | Parsetree.Pexp_constraint (inner, _) -> is_raw_ident name inner
  | _ -> false

let scan_row_retention ~file row body =
  let fire loc what =
    report ~file ~loc "retained-exec-row"
      (Printf.sprintf
         "%s stores the emitted row `%s`, a buffer the executor reuses; \
          store Array.copy %s instead"
         what row row)
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_construct
              ( { txt = Longident.Lident "::"; _ },
                Some { pexp_desc = Parsetree.Pexp_tuple [ a; b ]; _ } )
            when is_raw_ident row a || is_raw_ident row b ->
            fire e.Parsetree.pexp_loc "consing onto a list"
          | Parsetree.Pexp_setfield (_, _, v) when is_raw_ident row v ->
            fire e.Parsetree.pexp_loc "record-field assignment"
          | Parsetree.Pexp_apply
              ( { pexp_desc = Parsetree.Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
                args )
            when (match positional_args args with
                 | _ :: v :: _ -> is_raw_ident row v
                 | _ -> false) ->
            fire e.Parsetree.pexp_loc "reference assignment"
          | Parsetree.Pexp_apply
              ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, args)
            when pair_in Rules.row_retaining_sinks txt
                 && List.exists (is_raw_ident row) (positional_args args) ->
            fire e.Parsetree.pexp_loc
              ("`" ^ String.concat "." (flatten txt) ^ "`")
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it body

let check_retained_row ~file fn args _loc =
  match fn.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } when pair_in Rules.row_callback_entries txt
    -> (
    (* the emit callback is the last positional argument *)
    match List.rev (positional_args args) with
    | {
        Parsetree.pexp_desc =
          Parsetree.Pexp_fun
            ( _,
              _,
              { Parsetree.ppat_desc = Parsetree.Ppat_var { txt = row; _ }; _ },
              body );
        _;
      }
      :: _ ->
      scan_row_retention ~file row body
    | _ -> ())
  | _ -> ()

(* relation-write: a relation writer ([Rules.relation_writers]),
   applied or passed as a value, or a row-set writer
   ([Rules.rowset_writers]) whose set is [Relation.rowset _] or a
   let-bound alias of it, outside the owning files
   ([Rules.relation_owners]).  An executor result may share a view's row
   set, so a write anywhere else could change a view behind its
   maintenance. *)
let is_relation_owner file =
  List.exists (fun owner -> String.ends_with ~suffix:owner file) Rules.relation_owners

let check_relation_write ~file (e : Parsetree.expression) =
  let is_rowset_alias (target : Parsetree.expression) =
    match target.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt = Longident.Lident alias; _ } ->
      Hashtbl.mem rowset_aliases alias
    | _ -> false
  in
  let writer =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; _ } when pair_in Rules.relation_writers txt ->
      Some txt
    | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, args)
      when pair_in Rules.rowset_writers txt -> (
      match positional_args args with
      | target :: _ when is_relation_rowset target || is_rowset_alias target -> Some txt
      | _ -> None)
    | _ -> None
  in
  match writer with
  | Some txt when not (is_relation_owner file) ->
    report ~file ~loc:e.Parsetree.pexp_loc "relation-write"
      (Printf.sprintf
         "`%s` writes a relation outside view maintenance; an executor \
          result may share a view's rows and is read-only"
         (String.concat "." (flatten txt)))
  | _ -> ()

(* toplevel-table: a table constructor ([Rules.table_constructors])
   applied in the value of a toplevel let, or of a let in a toplevel
   module, and not under a function: the table is made once, when the
   module is initialised, and lives as long as the process.  A functor
   body is a function of its argument, so it is not searched. *)
let check_toplevel_tables ~file structure =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ -> ()
          | Parsetree.Pexp_apply
              ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, _)
            when pair_in Rules.table_constructors txt ->
            report ~file ~loc:e.Parsetree.pexp_loc "toplevel-table"
              (Printf.sprintf
                 "`%s` outside any function makes a process-global table; \
                  hang it on the value that owns it"
                 (String.concat "." (flatten txt)))
          | _ -> Ast_iterator.default_iterator.expr self e);
      module_expr =
        (fun self m ->
          match m.Parsetree.pmod_desc with
          | Parsetree.Pmod_functor _ -> ()
          | _ -> Ast_iterator.default_iterator.module_expr self m);
    }
  in
  it.structure it structure

let rec catch_all_pattern (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_any | Parsetree.Ppat_var _ -> true
  | Parsetree.Ppat_alias (inner, _) -> catch_all_pattern inner
  | Parsetree.Ppat_or (a, b) -> catch_all_pattern a || catch_all_pattern b
  | _ -> false

let check_try ~file cases =
  List.iter
    (fun (c : Parsetree.case) ->
      if catch_all_pattern c.Parsetree.pc_lhs then
        report ~file ~loc:c.Parsetree.pc_lhs.Parsetree.ppat_loc "catch-all"
          "catch-all exception handler; match the specific exceptions")
    cases

(* ---------- file walk ----------------------------------------------------- *)

let lint_structure ~file ~is_lib structure =
  collect_bound structure;
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          check_relation_write ~file e;
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } ->
            check_ident ~file ~is_lib txt e.Parsetree.pexp_loc
          | Parsetree.Pexp_apply (fn, args) ->
            check_apply ~file ~is_lib fn args e.Parsetree.pexp_loc;
            check_retained_row ~file fn args e.Parsetree.pexp_loc
          | Parsetree.Pexp_try (_, cases) when is_lib -> check_try ~file cases
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it structure;
  if is_lib then check_toplevel_tables ~file structure

let read_lines path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  (text, Array.of_list (String.split_on_char '\n' text))

let is_lib_path path =
  let parts = String.split_on_char '/' path in
  List.mem "lib" parts

let lint_file path =
  incr files_checked;
  let text, lines = read_lines path in
  current_lines := lines;
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | structure -> lint_structure ~file:path ~is_lib:(is_lib_path path) structure
  | exception exn ->
    let detail =
      match Location.error_of_exn exn with
      | Some (`Ok _) | Some `Already_displayed -> "syntax error"
      | None -> Printexc.to_string exn
    in
    hard_errors := Printf.sprintf "%s: unparseable (%s)" path detail :: !hard_errors

let rec walk path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.iter (fun entry ->
           if
             String.length entry > 0
             && entry.[0] <> '.'
             && entry.[0] <> '_'
           then walk (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then begin
    lint_file path;
    (* missing-mli: library modules must ship an interface *)
    if is_lib_path path && not (Sys.file_exists (path ^ "i")) then
      report ~file:path
        ~loc:
          Location.
            {
              loc_start = { Lexing.dummy_pos with pos_lnum = 1; pos_cnum = 0; pos_bol = 0 };
              loc_end = { Lexing.dummy_pos with pos_lnum = 1; pos_cnum = 0; pos_bol = 0 };
              loc_ghost = false;
            }
        "missing-mli"
        (Printf.sprintf "module %s has no .mli interface"
           (Filename.remove_extension (Filename.basename path)))
  end

(* ---------- output -------------------------------------------------------- *)

let print_human ordered =
  List.iter
    (fun v ->
      Printf.printf "%s:%d:%d: [%s] %s\n" v.file v.line v.col v.rule v.message)
    ordered;
  Printf.printf "%d file(s) checked, %d violation(s), %d suppressed\n"
    !files_checked (List.length ordered) !suppressed

let list_rules () =
  List.iter
    (fun r ->
      Printf.printf "%-20s %s  %s\n" r.Rules.id
        (match r.Rules.scope with
        | Rules.Everywhere -> "[all] "
        | Rules.Lib_only -> "[lib] ")
        r.Rules.summary)
    Rules.rules;
  print_endline
    "\nSuppress one site with a comment on the same line or the line above:\n\
    \  (* lint: allow <rule-id> -- reason *)"

(* ---------- main ---------------------------------------------------------- *)

let () =
  let paths = ref [] in
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse_args = function
    | [] -> ()
    | "--list-rules" :: _ ->
      list_rules ();
      exit 0
    | ("--help" | "-h") :: _ ->
      print_endline usage;
      exit 0
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      prerr_endline ("lint: unknown option " ^ arg);
      prerr_endline usage;
      exit 2
    | path :: rest ->
      paths := path :: !paths;
      parse_args rest
  in
  parse_args args;
  let paths =
    match List.rev !paths with [] -> [ "lib"; "bin"; "bench" ] | ps -> ps
  in
  List.iter
    (fun p ->
      if Sys.file_exists p then walk p
      else begin
        prerr_endline ("lint: no such path: " ^ p);
        exit 2
      end)
    paths;
  List.iter prerr_endline !hard_errors;
  if !hard_errors <> [] then exit 2;
  let ordered =
    List.sort
      (fun a b ->
        let c = String.compare a.file b.file in
        if c <> 0 then c else Int.compare a.line b.line)
      !violations
  in
  print_human ordered;
  exit (if ordered = [] then 0 else 1)
