(* The lint rule table.  Every diagnostic the driver emits carries the id
   of one of these rules; a site is silenced by a comment containing
   "lint: allow <id>" on the offending line or the line above it.

   The checks are purely syntactic (an [Ast_iterator] over the
   parsetree), so the "applied to a domain type" rules work from the
   tables below: an expression is treated as domain-typed when it is
   built by a known domain constructor or a known domain-producing
   function.  That heuristic has false negatives (a domain value bound
   to a plain identifier is invisible), never false positives; the
   dedicated [equal]/[compare]/[hash] functions and the [Hashtbl.Make]
   tables introduced alongside this linter are the belt to this
   suspenders.  Dataflow (aliases through bindings, function returns or
   arguments) is the typedtree analyzer's job (tool/analyze). *)

type scope =
  | Everywhere  (** checked in every directory given to the driver *)
  | Lib_only    (** checked only under a [lib] directory *)

type rule = { id : string; summary : string; scope : scope }

let rules =
  [
    {
      id = "poly-compare";
      summary =
        "bare or Stdlib-qualified polymorphic `compare`; use the domain \
         module's dedicated compare (Rdf.Term.compare, String.compare, ...)";
      scope = Everywhere;
    };
    {
      id = "poly-equal";
      summary =
        "polymorphic =/<> applied to a domain value (Rdf.Term.t, \
         Query.Qterm.t, Query.Atom.t, Core.Rewriting.t, ...); use the \
         module's dedicated equal";
      scope = Everywhere;
    };
    {
      id = "poly-hash";
      summary =
        "Hashtbl.hash / Hashtbl.seeded_hash; use the domain module's \
         dedicated hash";
      scope = Everywhere;
    };
    {
      id = "hashtbl-domain-key";
      summary =
        "generic Hashtbl operation keyed by a domain value; use the \
         module's Hashtbl.Make table (e.g. Rdf.Term.Table)";
      scope = Everywhere;
    };
    {
      id = "obj-magic";
      summary = "Obj.magic defeats the type system and is banned";
      scope = Everywhere;
    };
    {
      id = "phys-equal";
      summary =
        "physical equality (==/!=) or List.memq in a library; domain \
         values are rebuilt by transitions and reloads, so physical \
         identity silently diverges from structural identity — compare \
         by name or with the module's equal";
      scope = Lib_only;
    };
    {
      id = "catch-all";
      summary =
        "catch-all exception handler (try ... with _ -> / with e ->) in a \
         library; match the specific exceptions intended";
      scope = Lib_only;
    };
    {
      id = "toplevel-table";
      summary =
        "toplevel let whose value builds a table (Hashtbl.create, \
         Tbl.create, Rowset.create, Buckets.create) outside any function \
         in a library; a process-global table has no owner to drop it and \
         only grows — hang the table on the value that owns it";
      scope = Lib_only;
    };
    {
      id = "retained-exec-row";
      summary =
        "callback passed to Plan.exec stores the emitted row array \
         without copying; the executor reuses that buffer across \
         emissions, so the stored rows all mutate to the last one — store \
         [Array.copy row] instead";
      scope = Everywhere;
    };
    {
      id = "relation-write";
      summary =
        "Relation.add_row/remove_row, or a Rowset write on \
         Relation.rowset _, outside lib/engine/maintenance.ml and \
         lib/engine/relation.ml; an executor result may share a \
         materialized view's row set, so relations are written only by \
         maintenance";
      scope = Everywhere;
    };
    {
      id = "missing-mli";
      summary = "library module without an .mli interface";
      scope = Lib_only;
    };
    {
      id = "array-sort";
      summary =
        "Array.sort in a library: its heap sort raises an exception inside \
         every sift, and with backtraces on the runtime keeps the last one \
         alive, so a selection leaves words behind; use Array.stable_sort, \
         a merge sort that raises nothing and orders ints the same";
      scope = Lib_only;
    };
    {
      id = "stdout-in-lib";
      summary =
        "direct printing to stdout from a library (print_*, Printf.printf, \
         Format.printf); return strings or go through Obs";
      scope = Lib_only;
    };
  ]

let find id = List.find_opt (fun r -> String.equal r.id id) rules

(* ---------- domain tables ------------------------------------------------ *)

(* Variant constructors of the dictionary-encoded domain types:
   Rdf.Term.t, Query.Qterm.t, Core.Rewriting.t / .cond, Rdf.Schema
   statements.  An =/<> operand built from one of these is a domain
   comparison. *)
let domain_constructors =
  [
    "Uri"; "Blank"; "Literal";            (* Rdf.Term.t *)
    "Var"; "Cst";                          (* Query.Qterm.t *)
    "Scan"; "Select"; "Project"; "Join"; "Rename"; "Union";  (* Rewriting.t *)
    "Eq_cst"; "Eq_col";                    (* Rewriting.cond *)
    "Subclass"; "Subproperty"; "Domain"; "Range";  (* Rdf.Schema *)
  ]

(* (module, function) pairs whose application yields a domain value; the
   module component is matched against the last module of the access
   path, so both [Term.uri] and [Rdf.Term.uri] hit. *)
let domain_producers =
  [
    ("Term", "uri");
    ("Qterm", "var"); ("Qterm", "cst");
    ("Atom", "make"); ("Triple", "make");
    ("View", "make");
    ("Cq", "make"); ("Cq", "freshen"); ("Cq", "minimize"); ("Cq", "rename");
    (* a listified row is a domain value: keying a generic Hashtbl by
       [Array.to_list row] means polymorphic hashing of the row — use
       Rdf.Rowset instead *)
    ("Array", "to_list");
  ]

(* Qualified domain constants (values, not functions). *)
let domain_values = [ ("Vocabulary", "rdf_type"); ("Term", "rdf_type") ]

(* Generic-Hashtbl operations whose second positional argument is the
   key. *)
let hashtbl_key_ops =
  [ "add"; "replace"; "find"; "find_opt"; "find_all"; "mem"; "remove" ]

(* (module, function) pairs that build a table: the last module of the
   access path is matched, so [Hashtbl.create], [State.Tbl.create] and
   [Rdf.Rowset.create] all hit. *)
let table_constructors =
  [
    ("Hashtbl", "create"); ("Tbl", "create"); ("Rowset", "create");
    ("Buckets", "create");
  ]

(* Row-streaming entry point of the compiled-plan executor: its
   callback receives a binding frame the executor reuses for the next
   emission, so the callback owns the array only for the duration of
   the call. *)
let row_callback_entries = [ ("Plan", "exec") ]

(* (module, function) applications that retain a positional argument
   beyond the call: passing the raw emitted row to one of these inside
   the callback stores the executor's reused buffer.  Cons cells,
   [:=], and record-field assignment are matched structurally by the
   linter; this table covers the container entry points. *)
let row_retaining_sinks =
  [
    ("Hashtbl", "add"); ("Hashtbl", "replace");
    ("Tbl", "add"); ("Tbl", "replace");
    ("Queue", "add"); ("Queue", "push");
    ("Stack", "push");
    ("Array", "set");
  ]

(* The relation writers, the writers of the one row table (Rdf.Rowset),
   and the files allowed to call them: the relation's own module and
   view maintenance. *)
let relation_writers = [ ("Relation", "add_row"); ("Relation", "remove_row") ]
let rowset_writers =
  [
    ("Rowset", "add"); ("Rowset", "find_or_add"); ("Rowset", "add_rows");
    ("Rowset", "remove"); ("Rowset", "remove_row");
  ]
let relation_owners = [ "lib/engine/maintenance.ml"; "lib/engine/relation.ml" ]

(* stdout printers banned in libraries: unqualified Stdlib channel
   printers and the printf family bound to stdout. *)
let stdout_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_bytes"; "print_int"; "print_float";
  ]

let stdout_qualified =
  [
    ("Printf", "printf");
    ("Format", "printf");
    ("Format", "print_string");
    ("Format", "print_newline");
    ("Format", "print_flush");
  ]
