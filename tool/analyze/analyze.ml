(* Typedtree-based concurrency-safety analyzer.

   Usage: analyze.exe [--inventory] [--list-rules] [--root DIR] [PATH ...]

   Reads the .cmt files produced by `dune build` (dune passes -bin-annot
   to every compilation, and the lib/*/dune files also request it
   explicitly) under the given paths — default `_build/default/lib` —
   and machine-checks the shared-state discipline documented in
   CONCURRENCY.md:

   1. *Inventory*: every piece of module-level mutable state (toplevel
      `ref`s, hashtables, `Atomic.t`s, buffers, queues, arrays, DLS
      keys) and every mutable or lock-annotated record field, with its
      classification (atomic / DLS-backed / lock-guarded / plain).

   2. *Call graph + effect footprint*: a reference graph over all
      library functions; each function's write footprint on shared
      cells, with the set of spinlocks lexically held at each write or
      call (lock scopes are `with_lock`-shaped critical sections via
      the Multicore shim, matched by the lock's field or binding name).
      Footprints propagate bottom-up: a callee's unguarded writes are
      discharged at call sites that hold the owning lock.

   3. *Contract check* against the attribute vocabulary:
      - [@guarded_by "lock"] on a record field or [@@guarded_by] on a
        toplevel binding: every mutation must lexically hold the named
        lock (rule `unguarded-write`).
      - plain (unannotated) module-level mutable cells must not be
        written on any path reachable from a worker-domain entry point
        — a function referenced inside a closure passed to
        `Multicore.spawn` (rule `racy-global-write`).
      - [@@coordinator_only] functions must be unreachable from worker
        entry points (rule `coordinator-escape`).  So must a toplevel
        handle bound to `Obs.cached_counter _`: calling it reads the
        calling domain's ambient sink, which only the coordinator
        installs.
      - [@@domain_safe] functions must have an empty unguarded write
        footprint and must not reach a coordinator-only function
        (rule `domain-unsafe`).
      - a local bound to a DLS read (`Multicore.Dls.get`, `Obs.global`)
        must not be captured by a closure passed to
        `Multicore.spawn` (rule `dls-capture`).

   Suppression mirrors tool/lint: a comment containing
   "analyze: allow <rule-id>" on the offending source line or the line
   directly above it.  Exit codes: 0 clean, 1 violations, 2 usage or
   read error. *)

open Typedtree

let usage =
  "analyze.exe [--inventory] [--list-rules] [--root DIR] [PATH ...]\n\
   Concurrency-safety analysis over .cmt files (default path: \
   _build/default/lib).\n\
   Exit codes: 0 clean, 1 violations found, 2 usage/read error."

(* ---------- rules --------------------------------------------------------- *)

let rules =
  [
    ( "unguarded-write",
      "mutation of a [@guarded_by]-annotated cell without lexically holding \
       the named lock (with_lock via the Multicore shim)" );
    ( "racy-global-write",
      "write to an unannotated module-level mutable cell on a path reachable \
       from a worker-domain entry point (a function referenced in a closure \
       passed to Multicore.spawn)" );
    ( "coordinator-escape",
      "[@@coordinator_only] function, or Obs.cached_counter handle, \
       reachable from a worker-domain entry point" );
    ( "domain-unsafe",
      "[@@domain_safe] function whose propagated footprint contains an \
       unguarded shared-cell write, or which can reach a \
       [@@coordinator_only] function" );
    ( "dls-capture",
      "domain-local (DLS) value — Multicore.Dls.get, Obs.global — \
       captured by a closure passed to Multicore.spawn; \
       DLS handles must be re-read on the domain that uses them" );
  ]

(* ---------- diagnostics --------------------------------------------------- *)

type diag = { d_file : string; d_line : int; d_col : int; d_rule : string; d_msg : string }

let diags : diag list ref = ref []
let suppressed = ref 0
let units_checked = ref 0
let hard_errors : string list ref = ref []
let root_dir = ref "."

(* Source-line cache for suppression comments; keyed by the relative
   path recorded in the cmt locations. *)
let line_cache : (string, string array) Hashtbl.t = Hashtbl.create 16

let source_lines file =
  match Hashtbl.find_opt line_cache file with
  | Some l -> l
  | None ->
    let path =
      if Filename.is_relative file then Filename.concat !root_dir file
      else file
    in
    let lines =
      match
        if Sys.file_exists path && not (Sys.is_directory path) then (
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let text = really_input_string ic n in
          close_in ic;
          Some (Array.of_list (String.split_on_char '\n' text)))
        else None
      with
      | Some a -> a
      | None -> [||]
    in
    Hashtbl.replace line_cache file lines;
    lines

let suppressed_at file rule line =
  let lines = source_lines file in
  let mark = "analyze: allow " ^ rule in
  let has l =
    l >= 1
    && l <= Array.length lines
    && (let text = lines.(l - 1) in
        let tn = String.length text and mn = String.length mark in
        let rec scan i =
          i + mn <= tn && (String.sub text i mn = mark || scan (i + 1))
        in
        scan 0)
  in
  has line || has (line - 1)

let seen_diags : (string, unit) Hashtbl.t = Hashtbl.create 64

let report ~(loc : Location.t) rule msg =
  let pos = loc.Location.loc_start in
  let file = pos.Lexing.pos_fname in
  let line = pos.Lexing.pos_lnum in
  let col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol in
  let key = Printf.sprintf "%s|%d|%d|%s" file line col rule in
  if not (Hashtbl.mem seen_diags key) then begin
    Hashtbl.replace seen_diags key ();
    if suppressed_at file rule line then incr suppressed
    else
      diags :=
        { d_file = file; d_line = line; d_col = col; d_rule = rule; d_msg = msg }
        :: !diags
  end

(* ---------- names and paths ----------------------------------------------- *)

(* "Core__Search" (the on-disk unit of a wrapped library module) and
   "Core.Search" (how source code and module aliases spell it) must
   compare equal, so every name is normalized to dot form. *)
let normalize name =
  let b = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  Buffer.contents b

let last_two name =
  match List.rev (String.split_on_char '.' name) with
  | f :: m :: _ -> (m, f)
  | [ f ] -> ("", f)
  | [] -> ("", "")

(* Local module aliases (`module S = Search`) are resolved by
   the head ident's unique name, so a path through the alias compares
   equal to the target's own name. *)
let aliases : (string, string) Hashtbl.t = Hashtbl.create 16

let rec path_str p =
  match p with
  | Path.Pident id -> (
    match Hashtbl.find_opt aliases (Ident.unique_name id) with
    | Some target -> target
    | None -> Ident.name id)
  | Path.Pdot (p', s) -> path_str p' ^ "." ^ s
  | Path.Papply (a, _) -> path_str a
  | Path.Pextra_ty (p', _) -> path_str p'

let resolved_name p = normalize (path_str p)

(* ---------- attribute helpers --------------------------------------------- *)

let attr_names =
  List.map (fun (a : Parsetree.attribute) -> a.Parsetree.attr_name.Location.txt)

let has_attr name attrs = List.mem name (attr_names attrs)

let string_payload (a : Parsetree.attribute) =
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          Parsetree.pstr_desc =
            Parsetree.Pstr_eval
              ( {
                  Parsetree.pexp_desc =
                    Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _));
                  _;
                },
                _ );
          _;
        };
      ] ->
    Some s
  | _ -> None

let guard_of_attrs attrs =
  List.fold_left
    (fun acc (a : Parsetree.attribute) ->
      match acc with
      | Some _ -> acc
      | None ->
        if String.equal a.Parsetree.attr_name.Location.txt "guarded_by" then
          string_payload a
        else None)
    None attrs

(* ---------- the model ----------------------------------------------------- *)

type cell_class =
  | Atomic_cell  (* Atomic.t: all access via Atomic ops, always safe *)
  | Dls_key      (* Multicore.Dls.key: domain-local by construction *)
  | Guarded of string  (* [@@guarded_by "lock"] *)
  | Plain        (* unannotated mutable container *)

type cell = {
  cl_name : string;  (* display name, e.g. Shard_tbl.shards *)
  cl_class : cell_class;
  cl_loc : Location.t;
  mutable cl_reads : int;
  mutable cl_writes : int;
}

(* Toplevel cells, addressable by the defining binding's ident (same
   unit) or by normalized qualified name (cross-unit). *)
let cells_by_stamp : (string, cell) Hashtbl.t = Hashtbl.create 64
let cells_by_name : (string, cell) Hashtbl.t = Hashtbl.create 64
let all_cells : cell list ref = ref []

(* Guarded / mutable record fields declared in the scanned units, for
   the inventory listing (checks use the label_description attributes
   present at each use site, so they need no global table). *)
type field_cell = {
  fc_name : string;  (* Unit.type.field *)
  fc_guard : string option;
  fc_mutable : bool;
  fc_loc : Location.t;
}

let field_cells : field_cell list ref = ref []

type write_site = {
  w_cell : string;           (* display name *)
  w_guard : string option;   (* None = plain cell *)
  w_locks : string list;     (* lock names lexically held at the site *)
  w_loc : Location.t;
}

type node = {
  n_name : string;  (* normalized, e.g. Core.Search.register *)
  n_loc : Location.t;
  n_domain_safe : bool;
  n_coordinator_only : bool;
  n_sink_handle : bool;  (* bound to [Obs.cached_counter _] *)
  mutable n_writes : write_site list;
  mutable n_calls : (string * string list) list;  (* callee, locks held *)
}

let nodes : (string, node) Hashtbl.t = Hashtbl.create 256

(* Worker-domain entry points: node names referenced inside an argument
   of Multicore.spawn, with the spawn site for diagnostics. *)
let worker_roots : (string * Location.t) list ref = ref []

(* ---------- per-unit state ------------------------------------------------ *)

let vals_by_stamp : (string, string) Hashtbl.t = Hashtbl.create 256
(* DLS-origin locals: unique ident name -> variable name *)
let dls_origin : (string, string) Hashtbl.t = Hashtbl.create 16

(* ---------- expression classification ------------------------------------- *)

let positional args =
  List.filter_map
    (function Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

(* Flatten an application to (innermost head, all positional args):
   `f @@ x` / `x |> f` pipe heads, and curried partial applications —
   which the typechecker nests, `with_lock l @@ fun () -> …` becoming
   `Texp_apply (Texp_apply (with_lock, [l]), [fun…])` — all normalize
   to the same shape. *)
let rec split_apply head args =
  let pos = positional args in
  match head.exp_desc with
  | Texp_apply (h', args') ->
    let h, p = split_apply h' args' in
    (h, p @ pos)
  | Texp_ident (p, _, _) -> (
    let _, f = last_two (resolved_name p) in
    let piped fn x =
      match fn.exp_desc with
      | Texp_apply (h', a') ->
        let h, p = split_apply h' a' in
        (h, p @ [ x ])
      | _ -> (fn, [ x ])
    in
    match (f, pos) with
    | "@@", [ fn; x ] -> piped fn x
    | "|>", [ x; fn ] -> piped fn x
    | _ -> (head, pos))
  | _ -> (head, pos)

let head_name (h : expression) =
  match h.exp_desc with
  | Texp_ident (p, _, _) -> Some (resolved_name p)
  | _ -> None

let hashtbl_mutators =
  [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]

let buffer_mutators =
  [
    "add_string"; "add_char"; "add_bytes"; "add_substring"; "add_subbytes";
    "add_utf_8_uchar"; "add_channel"; "add_buffer"; "clear"; "reset";
    "truncate";
  ]

let queue_mutators = [ "add"; "push"; "pop"; "take"; "clear"; "transfer" ]

(* Simple names of the modules bound to a [Hashtbl.Make] or
   [Hashtbl.MakeSeeded] application in any unit given to the analyzer,
   whatever they are called ([Cost.Int_tbl], [Query.Plan.Forms]).
   Filled by [prescan_unit] over every unit before the first is
   analyzed, so a unit sees the instances of the units it uses. *)
let table_instances : (string, unit) Hashtbl.t = Hashtbl.create 16

let is_table_module m =
  m = "Hashtbl" || m = "Tbl" || m = "Table"
  || (String.length m >= 3 && String.sub m (String.length m - 3) 3 = "Tbl")
  || Hashtbl.mem table_instances m

(* Whether a call to [name] mutates one of its arguments, and which
   positional argument that is (blit-style copies mutate their third). *)
let mutator_kind name =
  let m, f = last_two name in
  if m = "Atomic" then None (* atomic ops are the safe class *)
  else if f = ":=" then Some 0
  else if (m = "" || m = "Stdlib") && (f = "incr" || f = "decr") then Some 0
  else if is_table_module m && List.mem f hashtbl_mutators then Some 0
  else if m = "Buffer" && List.mem f buffer_mutators then Some 0
  else if m = "Queue" && List.mem f queue_mutators then Some 0
  else if (m = "Array" || m = "Bytes") && (f = "blit" || f = "unsafe_blit")
  then Some 2
  else if (m = "Array" || m = "Bytes") && (f = "set" || f = "unsafe_set" || f = "fill")
  then Some 0
  else None

let is_with_lock name = snd (last_two name) = "with_lock"
let is_spawn name = last_two name = ("Multicore", "spawn")

let is_dls_read name =
  match last_two name with
  | "Dls", "get" | "Obs", "global" -> true
  | _ -> false

(* The name of the lock protecting a critical section, from the first
   argument of with_lock: a record field (`s.lock` -> "lock") or a
   toplevel binding (`rev_lock`). *)
let lock_name (e : expression) =
  match e.exp_desc with
  | Texp_field (_, _, lbl) -> lbl.Types.lbl_name
  | Texp_ident (p, _, _) -> snd (last_two (resolved_name p))
  | _ -> "?"

(* The shared cell (if any) that an lvalue expression addresses: the
   innermost [@guarded_by] field on the access path, else the toplevel
   cell at the base of the path. *)
type target =
  | T_field of string * string  (* label, guard *)
  | T_cell of cell

let rec lvalue_target (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    match p with
    | Path.Pident id -> (
      match Hashtbl.find_opt cells_by_stamp (Ident.unique_name id) with
      | Some c -> Some (T_cell c)
      | None -> None)
    | _ -> (
      match Hashtbl.find_opt cells_by_name (resolved_name p) with
      | Some c -> Some (T_cell c)
      | None -> None))
  | Texp_field (e', _, lbl) -> (
    match guard_of_attrs lbl.Types.lbl_attributes with
    | Some g -> Some (T_field (lbl.Types.lbl_name, g))
    | None -> lvalue_target e')
  | Texp_apply (h, args) -> (
    (* peel `!r` and `a.(i)` down to the root *)
    match head_name h with
    | Some n -> (
      let _, f = last_two n in
      if f = "!" || f = "get" || f = "unsafe_get" then
        match positional args with e' :: _ -> lvalue_target e' | [] -> None
      else None)
    | None -> None)
  | _ -> None

(* ---------- per-unit pass A: collect bindings, aliases, cells, fields ----- *)

(* A record field's declared type arrives wrapped in [Tpoly] (with no
   quantified variables unless the field is polymorphic). *)
let rec container_class (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tpoly (ty, _) -> container_class ty
  | Types.Tconstr (p, _, _) -> (
    match last_two (normalize (Path.name p)) with
    | "Atomic", "t" -> Some Atomic_cell
    | "Dls", "key" -> Some Dls_key
    | _, "ref" -> Some Plain
    | m, "t" when is_table_module m -> Some Plain
    | "Buffer", "t" | "Queue", "t" | "Stack", "t" -> Some Plain
    | _, "array" -> Some Plain
    | _ -> None)
  | _ -> None

let register_cell ~prefix ~name ~loc ~attrs ~ty =
  let guard = guard_of_attrs attrs in
  let cls =
    match (guard, container_class ty) with
    | Some g, _ -> Some (Guarded g)
    | None, Some c -> Some c
    | None, None -> None
  in
  match cls with
  | None -> None
  | Some cl_class ->
    let cell =
      {
        cl_name = prefix ^ "." ^ name;
        cl_class;
        cl_loc = loc;
        cl_reads = 0;
        cl_writes = 0;
      }
    in
    all_cells := cell :: !all_cells;
    Hashtbl.replace cells_by_name cell.cl_name cell;
    Some cell

(* `let x = e` binds via Tpat_var; `let x : t = e` via Tpat_alias over
   Tpat_any — both name a single value. *)
let binding_ident pat =
  match pat.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias ({ pat_desc = Tpat_any; _ }, id, _) -> Some id
  | _ -> None

(* [Obs.cached_counter name] returns a thunk that reads the ambient
   sink through the DLS, out of sight of the call graph: the binding
   itself stands for that read. *)
let sink_handle (e : expression) =
  match e.exp_desc with
  | Texp_apply (head, args) -> (
    match head_name (fst (split_apply head args)) with
    | Some name -> last_two name = ("Obs", "cached_counter")
    | None -> false)
  | _ -> false

let rec collect_structure ~prefix str =
  List.iter (collect_item ~prefix) str.str_items

and collect_item ~prefix si =
  match si.str_desc with
  | Tstr_value (_, vbs) ->
    List.iter
      (fun vb ->
        match binding_ident vb.vb_pat with
        | Some id ->
          let name = Ident.name id in
          let qualified = prefix ^ "." ^ name in
          Hashtbl.replace vals_by_stamp (Ident.unique_name id) qualified;
          let attrs = vb.vb_attributes in
          (match
             register_cell ~prefix ~name ~loc:vb.vb_loc ~attrs
               ~ty:vb.vb_expr.exp_type
           with
          | Some cell ->
            Hashtbl.replace cells_by_stamp (Ident.unique_name id) cell
          | None -> ());
          if not (Hashtbl.mem nodes qualified) then
            Hashtbl.replace nodes qualified
              {
                n_name = qualified;
                n_loc = vb.vb_loc;
                n_domain_safe = has_attr "domain_safe" attrs;
                n_coordinator_only = has_attr "coordinator_only" attrs;
                n_sink_handle = sink_handle vb.vb_expr;
                n_writes = [];
                n_calls = [];
              }
        | None -> ())
      vbs
  | Tstr_module mb -> collect_module ~prefix mb
  | Tstr_recmodule mbs -> List.iter (collect_module ~prefix) mbs
  | Tstr_type (_, decls) ->
    List.iter
      (fun (d : type_declaration) ->
        match d.typ_kind with
        | Ttype_record labels ->
          List.iter
            (fun (l : label_declaration) ->
              let guard = guard_of_attrs l.ld_attributes in
              let is_mut = l.ld_mutable = Asttypes.Mutable in
              let is_container = container_class l.ld_type.ctyp_type <> None in
              if guard <> None || is_mut || is_container then
                field_cells :=
                  {
                    fc_name =
                      Printf.sprintf "%s.%s.%s" prefix
                        d.typ_name.Location.txt l.ld_name.Location.txt;
                    fc_guard = guard;
                    fc_mutable = is_mut;
                    fc_loc = l.ld_loc;
                  }
                  :: !field_cells)
            labels
        | _ -> ())
      decls
  | _ -> ()

and collect_module ~prefix mb =
  let name = match mb.mb_id with Some id -> Ident.name id | None -> "_" in
  let rec strip (me : module_expr) =
    match me.mod_desc with
    | Tmod_constraint (me', _, _, _) -> strip me'
    | d -> d
  in
  match strip mb.mb_expr with
  | Tmod_ident (p, _) -> (
    match mb.mb_id with
    | Some id ->
      Hashtbl.replace aliases (Ident.unique_name id) (resolved_name p)
    | None -> ())
  | Tmod_structure str -> collect_structure ~prefix:(prefix ^ "." ^ name) str
  | _ -> ()

(* ---------- per-unit pass B: analyze bodies ------------------------------- *)

let cur_node : node option ref = ref None
let cur_locks : string list ref = ref []

let note_call name =
  match !cur_node with
  | Some n -> n.n_calls <- (name, !cur_locks) :: n.n_calls
  | None -> ()

let note_write target loc =
  let site =
    match target with
    | T_field (label, guard) ->
      Some { w_cell = label; w_guard = Some guard; w_locks = !cur_locks; w_loc = loc }
    | T_cell c -> (
      c.cl_writes <- c.cl_writes + 1;
      match c.cl_class with
      | Atomic_cell | Dls_key -> None
      | Guarded g ->
        Some { w_cell = c.cl_name; w_guard = Some g; w_locks = !cur_locks; w_loc = loc }
      | Plain ->
        Some { w_cell = c.cl_name; w_guard = None; w_locks = !cur_locks; w_loc = loc })
  in
  match (site, !cur_node) with
  | Some w, Some n -> n.n_writes <- w :: n.n_writes
  | _ -> ()

(* Scan a spawn argument: every known function referenced inside is a
   worker-domain entry point, and a reference to a DLS-origin local
   bound *outside* the argument is a capture that crosses domains. *)
let scan_spawn_arg (arg : expression) spawn_loc =
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let refs : (string * Location.t) list ref = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) self (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
          | Tpat_alias (_, id, _) ->
            Hashtbl.replace bound (Ident.unique_name id) ()
          | _ -> ());
          Tast_iterator.default_iterator.pat self p);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) ->
            refs := (Ident.unique_name id, e.exp_loc) :: !refs
          | Texp_ident (p, _, _) -> (
            let name = resolved_name p in
            match Hashtbl.find_opt nodes name with
            | Some _ -> worker_roots := (name, spawn_loc) :: !worker_roots
            | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it arg;
  List.iter
    (fun (stamp, loc) ->
      (match Hashtbl.find_opt vals_by_stamp stamp with
      | Some name when Hashtbl.mem nodes name ->
        worker_roots := (name, spawn_loc) :: !worker_roots
      | _ -> ());
      match Hashtbl.find_opt dls_origin stamp with
      | Some var when not (Hashtbl.mem bound stamp) ->
        report ~loc "dls-capture"
          (Printf.sprintf
             "`%s` holds a domain-local (DLS) value but is captured by a \
              closure passed to Multicore.spawn; DLS state is per-domain — \
              re-read it (Obs.global (), Multicore.Dls.get) inside the \
              spawned domain instead"
             var)
      | _ -> ())
    !refs

let analyze_iterator =
  let expr (e : expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
      (match Hashtbl.find_opt vals_by_stamp (Ident.unique_name id) with
      | Some name -> note_call name
      | None -> ());
      (match Hashtbl.find_opt cells_by_stamp (Ident.unique_name id) with
      | Some c -> c.cl_reads <- c.cl_reads + 1
      | None -> ())
    | Texp_ident (p, _, _) ->
      let name = resolved_name p in
      note_call name;
      (match Hashtbl.find_opt cells_by_name name with
      | Some c -> c.cl_reads <- c.cl_reads + 1
      | None -> ())
    | Texp_setfield (obj, _, lbl, _) -> (
      match guard_of_attrs lbl.Types.lbl_attributes with
      | Some g -> note_write (T_field (lbl.Types.lbl_name, g)) e.exp_loc
      | None -> (
        match lvalue_target obj with
        | Some t -> note_write t e.exp_loc
        | None -> ()))
    | Texp_apply (head, args) -> (
      let h, pos = split_apply head args in
      match head_name h with
      | None -> ()
      | Some name -> (
        if is_with_lock name then begin
          (* handled below in the recursion override *)
          ()
        end
        else if is_spawn name then
          List.iter (fun a -> scan_spawn_arg a e.exp_loc) pos
        else
          match mutator_kind name with
          | Some idx -> (
            match List.nth_opt pos idx with
            | Some target -> (
              match lvalue_target target with
              | Some t -> note_write t e.exp_loc
              | None -> ())
            | None -> ())
          | None -> ()))
    | _ -> ()
  in
  let rec expr_rec self (e : expression) =
    (* with_lock gets special recursion: the thunk (and any argument
       evaluated after the lock expression) is walked with the lock
       pushed, so writes and calls inside the critical section see it. *)
    let with_lock_parts () =
      match e.exp_desc with
      | Texp_apply (head, args) -> (
        let h, pos = split_apply head args in
        match head_name h with
        | Some name when is_with_lock name -> (
          match pos with
          | lock_arg :: rest when rest <> [] -> Some (name, lock_arg, rest)
          | _ -> None)
        | _ -> None)
      | _ -> None
    in
    match with_lock_parts () with
    | Some (name, lock_arg, rest) ->
      note_call name;
      expr_rec self lock_arg;
      let ln = lock_name lock_arg in
      let saved = !cur_locks in
      cur_locks := ln :: saved;
      List.iter (expr_rec self) rest;
      cur_locks := saved
    | None ->
      expr e;
      Tast_iterator.default_iterator.expr { self with Tast_iterator.expr = expr_rec } e
  in
  let value_binding self vb =
    (match (binding_ident vb.vb_pat, vb.vb_expr.exp_desc) with
    | Some id, Texp_apply (head, args) -> (
      let h, _ = split_apply head args in
      match head_name h with
      | Some name when is_dls_read name ->
        Hashtbl.replace dls_origin (Ident.unique_name id) (Ident.name id)
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.value_binding self vb
  in
  {
    Tast_iterator.default_iterator with
    expr = expr_rec;
    value_binding;
  }

let rec analyze_structure ~prefix str =
  List.iter (analyze_item ~prefix) str.str_items

and analyze_item ~prefix si =
  match si.str_desc with
  | Tstr_value (_, vbs) ->
    List.iter
      (fun vb ->
        let node =
          match binding_ident vb.vb_pat with
          | Some id -> Hashtbl.find_opt nodes (prefix ^ "." ^ Ident.name id)
          | None ->
            (* side-effecting toplevel code: a synthetic, uncallable node *)
            let name =
              Printf.sprintf "%s.<init:%d>" prefix
                vb.vb_loc.Location.loc_start.Lexing.pos_lnum
            in
            let n =
              {
                n_name = name;
                n_loc = vb.vb_loc;
                n_domain_safe = false;
                n_coordinator_only = false;
                n_sink_handle = false;
                n_writes = [];
                n_calls = [];
              }
            in
            Hashtbl.replace nodes name n;
            Some n
        in
        cur_node := node;
        cur_locks := [];
        analyze_iterator.Tast_iterator.expr analyze_iterator vb.vb_expr;
        cur_node := None)
      vbs
  | Tstr_module mb -> analyze_module ~prefix mb
  | Tstr_recmodule mbs -> List.iter (analyze_module ~prefix) mbs
  | _ -> ()

and analyze_module ~prefix mb =
  let name = match mb.mb_id with Some id -> Ident.name id | None -> "_" in
  let rec strip (me : module_expr) =
    match me.mod_desc with
    | Tmod_constraint (me', _, _, _) -> strip me'
    | d -> d
  in
  match strip mb.mb_expr with
  | Tmod_structure str -> analyze_structure ~prefix:(prefix ^ "." ^ name) str
  | _ -> ()

(* ---------- unit driver --------------------------------------------------- *)

let rec strip_constraints (me : module_expr) =
  match me.mod_desc with
  | Tmod_constraint (me', _, _, _) -> strip_constraints me'
  | d -> d

let is_hashtbl_functor (f : module_expr) =
  match strip_constraints f with
  | Tmod_ident (p, _) -> (
    match last_two (normalize (Path.name p)) with
    | "Hashtbl", ("Make" | "MakeSeeded") -> true
    | _ -> false)
  | _ -> false

let rec prescan_structure str =
  List.iter
    (fun si ->
      match si.str_desc with
      | Tstr_module mb -> prescan_module mb
      | Tstr_recmodule mbs -> List.iter prescan_module mbs
      | _ -> ())
    str.str_items

and prescan_module mb =
  match (strip_constraints mb.mb_expr, mb.mb_id) with
  | Tmod_apply (f, _, _), Some id when is_hashtbl_functor f ->
    Hashtbl.replace table_instances (Ident.name id) ()
  | Tmod_structure str, _ -> prescan_structure str
  | _ -> ()

(* Read errors are left to [scan_unit], which reports them. *)
let prescan_unit path =
  match Cmt_format.read_cmt path with
  | exception _ -> ()
  | cmt -> (
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str -> prescan_structure str
    | _ -> ())

let scan_unit path =
  match Cmt_format.read_cmt path with
  | exception Sys_error m ->
    hard_errors := Printf.sprintf "%s: %s" path m :: !hard_errors
  | exception _ ->
    (* a cmt written by a different compiler version, or not a cmt *)
    hard_errors :=
      Printf.sprintf "%s: unreadable cmt (compiler version mismatch?)" path
      :: !hard_errors
  | cmt -> (
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      incr units_checked;
      let prefix = normalize cmt.Cmt_format.cmt_modname in
      Hashtbl.reset vals_by_stamp;
      Hashtbl.reset dls_origin;
      collect_structure ~prefix str;
      analyze_structure ~prefix str
    | _ -> ())

(* ---------- whole-program checks ------------------------------------------ *)

module S = Set.Make (String)

(* Forward reachability over the reference graph from the worker roots. *)
let worker_reachable () =
  let reach : (string, string) Hashtbl.t = Hashtbl.create 64 in
  (* node -> predecessor on a path from a root (roots map to "") *)
  let queue = Queue.create () in
  List.iter
    (fun (root, _) ->
      if not (Hashtbl.mem reach root) then begin
        Hashtbl.replace reach root "";
        Queue.add root queue
      end)
    !worker_roots;
  while not (Queue.is_empty queue) do
    let name = Queue.pop queue in
    match Hashtbl.find_opt nodes name with
    | None -> ()
    | Some n ->
      List.iter
        (fun (callee, _) ->
          if Hashtbl.mem nodes callee && not (Hashtbl.mem reach callee) then begin
            Hashtbl.replace reach callee name;
            Queue.add callee queue
          end)
        n.n_calls
  done;
  reach

let chain_to reach name =
  let rec go acc n =
    match Hashtbl.find_opt reach n with
    | Some "" | None -> n :: acc
    | Some pred -> go (n :: acc) pred
  in
  String.concat " -> " (go [] name)

(* Bottom-up effect footprints: the unguarded writes each function may
   perform, with callee effects discharged at call sites holding the
   owning lock.  Plain-cell writes are never discharged by a lock. *)
let effect_footprints () =
  let effects : (string, write_site list) Hashtbl.t = Hashtbl.create 256 in
  let get n = Option.value ~default:[] (Hashtbl.find_opt effects n) in
  let key w =
    Printf.sprintf "%s|%d" w.w_cell w.w_loc.Location.loc_start.Lexing.pos_lnum
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun name node ->
        let local =
          List.filter
            (fun w ->
              match w.w_guard with
              | Some g -> not (List.mem g w.w_locks)
              | None -> true)
            node.n_writes
        in
        let from_calls =
          List.concat_map
            (fun (callee, locks) ->
              List.filter
                (fun w ->
                  match w.w_guard with
                  | Some g -> not (List.mem g locks)
                  | None -> true)
                (get callee))
            node.n_calls
        in
        let merged =
          List.sort_uniq
            (fun a b -> String.compare (key a) (key b))
            (local @ from_calls)
        in
        if List.length merged <> List.length (get name) then begin
          Hashtbl.replace effects name merged;
          changed := true
        end)
      nodes
  done;
  effects

let coordinator_bound node = node.n_coordinator_only || node.n_sink_handle

(* Reachability to coordinator-only functions, for domain_safe checks. *)
let reaches_coordinator () =
  let reaches : (string, string) Hashtbl.t = Hashtbl.create 64 in
  (* node -> the coordinator-only function it reaches *)
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun name node ->
        if not (Hashtbl.mem reaches name) then begin
          let hit =
            if coordinator_bound node then Some name
            else
              List.find_map
                (fun (callee, _) ->
                  if String.equal callee name then None
                  else
                    match Hashtbl.find_opt nodes callee with
                    | Some c when coordinator_bound c -> Some callee
                    | _ -> Hashtbl.find_opt reaches callee)
                node.n_calls
          in
          match hit with
          | Some target ->
            Hashtbl.replace reaches name target;
            changed := true
          | None -> ()
        end)
      nodes
  done;
  reaches

let run_checks () =
  let reach = worker_reachable () in
  let effects = effect_footprints () in
  let coord = reaches_coordinator () in
  Hashtbl.iter
    (fun name node ->
      (* unguarded-write: lexical lock discipline on guarded cells *)
      List.iter
        (fun w ->
          match w.w_guard with
          | Some g when not (List.mem g w.w_locks) ->
            report ~loc:w.w_loc "unguarded-write"
              (Printf.sprintf
                 "mutation of `%s` guarded by `%s` without holding it \
                  (locks held here: %s); wrap the critical section in \
                  with_lock via the Multicore shim"
                 w.w_cell g
                 (match w.w_locks with
                 | [] -> "none"
                 | ls -> String.concat ", " ls))
          | _ -> ())
        node.n_writes;
      (* racy-global-write: plain cells written on worker-reachable paths *)
      if Hashtbl.mem reach name then
        List.iter
          (fun w ->
            if w.w_guard = None then
              report ~loc:w.w_loc "racy-global-write"
                (Printf.sprintf
                   "write to shared module-level mutable `%s` in `%s`, which \
                    is reachable from a worker domain (%s); make the cell \
                    atomic, guard it with [@@guarded_by] + with_lock, or \
                    confine the write to the coordinator"
                   w.w_cell name (chain_to reach name)))
          node.n_writes;
      (* coordinator-escape *)
      if coordinator_bound node && Hashtbl.mem reach name then
        report ~loc:node.n_loc "coordinator-escape"
          (Printf.sprintf "`%s` is %s but reachable from a worker-domain \
                           entry point: %s"
             name
             (if node.n_sink_handle then
                "an Obs.cached_counter handle, which reads the calling \
                 domain's ambient sink (only the coordinator installs one, so \
                 a worker's counts are lost),"
              else "[@@coordinator_only]")
             (chain_to reach name));
      (* domain-unsafe *)
      if node.n_domain_safe then begin
        (match Hashtbl.find_opt effects name with
        | Some (w :: _) ->
          report ~loc:node.n_loc "domain-unsafe"
            (Printf.sprintf
               "`%s` is declared [@@domain_safe] but its footprint contains \
                an unguarded write to `%s` (%s:%d)"
               name w.w_cell w.w_loc.Location.loc_start.Lexing.pos_fname
               w.w_loc.Location.loc_start.Lexing.pos_lnum)
        | _ -> ());
        match Hashtbl.find_opt coord name with
        | Some target ->
          report ~loc:node.n_loc "domain-unsafe"
            (Printf.sprintf
               "`%s` is declared [@@domain_safe] but can reach \
                [@@coordinator_only] `%s`"
               name target)
        | None -> ()
      end)
    nodes

(* ---------- inventory ----------------------------------------------------- *)

let class_name = function
  | Atomic_cell -> "atomic"
  | Dls_key -> "dls-key"
  | Guarded g -> "guarded-by " ^ g
  | Plain -> "plain"

let print_inventory () =
  let reach = worker_reachable () in
  let pos (loc : Location.t) =
    Printf.sprintf "%s:%d" loc.Location.loc_start.Lexing.pos_fname
      loc.Location.loc_start.Lexing.pos_lnum
  in
  let cells =
    List.sort (fun a b -> String.compare a.cl_name b.cl_name) !all_cells
  in
  Printf.printf "shared-state inventory: %d module-level cell(s), %d field(s)\n"
    (List.length cells)
    (List.length !field_cells);
  List.iter
    (fun c ->
      let writers =
        Hashtbl.fold
          (fun name node acc ->
            if
              List.exists (fun w -> String.equal w.w_cell c.cl_name) node.n_writes
              && Hashtbl.mem reach name
            then name :: acc
            else acc)
          nodes []
      in
      Printf.printf "  %-42s %-18s %s  (%d reads, %d writes%s)\n" c.cl_name
        (class_name c.cl_class) (pos c.cl_loc) c.cl_reads c.cl_writes
        (match writers with
        | [] -> ""
        | ws -> "; worker-reachable writers: " ^ String.concat ", " ws))
    cells;
  let fields =
    List.sort (fun a b -> String.compare a.fc_name b.fc_name) !field_cells
  in
  List.iter
    (fun f ->
      Printf.printf "  %-42s %-18s %s\n" f.fc_name
        (match f.fc_guard with
        | Some g -> "guarded-by " ^ g
        | None -> if f.fc_mutable then "mutable field" else "container field")
        (pos f.fc_loc))
    fields

(* ---------- output -------------------------------------------------------- *)

let print_human ~inventory ordered =
  if inventory then print_inventory ();
  List.iter
    (fun d ->
      Printf.printf "%s:%d:%d: [%s] %s\n" d.d_file d.d_line d.d_col d.d_rule
        d.d_msg)
    ordered;
  Printf.printf "%d unit(s) checked, %d violation(s), %d suppressed\n"
    !units_checked (List.length ordered) !suppressed

let list_rules () =
  List.iter (fun (id, s) -> Printf.printf "%-20s %s\n" id s) rules;
  print_endline
    "\nSuppress one site with a comment on the same line or the line above:\n\
    \  (* analyze: allow <rule-id> -- reason *)"

(* ---------- main ---------------------------------------------------------- *)

let rec walk path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> walk (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

let () =
  let inventory = ref false in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--inventory" :: rest ->
      inventory := true;
      parse_args rest
    | "--list-rules" :: _ ->
      list_rules ();
      exit 0
    | "--root" :: dir :: rest ->
      root_dir := dir;
      parse_args rest
    | ("--help" | "-h") :: _ ->
      print_endline usage;
      exit 0
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      prerr_endline ("analyze: unknown option " ^ arg);
      prerr_endline usage;
      exit 2
    | path :: rest ->
      paths := path :: !paths;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let paths =
    match List.rev !paths with [] -> [ "_build/default/lib" ] | ps -> ps
  in
  let cmts =
    List.concat_map
      (fun p ->
        if not (Sys.file_exists p) then begin
          prerr_endline ("analyze: no such path: " ^ p);
          exit 2
        end;
        List.rev (walk p []))
      paths
  in
  if cmts = [] then begin
    prerr_endline
      "analyze: no .cmt files found (run `dune build` first; cmt files live \
       under _build/default/**/.objs/byte/)";
    exit 2
  end;
  List.iter prescan_unit cmts;
  List.iter scan_unit cmts;
  List.iter prerr_endline !hard_errors;
  if !hard_errors <> [] then exit 2;
  run_checks ();
  let ordered =
    List.sort
      (fun a b ->
        let c = String.compare a.d_file b.d_file in
        if c <> 0 then c else Int.compare a.d_line b.d_line)
      !diags
  in
  print_human ~inventory:!inventory ordered;
  exit (if ordered = [] then 0 else 1)
