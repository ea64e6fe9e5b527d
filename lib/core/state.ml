type key = { ids : int array; khash : int }

type t = {
  views : View.t list;
  rewritings : (string * Rewriting.t) list;
  serial : int;
  mutable ident : key option;  (* cached structural key; never observable *)
}

(* Atomic: parallel search builds states on every domain. *)
let serials = Atomic.make 0

let make ~views ~rewritings =
  { views; rewritings; serial = Atomic.fetch_and_add serials 1; ident = None }

let check_distinct_names queries =
  let names = List.map (fun q -> q.Query.Cq.name) queries in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "State.initial: duplicate query names"

let initial queries =
  check_distinct_names queries;
  let entries =
    List.map
      (fun q ->
        let view = View.make (Query.Cq.freshen q) in
        (view, (q.Query.Cq.name, Rewriting.Scan (View.name view))))
      queries
  in
  make ~views:(List.map fst entries) ~rewritings:(List.map snd entries)

let initial_union groups =
  let entries =
    List.map
      (fun (qname, disjuncts) ->
        if disjuncts = [] then invalid_arg "State.initial_union: empty group";
        let views =
          List.map (fun d -> View.make (Query.Cq.freshen d)) disjuncts
        in
        let branches = List.map (fun v -> Rewriting.Scan (View.name v)) views in
        let expr =
          match branches with [ single ] -> single | _ -> Rewriting.Union branches
        in
        (views, (qname, expr)))
      groups
  in
  make
    ~views:(List.concat_map fst entries)
    ~rewritings:(List.map snd entries)

let env t =
  let table = Hashtbl.create (List.length t.views) in
  List.iter (fun v -> Hashtbl.replace table (View.name v) (View.columns v)) t.views;
  table

(* FNV-1a over the sorted id multiset, the same mixing as Rdf.Term.hash.
   The sorted array makes the key order-insensitive: two states with the
   same views in any order collide, as §3.1's set semantics requires. *)
let key t =
  match t.ident with
  | Some k -> k
  | None ->
    let ids = Array.of_list (List.map View.intern_id t.views) in
    Array.sort Int.compare ids;
    let h = ref 0x811c9dc5 in
    Array.iter (fun id -> h := (!h lxor id) * 0x01000193 land max_int) ids;
    let k = { ids; khash = !h } in
    t.ident <- Some k;
    k

let equal_key a b =
  a.khash = b.khash
  && Array.length a.ids = Array.length b.ids
  && (let n = Array.length a.ids in
      let rec eq i = i = n || (a.ids.(i) = b.ids.(i) && eq (i + 1)) in
      eq 0)

let hash_key k = k.khash

let key_to_string k =
  String.concat "." (Array.to_list (Array.map string_of_int k.ids))

let key_string t = key_to_string (key t)

module Tbl = Hashtbl.Make (struct
  type nonrec t = key

  let equal = equal_key
  let hash = hash_key
end)

let find_view t name =
  List.find_opt (fun v -> String.equal (View.name v) name) t.views

(* View names are process-unique ("v<id>"), so name equality identifies
   the victim exactly — including across State_io reloads, where the
   physical identity the old ==-based filter relied on does not
   survive.  Only the rewritings that actually scan the victim are
   substituted; the untouched ones are shared with the parent, which is
   what makes the reported delta's [rewritings_touched] exact. *)
let replace_view t ~victim ~replacements ~expression =
  let vname = View.name victim in
  let views =
    replacements
    @ List.filter (fun v -> not (String.equal (View.name v) vname)) t.views
  in
  let touched = ref [] in
  let rewritings =
    List.map
      (fun (q, r) ->
        if Rewriting.mentions vname r then begin
          touched := q :: !touched;
          (q, Rewriting.substitute vname expression r)
        end
        else (q, r))
      t.rewritings
  in
  ( make ~views ~rewritings,
    {
      Delta.views_removed = [ victim ];
      views_added = replacements;
      rewritings_touched = List.rev !touched;
    } )

let structural_violations t =
  let env = env t in
  let problems = ref [] in
  let note p = problems := p :: !problems in
  let names = List.map View.name t.views in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then note "duplicate view name";
  List.iter
    (fun (q, r) ->
      if not (Rewriting.well_formed env r) then
        note
          (Printf.sprintf "rewriting of %s is ill-formed: %s" q
             (Rewriting.to_string r));
      List.iter
        (fun v ->
          if not (Hashtbl.mem env v) then
            note
              (Printf.sprintf "rewriting of %s scans unknown view %s" q v))
        (Rewriting.views_used r))
    t.rewritings;
  let used =
    List.concat_map (fun (_, r) -> Rewriting.views_used r) t.rewritings
  in
  List.iter
    (fun v ->
      if not (List.mem (View.name v) used) then
        note (Printf.sprintf "view %s used by no rewriting" (View.name v)))
    t.views;
  List.iter
    (fun v ->
      if not (Query.Cq.is_connected v.View.cq) then
        note
          (Printf.sprintf "view %s has a Cartesian product: %s" (View.name v)
             (View.to_string v)))
    t.views;
  List.rev !problems

let invariants_hold t = structural_violations t = []

let to_string t =
  let views = String.concat "\n  " (List.map View.to_string t.views) in
  let rewritings =
    String.concat "\n  "
      (List.map (fun (q, r) -> q ^ " = " ^ Rewriting.to_string r) t.rewritings)
  in
  "views:\n  " ^ views ^ "\nrewritings:\n  " ^ rewritings

let pp fmt t = Format.pp_print_string fmt (to_string t)
