type key = { ids : int array; lo : int; khash : int }

type t = {
  views : View.t list;
  rewritings : (string * Rewriting.t) list;
  mutable ident : key option;  (* cached structural key; never observable *)
}

let make ~views ~rewritings = { views; rewritings; ident = None }

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

(* In place, ascending.  Up to several hundred views, an insertion sort
   on unboxed ints is faster than Array.sort's heap sort with its
   comparison closure; at a few dozen, about ten times faster. *)
let sort_ids (ids : int array) =
  for i = 1 to Array.length ids - 1 do
    let x = ids.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && ids.(!j) > x do
      ids.(!j + 1) <- ids.(!j);
      decr j
    done;
    ids.(!j + 1) <- x
  done

(* Writes the high halves of the views' ids from [ids.(i)] on and
   returns [lo] plus the sum of their low halves. *)
let rec fill_ids ids i lo = function
  | [] -> lo
  | v :: rest ->
    let f = View.form_id v in
    ids.(i) <- f.View.hi;
    fill_ids ids (i + 1) (lo + f.View.lo) rest

(* The high halves of the view ids, sorted, and the sum of their low
   halves, which no order changes.  The key carries both halves of every
   id, yet sorts and stores one int per view: two distinct view sets get
   equal keys only if a collision of two distinct forms' high halves
   meets a collision of the low sums.  FNV-1a over the sorted high
   halves, the same mixing as Rdf.Term.hash, is the hash; the sorted
   array makes the key order-insensitive, as §3.1's set semantics
   requires. *)
let key t =
  match t.ident with
  | Some k -> k
  | None ->
    let ids = Array.make (List.length t.views) 0 in
    let lo = fill_ids ids 0 0 t.views in
    sort_ids ids;
    let h = ref 0x811c9dc5 in
    Array.iter (fun id -> h := (!h lxor id) * 0x01000193 land max_int) ids;
    let k = { ids; lo; khash = !h } in
    t.ident <- Some k;
    k

let equal_key a b =
  a.khash = b.khash
  && a.lo = b.lo
  && Array.length a.ids = Array.length b.ids
  && (let n = Array.length a.ids in
      let rec eq i = i = n || (a.ids.(i) = b.ids.(i) && eq (i + 1)) in
      eq 0)

let hash_key k = k.khash

let key_to_string k =
  String.concat "." (Array.to_list (Array.map (Printf.sprintf "%016x") k.ids))
  ^ Printf.sprintf "/%016x" k.lo

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
