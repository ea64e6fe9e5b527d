type form_id = { hi : int; lo : int }

(* The form ids are memoized in plain mutable option fields rather
   than Lazy.t: parallel search domains share view objects across
   sibling states, and concurrently forcing a lazy from two domains
   raises Lazy.Undefined.  The computations are deterministic, so a racy
   duplicate computation writes an equal value twice — benign — while a
   lazy would crash.  The transition memos follow the same convention
   (see view.mli). *)
type t = {
  id : int;
  cq : Query.Cq.t;
  constants : int;
  mutable iid : form_id option;
  mutable body_iid : form_id option;
  mutable vb : action list option;
  mutable sc : action list option;
  mutable jc : action list option;
  mutable fusions : (int * fusion) list;
}

and action = t list * Rewriting.t

and fusion = { v3 : t; expr1 : Rewriting.t; expr2 : Rewriting.t }

type replacement = VB | SC | JC

let counter = Atomic.make 0

let defect cq =
  let head_names = List.filter_map Query.Qterm.var_name cq.Query.Cq.head in
  if not (Query.Cq.is_connected cq) then Some "body is a Cartesian product"
  else if List.length head_names <> List.length cq.Query.Cq.head then
    Some "head holds a constant"
  else if List.length (List.sort_uniq String.compare head_names)
          <> List.length head_names
  then Some "head repeats a variable"
  else None

let validate who cq =
  match defect cq with
  | Some reason ->
    invalid_arg ("View." ^ who ^ ": " ^ reason ^ ": " ^ Query.Cq.to_string cq)
  | None -> ()

let wrap id cq =
  {
    id;
    cq;
    constants = Query.Cq.constant_count cq;
    iid = None;
    body_iid = None;
    vb = None;
    sc = None;
    jc = None;
    fusions = [];
  }

let fresh_id () = Atomic.fetch_and_add counter 1 + 1

let make cq =
  validate "make" cq;
  let id = fresh_id () in
  wrap id (Query.Cq.rename cq (Printf.sprintf "v%d" id))

let of_cq cq =
  validate "of_cq" cq;
  wrap (fresh_id ()) cq

let name v = v.cq.Query.Cq.name

let head v = v.cq.Query.Cq.head

let columns v =
  List.filter_map Query.Qterm.var_name v.cq.Query.Cq.head

let atom_count v = Query.Cq.atom_count v.cq

(* The 128-bit MD5 digest of the form, read as two little-endian 64-bit
   words; [Int64.to_int] keeps the low 63 bits of each. *)
let form_id_of_string form =
  let d = Digest.string form in
  {
    hi = Int64.to_int (String.get_int64_le d 0);
    lo = Int64.to_int (String.get_int64_le d 8);
  }

let equal_form_id a b = a.hi = b.hi && a.lo = b.lo

let compare_form_id a b =
  match Int.compare a.hi b.hi with 0 -> Int.compare a.lo b.lo | c -> c

let form_id v =
  match v.iid with
  | Some i -> i
  | None ->
    let i = form_id_of_string (Query.Cq.canonical_head_set_string v.cq) in
    v.iid <- Some i;
    i

let body_id v =
  match v.body_iid with
  | Some i -> i
  | None ->
    let i = form_id_of_string (Query.Cq.canonical_body_string v.cq) in
    v.body_iid <- Some i;
    i

let actions v kind derive =
  match (match kind with VB -> v.vb | SC -> v.sc | JC -> v.jc) with
  | Some acts -> acts
  | None ->
    let acts = derive v in
    let memo = Some acts in
    (match kind with
    | VB -> v.vb <- memo
    | SC -> v.sc <- memo
    | JC -> v.jc <- memo);
    acts

let fusion v1 v2 derive =
  match List.find_opt (fun (id, _) -> id = v2.id) v1.fusions with
  | Some (_, f) -> f
  | None ->
    let f = derive v1 v2 in
    v1.fusions <- (v2.id, f) :: v1.fusions;
    f

let to_string v = Query.Cq.to_string v.cq
