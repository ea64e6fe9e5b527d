(* The interned ids are memoized in plain mutable option fields rather
   than Lazy.t: parallel search domains share view objects across
   sibling states, and concurrently forcing a lazy from two domains
   raises Lazy.Undefined.  The computations are deterministic and
   Interning.of_canonical is idempotent, so a racy duplicate computation
   writes the same value twice — benign — while a lazy would crash. *)
type t = {
  id : int;
  cq : Query.Cq.t;
  constants : int;
  mutable iid : Interning.id option;
  mutable body_iid : Interning.id option;
}

let counter = Atomic.make 0

let defect cq =
  if not (Query.Cq.is_connected cq) then Some "body is a Cartesian product"
  else
    let head_names = List.filter_map Query.Qterm.var_name cq.Query.Cq.head in
    if List.length (List.sort_uniq String.compare head_names)
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

let intern_id v =
  match v.iid with
  | Some i -> i
  | None ->
    let i = Interning.of_canonical (Query.Cq.canonical_head_set_string v.cq) in
    v.iid <- Some i;
    i

let body_intern_id v =
  match v.body_iid with
  | Some i -> i
  | None ->
    let i = Interning.of_canonical (Query.Cq.canonical_body_string v.cq) in
    v.body_iid <- Some i;
    i

(* coordinator_only: callers must know no other domain is making views. *)
let reset_counter () = Atomic.set counter 0 [@@coordinator_only]

let to_string v = Query.Cq.to_string v.cq
