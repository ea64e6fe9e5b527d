type encoded = int * int * int

type pattern = { ps : int option; pp : int option; po : int option }

(* Index telemetry (hooked to the ambient Obs sink; free when disabled).
   A "probe" is an exact count lookup; a scan adds the triples it
   enumerates to [store.scanned_triples]. *)
let obs_count_probes = Obs.cached_counter "store.count_probes"
let obs_scanned = Obs.cached_counter "store.scanned_triples"

(* Both backends must satisfy the common signature — the dispatch
   below is a variant match (no functor at every call site), but the
   contract is machine-checked here. *)
module _ : Backend.S = Hash_backend
module _ : Backend.S = Compact_backend

type repr = Hash of Hash_backend.t | Compact of Compact_backend.t

type cache = ..

type t = {
  id : int;
  dict : Dictionary.t;
  repr : repr;
  mutable version : int;
      (* bumped on every successful add/remove; read only by tests, as a
         witness that a read did not write *)
  mutable caches : cache list;  (* at most one per upper layer *)
}

(* Atomic: a store may be created on any domain, and ids must stay
   unique because a compiled plan checks its store by id. *)
let next_id = Atomic.make 0

let with_dict ~backend dict =
  let id = Atomic.fetch_and_add next_id 1 in
  let repr =
    match backend with
    | Backend.Hash -> Hash (Hash_backend.create ())
    | Backend.Compact -> Compact (Compact_backend.create ())
  in
  { id; dict; repr; version = 0; caches = [] }

let create ?(backend = Backend.Hash) () = with_dict ~backend (Dictionary.create ())

let id t = t.id
let version t = t.version
let backend t = match t.repr with Hash _ -> Backend.Hash | Compact _ -> Backend.Compact
let find_cache t f = List.find_map f t.caches
let add_cache t c = t.caches <- c :: t.caches
let dict_size t = Dictionary.size t.dict
let encode_term t term = Dictionary.encode t.dict term
let find_term t term = Dictionary.find t.dict term
let decode_term t code = Dictionary.decode t.dict code

let add_encoded t (s, p, o) =
  let added =
    match t.repr with
    | Hash h -> Hash_backend.add h s p o
    | Compact c -> Compact_backend.add c s p o
  in
  if added then t.version <- t.version + 1;
  added

let encode_triple t (tr : Triple.t) =
  (encode_term t tr.Triple.s, encode_term t tr.Triple.p, encode_term t tr.Triple.o)

let add t tr = add_encoded t (encode_triple t tr)

let remove_encoded t (s, p, o) =
  let removed =
    match t.repr with
    | Hash h -> Hash_backend.remove h s p o
    | Compact c -> Compact_backend.remove c s p o
  in
  if removed then t.version <- t.version + 1;
  removed

let remove t (tr : Triple.t) =
  match (find_term t tr.Triple.s, find_term t tr.Triple.p, find_term t tr.Triple.o) with
  | Some s, Some p, Some o -> remove_encoded t (s, p, o)
  | _ -> false

let mem_encoded t (s, p, o) =
  match t.repr with
  | Hash h -> Hash_backend.mem h s p o
  | Compact c -> Compact_backend.mem c s p o

let mem t (tr : Triple.t) =
  match (find_term t tr.Triple.s, find_term t tr.Triple.p, find_term t tr.Triple.o) with
  | Some s, Some p, Some o -> mem_encoded t (s, p, o)
  | _ -> false

let size t =
  match t.repr with
  | Hash h -> Hash_backend.size h
  | Compact c -> Compact_backend.size c

let fold_all t f init =
  match t.repr with
  | Hash h -> Hash_backend.fold_all h f init
  | Compact c -> Compact_backend.fold_all c f init

(* ---------- raw scans for the compiled executor -------------------------- *)

(* The executor (Query.Plan) walks scan results by direct [int array]
   reads: no tuple per triple, no closure per step.  The hash backend
   returns its live bucket storage, the compact backend a fresh
   exactly-sized array; both stay valid across nested scans.  Treat
   them as read-only, and do not mutate the store while iterating. *)

let scan_all t =
  let ((_, n) as r) =
    match t.repr with
    | Hash h -> Hash_backend.scan_all h
    | Compact c -> Compact_backend.scan_all c
  in
  Obs.add (obs_scanned ()) n;
  r

let scan1 t col code =
  let ((_, n) as r) =
    match t.repr with
    | Hash h -> Hash_backend.scan1 h col code
    | Compact c -> Compact_backend.scan1 c col code
  in
  Obs.add (obs_scanned ()) n;
  r

let scan2 t cols a b =
  let ((_, n) as r) =
    match t.repr with
    | Hash h -> Hash_backend.scan2 h cols a b
    | Compact c -> Compact_backend.scan2 c cols a b
  in
  Obs.add (obs_scanned ()) n;
  r

(* ---------- pattern interface --------------------------------------------- *)

(* Newest-first enumeration over scan results preserves the order of
   the former cons-list buckets on the hash backend, which downstream
   consumers (workload generation in particular) rely on for
   reproducibility. *)
let fold_scan (data, n) f init =
  let acc = ref init in
  for i = n - 1 downto 0 do
    acc := f (data.(3 * i), data.((3 * i) + 1), data.((3 * i) + 2)) !acc
  done;
  !acc

let fold_matching t pat f init =
  match pat with
  | { ps = None; pp = None; po = None } ->
    Obs.add (obs_scanned ()) (size t);
    fold_all t f init
  | { ps = Some s; pp = Some p; po = Some o } ->
    Obs.incr (obs_scanned ());
    if mem_encoded t (s, p, o) then f (s, p, o) init else init
  | { ps = Some s; pp = Some p; po = None } -> fold_scan (scan2 t `SP s p) f init
  | { ps = Some s; pp = None; po = Some o } -> fold_scan (scan2 t `SO s o) f init
  | { ps = None; pp = Some p; po = Some o } -> fold_scan (scan2 t `PO p o) f init
  | { ps = Some s; pp = None; po = None } -> fold_scan (scan1 t `S s) f init
  | { ps = None; pp = Some p; po = None } -> fold_scan (scan1 t `P p) f init
  | { ps = None; pp = None; po = Some o } -> fold_scan (scan1 t `O o) f init

let iter_matching t pat f = fold_matching t pat (fun tr () -> f tr) ()

let count_matching t pat =
  Obs.incr (obs_count_probes ());
  match pat with
  | { ps = None; pp = None; po = None } -> size t
  | { ps = Some s; pp = Some p; po = Some o } ->
    if mem_encoded t (s, p, o) then 1 else 0
  | { ps = Some s; pp = Some p; po = None } -> (
    match t.repr with
    | Hash h -> Hash_backend.count2 h `SP s p
    | Compact c -> Compact_backend.count2 c `SP s p)
  | { ps = Some s; pp = None; po = Some o } -> (
    match t.repr with
    | Hash h -> Hash_backend.count2 h `SO s o
    | Compact c -> Compact_backend.count2 c `SO s o)
  | { ps = None; pp = Some p; po = Some o } -> (
    match t.repr with
    | Hash h -> Hash_backend.count2 h `PO p o
    | Compact c -> Compact_backend.count2 c `PO p o)
  | { ps = Some s; pp = None; po = None } -> (
    match t.repr with
    | Hash h -> Hash_backend.count1 h `S s
    | Compact c -> Compact_backend.count1 c `S s)
  | { ps = None; pp = Some p; po = None } -> (
    match t.repr with
    | Hash h -> Hash_backend.count1 h `P p
    | Compact c -> Compact_backend.count1 c `P p)
  | { ps = None; pp = None; po = Some o } -> (
    match t.repr with
    | Hash h -> Hash_backend.count1 h `O o
    | Compact c -> Compact_backend.count1 c `O o)

let matching t pat = fold_matching t pat (fun tr acc -> tr :: acc) []

(* ---------- column statistics --------------------------------------------- *)

let distinct_in_column t col =
  match t.repr with
  | Hash h -> Hash_backend.distinct_in_column h col
  | Compact c -> Compact_backend.distinct_in_column c col

let fold_column_codes t col f init =
  match t.repr with
  | Hash h -> Hash_backend.fold_column_codes h col f init
  | Compact c -> Compact_backend.fold_column_codes c col f init

let column_codes t col = fold_column_codes t col (fun code acc -> code :: acc) []

(* ---------- lifecycle ------------------------------------------------------ *)

(* The copy keeps every code: the dictionary is copied whole and each
   triple is added as the same codes. *)
let copy t =
  let fresh = with_dict ~backend:(backend t) (Dictionary.copy t.dict) in
  fold_all t (fun tr () -> ignore (add_encoded fresh tr)) ();
  fresh

let of_triples triples =
  let t = create () in
  List.iter (fun tr -> ignore (add t tr)) triples;
  t

let to_triples t =
  fold_all t
    (fun (s, p, o) acc ->
      { Triple.s = decode_term t s; p = decode_term t p; o = decode_term t o }
      :: acc)
    []

(* ---------- backend controls ----------------------------------------------- *)

let compact t =
  match t.repr with
  | Hash h -> Hash_backend.compact h
  | Compact c -> Compact_backend.compact c

let resident_bytes t =
  match t.repr with
  | Hash h -> Hash_backend.resident_bytes h
  | Compact c -> Compact_backend.resident_bytes c
