(* The hexastore-style layout Store used to implement inline: index
   buckets are growable arrays of packed [s; p; o] triples, kept under
   Hashtbls for every column and column pair, so [count1]/[count2] are
   O(1) (the paper's §3.3 exact-count assumption) and the compiled
   executor (Query.Plan) walks a bucket by direct int reads with no
   per-triple allocation.  Deletion is a single swap-remove pass. *)

type bucket = { mutable data : int array; mutable n : int }

let empty_scan = ([||] : int array)

let bucket_create s p o =
  let data = Array.make 12 0 in
  data.(0) <- s;
  data.(1) <- p;
  data.(2) <- o;
  { data; n = 1 }

let bucket_push b s p o =
  let base = 3 * b.n in
  if base = Array.length b.data then begin
    let bigger = Array.make (2 * base) 0 in
    Array.blit b.data 0 bigger 0 base;
    b.data <- bigger
  end;
  b.data.(base) <- s;
  b.data.(base + 1) <- p;
  b.data.(base + 2) <- o;
  b.n <- b.n + 1

(* Swap-remove: overwrite the victim with the last triple.  One scan,
   no allocation, no recount. *)
let bucket_delete b s p o =
  let n = b.n in
  let data = b.data in
  let rec find i =
    if i >= n then ()
    else if data.(3 * i) = s && data.((3 * i) + 1) = p && data.((3 * i) + 2) = o
    then begin
      let last = 3 * (n - 1) in
      data.(3 * i) <- data.(last);
      data.((3 * i) + 1) <- data.(last + 1);
      data.((3 * i) + 2) <- data.(last + 2);
      b.n <- n - 1
    end
    else find (i + 1)
  in
  find 0

type index = (int, bucket) Hashtbl.t

type t = {
  all : (int * int * int, int) Hashtbl.t;  (* triple -> its row in [triples] *)
  triples : bucket;  (* every triple, for all-wildcard scans *)
  idx_s : index;
  idx_p : index;
  idx_o : index;
  idx_sp : index;
  idx_so : index;
  idx_po : index;
}

let create () =
  {
    all = Hashtbl.create 4096;
    triples = { data = Array.make 12 0; n = 0 };
    idx_s = Hashtbl.create 1024;
    idx_p = Hashtbl.create 64;
    idx_o = Hashtbl.create 1024;
    idx_sp = Hashtbl.create 1024;
    idx_so = Hashtbl.create 1024;
    idx_po = Hashtbl.create 1024;
  }

(* Codes fit comfortably in 31 bits at any scale we run; pack pairs into a
   single int key. *)
let pair_key a b = (a lsl 31) lor b

let bucket_add idx key s p o =
  match Hashtbl.find_opt idx key with
  | Some b -> bucket_push b s p o
  | None -> Hashtbl.add idx key (bucket_create s p o)

let bucket_remove idx key s p o =
  match Hashtbl.find_opt idx key with
  | None -> ()
  | Some b ->
    bucket_delete b s p o;
    if b.n = 0 then Hashtbl.remove idx key

let add t s p o =
  let triple = (s, p, o) in
  if Hashtbl.mem t.all triple then false
  else begin
    Hashtbl.add t.all triple t.triples.n;
    bucket_push t.triples s p o;
    bucket_add t.idx_s s s p o;
    bucket_add t.idx_p p s p o;
    bucket_add t.idx_o o s p o;
    bucket_add t.idx_sp (pair_key s p) s p o;
    bucket_add t.idx_so (pair_key s o) s p o;
    bucket_add t.idx_po (pair_key p o) s p o;
    true
  end

(* The all-triples bucket is as large as the store, so its removal
   does not scan: [all] records each triple's row, and the swap-remove
   moves the last row into the hole (the same order [bucket_delete]
   leaves) and re-points that row's entry. *)
let remove_row t i =
  let b = t.triples in
  let last = b.n - 1 in
  if i <> last then begin
    let d = b.data in
    let s = d.(3 * last) and p = d.((3 * last) + 1) and o = d.((3 * last) + 2) in
    d.(3 * i) <- s;
    d.((3 * i) + 1) <- p;
    d.((3 * i) + 2) <- o;
    Hashtbl.replace t.all (s, p, o) i
  end;
  b.n <- last

let remove t s p o =
  let triple = (s, p, o) in
  match Hashtbl.find_opt t.all triple with
  | None -> false
  | Some i ->
    Hashtbl.remove t.all triple;
    remove_row t i;
    bucket_remove t.idx_s s s p o;
    bucket_remove t.idx_p p s p o;
    bucket_remove t.idx_o o s p o;
    bucket_remove t.idx_sp (pair_key s p) s p o;
    bucket_remove t.idx_so (pair_key s o) s p o;
    bucket_remove t.idx_po (pair_key p o) s p o;
    true

let mem t s p o = Hashtbl.mem t.all (s, p, o)
let size t = t.triples.n

let index_of_column t = function
  | `S -> t.idx_s
  | `P -> t.idx_p
  | `O -> t.idx_o

let index_of_pair t = function
  | `SP -> t.idx_sp
  | `SO -> t.idx_so
  | `PO -> t.idx_po

let count_bucket = function Some b -> b.n | None -> 0
let count1 t col code = count_bucket (Hashtbl.find_opt (index_of_column t col) code)

let count2 t cols a b =
  count_bucket (Hashtbl.find_opt (index_of_pair t cols) (pair_key a b))

(* Scans return the live bucket storage: zero-copy, and stable under
   further scans (only mutation rewrites a bucket). *)
let scan_all t = (t.triples.data, t.triples.n)

let scan_bucket = function
  | Some b -> (b.data, b.n)
  | None -> (empty_scan, 0)

let scan1 t col code = scan_bucket (Hashtbl.find_opt (index_of_column t col) code)

let scan2 t cols a b =
  scan_bucket (Hashtbl.find_opt (index_of_pair t cols) (pair_key a b))

let fold_all t f init = Hashtbl.fold (fun triple _ acc -> f triple acc) t.all init
let distinct_in_column t col = Hashtbl.length (index_of_column t col)

let fold_column_codes t col f init =
  Hashtbl.fold (fun code _ acc -> f code acc) (index_of_column t col) init

(* Estimated live bytes of the index structures (dictionary excluded:
   it is shared Store state).  Hashtbl internals are modelled as one
   word per slot plus a 4-word Cons per binding; [all]'s tuple keys
   are 4 boxed words each. *)
let resident_bytes t =
  let bucket_words b = 4 + Array.length b.data in
  let index_words idx =
    let st = Hashtbl.stats idx in
    Hashtbl.fold (fun _ b acc -> acc + bucket_words b) idx
      (st.Hashtbl.num_buckets + (4 * st.Hashtbl.num_bindings))
  in
  let all_st = Hashtbl.stats t.all in
  let words =
    all_st.Hashtbl.num_buckets
    + (8 * all_st.Hashtbl.num_bindings)
    + bucket_words t.triples
    + index_words t.idx_s + index_words t.idx_p + index_words t.idx_o
    + index_words t.idx_sp + index_words t.idx_so + index_words t.idx_po
  in
  8 * words

let compact _ = ()
