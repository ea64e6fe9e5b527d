(* The hexastore-style layout, over Rowset's open-addressed int
   tables.  Every triple sits once in [set], a width-3 Rowset
   (packed [s; p; o] rows whose slots hold each triple's row), probed
   through the set's own key row, and once in a bucket of each of six
   indexes, keyed by its column or column pair (a [Rowset.Buckets]: a
   width-1 Rowset of keys whose rows address their buckets), so
   [count1]/[count2] are one probe (the paper's §3.3 exact-count
   assumption) and the compiled executor (Query.Plan) walks a bucket by
   direct int reads with no per-triple allocation.  [rows], parallel to
   [set], records each triple's row in its six buckets, so deletion
   swap-removes by row and scans nothing.

   A store is unindexed until its first index read: [add] writes [set]
   only, and the first operation that reads an index ([sync]) pushes
   every row into index 0, then into index 1, and so on, in row order,
   so a bulk load fills one table at a time.  From then on the store is
   indexed and [add] pushes each new row into its six buckets at once,
   through the same loop.  [mem], [size], [scan_all] and [fold_all]
   read [set] alone and never index.  Bucket order is the set's row
   order at the first read, then add order, with removes moving a
   bucket's last row into the hole.  A read may write: one domain at a
   time reads a store (CONCURRENCY.md). *)

let n_indexes = 6

type t = {
  set : Rowset.t;
  mutable rows : int array;
      (* stride 6: once [indexed], the triple at row r of [set] sits at
         row [rows.(6r + k)] of its bucket in [idx.(k)] *)
  idx : Rowset.Buckets.t array;  (* keyed by s, p, o, sp, so, po *)
  mutable indexed : bool;  (* every row of [set] is in every index; else none is *)
}

let create () =
  {
    set = Rowset.of_width 3 0;
    rows = Array.make (n_indexes * 4) 0;
    idx = Array.init n_indexes (fun _ -> Rowset.Buckets.create ());
    indexed = false;
  }

let pair_key = Rowset.Buckets.pair_key

let key k s p o =
  match k with
  | 0 -> s
  | 1 -> p
  | 2 -> o
  | 3 -> pair_key s p
  | 4 -> pair_key s o
  | _ -> pair_key p o

let find t s p o = Rowset.find t.set (Rowset.key3 t.set s p o)
let mem t s p o = find t s p o >= 0
let size t = Rowset.cardinal t.set

(* Room in [rows] for [n] rows, doubling as an add per row would. *)
let grow t n =
  let len = ref (Array.length t.rows) in
  while !len < n_indexes * n do
    len := 2 * !len
  done;
  let bigger = Array.make !len 0 in
  Array.blit t.rows 0 bigger 0 (Array.length t.rows);
  t.rows <- bigger

(* Push rows [from, size) of [set] into the six indexes, one index at
   a time and each in row order: every row at the first read, and each
   new row of an indexed store. *)
let index_from t from =
  let n = size t in
  if Array.length t.rows < n_indexes * n then grow t n;
  let d = Rowset.data t.set in
  for k = 0 to n_indexes - 1 do
    let b = t.idx.(k) in
    for r = from to n - 1 do
      let s = d.(3 * r) and p = d.((3 * r) + 1) and o = d.((3 * r) + 2) in
      t.rows.((n_indexes * r) + k) <- Rowset.Buckets.push b (key k s p o) s p o
    done
  done

(* The first index read.  A store's reads are the coordinator's
   (CONCURRENCY.md), and this is where they write. *)
let catch_up t =
  index_from t 0;
  t.indexed <- true
[@@coordinator_only]

let[@inline] sync t = if not t.indexed then catch_up t

let add t s p o =
  Rowset.add t.set (Rowset.key3 t.set s p o)
  && begin
    if t.indexed then index_from t (size t - 1);
    true
  end

(* Swap-remove row [i] of [key]'s bucket in index [k]: the last row
   moves into the hole and its recorded row is re-pointed. *)
let remove_at t k key i =
  let b = t.idx.(k) in
  let j = Rowset.Buckets.find b key in
  let last = Rowset.Buckets.rows b j - 1 in
  if i <> last then begin
    let d = Rowset.Buckets.data b j in
    let s = d.(3 * last) and p = d.((3 * last) + 1) and o = d.((3 * last) + 2) in
    d.(3 * i) <- s;
    d.((3 * i) + 1) <- p;
    d.((3 * i) + 2) <- o;
    t.rows.((n_indexes * find t s p o) + k) <- i
  end;
  Rowset.Buckets.set_rows b j last

(* An unindexed store's row leaves [set] only.  An indexed row leaves
   its six buckets too, and the last row of [set], moving into its
   place, brings its recorded rows. *)
let remove t s p o =
  let r = find t s p o in
  r >= 0
  && begin
    if t.indexed then begin
      for k = 0 to n_indexes - 1 do
        remove_at t k (key k s p o) t.rows.((n_indexes * r) + k)
      done;
      let last = Rowset.remove_row t.set r in
      if last <> r then
        Array.blit t.rows (n_indexes * last) t.rows (n_indexes * r) n_indexes
    end
    else ignore (Rowset.remove_row t.set r : int);
    true
  end

let index_of_column t = function
  | `S -> t.idx.(0)
  | `P -> t.idx.(1)
  | `O -> t.idx.(2)

let index_of_pair t = function
  | `SP -> t.idx.(3)
  | `SO -> t.idx.(4)
  | `PO -> t.idx.(5)

let count_key b key =
  let j = Rowset.Buckets.find b key in
  if j < 0 then 0 else Rowset.Buckets.rows b j

let count1 t col code =
  sync t;
  count_key (index_of_column t col) code

let count2 t cols a b =
  sync t;
  count_key (index_of_pair t cols) (pair_key a b)

(* Scans return the live bucket storage: zero-copy, and stable under
   further scans (an add only appends past the rows returned; only a
   remove rewrites a bucket). *)
let empty_scan = ([||] : int array)
let scan_all t = (Rowset.data t.set, size t)

let scan_key b key =
  let j = Rowset.Buckets.find b key in
  if j < 0 then (empty_scan, 0)
  else (Rowset.Buckets.data b j, Rowset.Buckets.rows b j)

let scan1 t col code =
  sync t;
  scan_key (index_of_column t col) code

let scan2 t cols a b =
  sync t;
  scan_key (index_of_pair t cols) (pair_key a b)

let fold_all t f init =
  let d = Rowset.data t.set and acc = ref init in
  for r = 0 to size t - 1 do
    acc := f (d.(3 * r), d.((3 * r) + 1), d.((3 * r) + 2)) !acc
  done;
  !acc

let distinct_in_column t col =
  sync t;
  Rowset.Buckets.length (index_of_column t col)

(* Words of the index structures as they stand, each array with its
   header (dictionary excluded: it is shared Store state). *)
let resident_bytes t =
  8
  * Array.fold_left
      (fun acc b -> acc + Rowset.Buckets.resident_words b)
      (Rowset.resident_words t.set + Array.length t.rows + 1)
      t.idx

let compact = sync

(* Reads the indexes as they stand: a checker must not index. *)
let rows_consistent t =
  let ok = ref true in
  let d = Rowset.data t.set in
  for r = 0 to size t - 1 do
    let s = d.(3 * r) and p = d.((3 * r) + 1) and o = d.((3 * r) + 2) in
    ok := !ok && find t s p o = r;
    if t.indexed then
      for k = 0 to n_indexes - 1 do
        let b = t.idx.(k) in
        let j = Rowset.Buckets.find b (key k s p o) in
        let i = t.rows.((n_indexes * r) + k) in
        ok :=
          !ok && j >= 0
          && i < Rowset.Buckets.rows b j
          &&
          let bd = Rowset.Buckets.data b j in
          bd.(3 * i) = s && bd.((3 * i) + 1) = p && bd.((3 * i) + 2) = o
      done
  done;
  let held = if t.indexed then size t else 0 in
  !ok
  && Array.for_all
       (fun b -> Rowset.Buckets.fold b (fun _ _ n acc -> acc + n) 0 = held)
       t.idx
