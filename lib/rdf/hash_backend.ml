(* The hexastore-style layout, over Flat's open-addressed int tables.
   Every triple sits once in [set], a packed [s; p; o] array whose
   membership slots hold each triple's row, and once in a bucket of
   each of six indexes, keyed by its column or column pair, so
   [count1]/[count2] are one probe (the paper's §3.3 exact-count
   assumption) and the compiled executor (Query.Plan) walks a bucket by
   direct int reads with no per-triple allocation.  [rows], parallel to
   [set], records each triple's row in its six buckets, so deletion
   swap-removes by row and scans nothing. *)

let n_indexes = 6

type t = {
  set : Flat.Triples.t;
  mutable rows : int array;
      (* stride 6: the triple at row r of [set] sits at row
         [rows.(6r + k)] of its bucket in [idx.(k)] *)
  idx : Flat.Buckets.t array;  (* keyed by s, p, o, sp, so, po *)
}

let create () =
  {
    set = Flat.Triples.create ();
    rows = Array.make (n_indexes * 4) 0;
    idx = Array.init n_indexes (fun _ -> Flat.Buckets.create ());
  }

let pair_key = Flat.pair_key

let key k s p o =
  match k with
  | 0 -> s
  | 1 -> p
  | 2 -> o
  | 3 -> pair_key s p
  | 4 -> pair_key s o
  | _ -> pair_key p o

let add t s p o =
  Flat.Triples.add t.set s p o
  && begin
    let base = n_indexes * (Flat.Triples.size t.set - 1) in
    if base = Array.length t.rows then begin
      let bigger = Array.make (2 * base) 0 in
      Array.blit t.rows 0 bigger 0 base;
      t.rows <- bigger
    end;
    for k = 0 to n_indexes - 1 do
      t.rows.(base + k) <- Flat.Buckets.push t.idx.(k) (key k s p o) s p o
    done;
    true
  end

(* Swap-remove row [i] of [key]'s bucket in index [k]: the last row
   moves into the hole and its recorded row is re-pointed. *)
let remove_at t k key i =
  let b = t.idx.(k) in
  let j = Flat.Buckets.find b key in
  let last = Flat.Buckets.rows b j - 1 in
  if i <> last then begin
    let d = Flat.Buckets.data b j in
    let s = d.(3 * last) and p = d.((3 * last) + 1) and o = d.((3 * last) + 2) in
    d.(3 * i) <- s;
    d.((3 * i) + 1) <- p;
    d.((3 * i) + 2) <- o;
    t.rows.((n_indexes * Flat.Triples.find t.set s p o) + k) <- i
  end;
  Flat.Buckets.set_rows b j last

let remove t s p o =
  let r = Flat.Triples.find t.set s p o in
  r >= 0
  && begin
    for k = 0 to n_indexes - 1 do
      remove_at t k (key k s p o) t.rows.((n_indexes * r) + k)
    done;
    let last = Flat.Triples.remove_row t.set r in
    if last <> r then
      Array.blit t.rows (n_indexes * last) t.rows (n_indexes * r) n_indexes;
    true
  end

let mem t s p o = Flat.Triples.mem t.set s p o
let size t = Flat.Triples.size t.set

let index_of_column t = function
  | `S -> t.idx.(0)
  | `P -> t.idx.(1)
  | `O -> t.idx.(2)

let index_of_pair t = function
  | `SP -> t.idx.(3)
  | `SO -> t.idx.(4)
  | `PO -> t.idx.(5)

let count_key b key =
  let j = Flat.Buckets.find b key in
  if j < 0 then 0 else Flat.Buckets.rows b j

let count1 t col code = count_key (index_of_column t col) code
let count2 t cols a b = count_key (index_of_pair t cols) (pair_key a b)

(* Scans return the live bucket storage: zero-copy, and stable under
   further scans (only mutation rewrites a bucket). *)
let empty_scan = ([||] : int array)
let scan_all t = (Flat.Triples.data t.set, size t)

let scan_key b key =
  let j = Flat.Buckets.find b key in
  if j < 0 then (empty_scan, 0) else (Flat.Buckets.data b j, Flat.Buckets.rows b j)

let scan1 t col code = scan_key (index_of_column t col) code
let scan2 t cols a b = scan_key (index_of_pair t cols) (pair_key a b)
let fold_all t f init = Flat.Triples.fold t.set f init
let distinct_in_column t col = Flat.Buckets.length (index_of_column t col)

let fold_column_codes t col f init =
  Flat.Buckets.fold (index_of_column t col) (fun code _ _ acc -> f code acc) init

(* Words of the index structures, each array with its header
   (dictionary excluded: it is shared Store state). *)
let resident_bytes t =
  8
  * Array.fold_left
      (fun acc b -> acc + Flat.Buckets.resident_words b)
      (Flat.Triples.resident_words t.set + Array.length t.rows + 1)
      t.idx

let compact _ = ()

let rows_consistent t =
  let ok = ref true in
  for r = 0 to size t - 1 do
    let d = Flat.Triples.data t.set in
    let s = d.(3 * r) and p = d.((3 * r) + 1) and o = d.((3 * r) + 2) in
    ok := !ok && Flat.Triples.find t.set s p o = r;
    for k = 0 to n_indexes - 1 do
      let b = t.idx.(k) in
      let j = Flat.Buckets.find b (key k s p o) in
      let i = t.rows.((n_indexes * r) + k) in
      ok :=
        !ok && j >= 0
        && i < Flat.Buckets.rows b j
        &&
        let bd = Flat.Buckets.data b j in
        bd.(3 * i) = s && bd.((3 * i) + 1) = p && bd.((3 * i) + 2) = o
    done
  done;
  !ok
  && Array.for_all
       (fun b -> Flat.Buckets.fold b (fun _ _ n acc -> acc + n) 0 = size t)
       t.idx
