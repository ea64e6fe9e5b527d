(* LSM-style compact backend.  Invariants (checked by the QCheck
   differential suite against Hash_backend):

     - [mem_add] and the segments are disjoint triple sets;
     - [mem_del] is a subset of the segments' set, disjoint from
       [mem_add];
     - the backend's contents = segments - mem_del + mem_add;
     - [live.(i).(code)] is the number of live rows whose column [i]
       (S = 0, P = 1, O = 2) carries [code], and [distinct.(i)] the
       number of codes whose count is nonzero.

   The memtable and the tombstones are each a {!Hash_backend} (flat
   open-addressed int tables).  A successful add or remove moves the
   triple's three live counts by one, and a merge moves rows without
   changing any, so a single-column count and a column's distinct count
   are one array read, and a write probes the memtable's triple set
   only: it reads no memtable index, so a loading memtable stays
   unindexed until its first scan or pair count.  Pair counts are rank
   arithmetic on the segments corrected by two one-probe memtable
   counts.  Scans decode the bracketed block range once, skip the
   run's tombstones by a sorted merge, and append the memtable's bucket
   — every returned array is freshly allocated and exactly sized, never
   rewritten in place, so the executor's nested scans stay valid.

   A write of (s, p, o) drops exactly the memoized scans whose
   results it changes; every other memo entry stays exact.  A merge
   changes no result's rows, so it drops none: a result memoized before
   it keeps its row order, which no contract fixes.

   Locking: none.  One domain at a time reads or writes a store
   (CONCURRENCY.md), the same contract as the hash backend's, and a
   read may write here too: it fills the scan memo.  [cached_scan],
   [scan_all] and [forget] are [@@coordinator_only], so
   tool/analyze proves no worker domain reaches them. *)

(* Memtable flush threshold: a quarter of the merged size (geometric,
   so ingest stays amortized O(1) merge passes per row) with a floor
   that keeps small stores from merging on every insert. *)
let flush_floor = 16384

(* scan_all results are memoized until the next write, but only up
   to this many rows: a Barton-scale all-triples scan is decoded
   fresh rather than pinned (it would double the resident set). *)
let all_cache_max_rows = 1 lsl 20

(* scan1/scan2 results are memoized too, in one {!Rowset.Buckets}
   table per scan kind keyed by the code or the code pair's
   [Rowset.Buckets.pair_key]; a write drops the six keys its triple
   scans under ([forget]).  Query execution
   re-scans the same (column, code) keys constantly — the inner side of
   every join step, and every repetition of a cached plan — and a memo
   hit costs one int-table probe, like the hash backend's bucket
   fetch.
   Entry count is bounded over all kinds ([memo_keys]); overflowing
   resets the memo wholesale. *)
let scan_cache_max_keys = 16384

type t = {
  mutable spo : Segment.t;
  mutable pos : Segment.t;
  mutable osp : Segment.t;
  mutable mem_add : Hash_backend.t;
      (* triples added since the last merge (not in the segments) *)
  mutable mem_del : Hash_backend.t;
      (* tombstones: segment triples deleted since the last merge *)
  live : int array array;
      (* per column (S = 0, P = 1, O = 2), live rows by code; an array
         doubles when a code past its end goes live *)
  distinct : int array;  (* live distinct codes per column *)
  mutable all_cache : (int array * int) option;
  scan_memo : Rowset.Buckets.t array;
      (* memoized scan1/scan2 results, indexed S, P, O, SP, PO, SO;
         the arrays are never rewritten in place, so handing the same
         one to every caller honours the scan contract *)
  mutable memo_keys : int;  (* keys over all six [scan_memo] tables *)
}

let create () =
  {
    spo = Segment.empty;
    pos = Segment.empty;
    osp = Segment.empty;
    mem_add = Hash_backend.create ();
    mem_del = Hash_backend.create ();
    live = Array.make 3 [||];
    distinct = [| 0; 0; 0 |];
    all_cache = None;
    scan_memo = Array.init 6 (fun _ -> Rowset.Buckets.create ());
    memo_keys = 0;
  }

let forget_key t k key =
  let memo = t.scan_memo.(k) in
  let j = Rowset.Buckets.find memo key in
  if j >= 0 then begin
    Rowset.Buckets.set_rows memo j 0;
    t.memo_keys <- t.memo_keys - 1
  end

(* Drop the memoized scans a write of (s, p, o) changes: the three
   single-column keys and the three pair keys [scan2] reads it under,
   and the all-triples scan.  Every other result stays exact: it is a
   fresh array, never written in place, and no memtable aliases it.
   A load writes with an empty memo and skips the probes. *)
let forget t s p o =
  t.all_cache <- None;
  if t.memo_keys > 0 then begin
    forget_key t 0 s;
    forget_key t 1 p;
    forget_key t 2 o;
    forget_key t 3 (Rowset.Buckets.pair_key s p);
    forget_key t 4 (Rowset.Buckets.pair_key p o);
    forget_key t 5 (Rowset.Buckets.pair_key s o)
  end
[@@coordinator_only]

let seg_mem t s p o = Segment.mem t.spo s p o

let mem t s p o =
  Hash_backend.mem t.mem_add s p o
  || (seg_mem t s p o && not (Hash_backend.mem t.mem_del s p o))

let size t =
  Segment.n t.spo - Hash_backend.size t.mem_del + Hash_backend.size t.mem_add

(* ---------- counts -------------------------------------------------------- *)

let col_slot = function `S -> 0 | `P -> 1 | `O -> 2

let live_count t i code =
  let a = t.live.(i) in
  if code < Array.length a then a.(code) else 0

(* Move [code]'s live count in column [i] by [d] (1 or -1); the column
   gains a distinct code when the count leaves 0 and loses one when it
   returns there. *)
let bump t i code d =
  let a = t.live.(i) in
  let a =
    if code < Array.length a then a
    else begin
      let len = ref (max 1 (Array.length a)) in
      while !len <= code do
        len := 2 * !len
      done;
      let bigger = Array.make !len 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      t.live.(i) <- bigger;
      bigger
    end
  in
  let n = a.(code) in
  a.(code) <- n + d;
  if n = 0 then t.distinct.(i) <- t.distinct.(i) + 1
  else if n + d = 0 then t.distinct.(i) <- t.distinct.(i) - 1

let bump_all t s p o d =
  bump t 0 s d;
  bump t 1 p d;
  bump t 2 o d

let count1 t col code = live_count t (col_slot col) code

(* A pair lookup maps onto the segment whose sort order leads with
   those columns; the rank interval is exact and the memtable
   corrections are O(1) hash counts. *)
let seg_count2 t cols a b =
  match cols with
  | `SP ->
    let lo, hi = Segment.locate2 t.spo a b in
    hi - lo
  | `PO ->
    let lo, hi = Segment.locate2 t.pos a b in
    hi - lo
  | `SO ->
    (* OSP order leads (o, s): arguments arrive as (s, o) *)
    let lo, hi = Segment.locate2 t.osp b a in
    hi - lo

let count2 t cols a b =
  seg_count2 t cols a b
  - Hash_backend.count2 t.mem_del cols a b
  + Hash_backend.count2 t.mem_add cols a b

(* ---------- merge --------------------------------------------------------- *)

(* The rotation sort's digit: [radix_bits] bits of a code, so the
   count table has a fixed 2,048 cells however large the dictionary. *)
let radix_bits = 11
let radix_mask = (1 lsl radix_bits) - 1

(* Sort the [k]-row packed memtable dump for one segment order, then
   materialize it permuted (leading column first) so the merge loop
   compares plain lexicographic cells.  An LSD radix sort of the row
   indices: stable counting passes over one digit each, the third
   column's digits first, then the second's, then the leading one's,
   each column taking as many digits as its largest code needs.  Linear
   in [k]; codes are nonnegative. *)
let sorted_rotation rows k ~da ~db ~dc =
  let top = [| 0; 0; 0 |] in
  for i = 0 to k - 1 do
    for c = 0 to 2 do
      let v = rows.((3 * i) + c) in
      if v > top.(c) then top.(c) <- v
    done
  done;
  let idx = ref (Array.init k Fun.id) and spare = ref (Array.make k 0) in
  let count = Array.make (radix_mask + 1) 0 in
  List.iter
    (fun col ->
      let shift = ref 0 in
      while top.(col) lsr !shift > 0 do
        let src = !idx and dst = !spare and sh = !shift in
        Array.fill count 0 (radix_mask + 1) 0;
        for i = 0 to k - 1 do
          let d = (rows.((3 * src.(i)) + col) lsr sh) land radix_mask in
          count.(d) <- count.(d) + 1
        done;
        let sum = ref 0 in
        for d = 0 to radix_mask do
          let n = count.(d) in
          count.(d) <- !sum;
          sum := !sum + n
        done;
        for i = 0 to k - 1 do
          let r = src.(i) in
          let d = (rows.((3 * r) + col) lsr sh) land radix_mask in
          dst.(count.(d)) <- r;
          count.(d) <- count.(d) + 1
        done;
        idx := dst;
        spare := src;
        shift := sh + radix_bits
      done)
    [ dc; db; da ];
  let idx = !idx in
  let out = Array.make (3 * k) 0 in
  for i = 0 to k - 1 do
    let r = idx.(i) in
    out.(3 * i) <- rows.((3 * r) + da);
    out.((3 * i) + 1) <- rows.((3 * r) + db);
    out.((3 * i) + 2) <- rows.((3 * r) + dc)
  done;
  out

(* Rebuild one order: stream the old segment (already sorted, filtered
   by tombstones) merged with the sorted memtable rotation into a
   fresh builder.  [untombed a b c] maps the row back to (s, p, o) and
   consults [mem_del]; nothing is ever materialized beyond one block. *)
let rebuild_order old ~mem_rows ~k ~untombed =
  let b = Segment.Builder.create () in
  let cursor = ref 0 in
  let drain_until a bb c =
    (* push memtable rows strictly before the incoming segment row *)
    while
      !cursor < k
      &&
      let i = 3 * !cursor in
      let ma = mem_rows.(i) in
      ma < a
      || (ma = a
          &&
          let mb = mem_rows.(i + 1) in
          mb < bb || (mb = bb && mem_rows.(i + 2) < c))
    do
      let i = 3 * !cursor in
      Segment.Builder.push b mem_rows.(i) mem_rows.(i + 1) mem_rows.(i + 2);
      incr cursor
    done
  in
  Segment.iter_all old (fun a bb c ->
      if untombed a bb c then begin
        drain_until a bb c;
        Segment.Builder.push b a bb c
      end);
  while !cursor < k do
    let i = 3 * !cursor in
    Segment.Builder.push b mem_rows.(i) mem_rows.(i + 1) mem_rows.(i + 2);
    incr cursor
  done;
  Segment.Builder.finish b

let merge t =
  let data, n = Hash_backend.scan_all t.mem_add in
  let adds = Array.sub data 0 (3 * n) in
  let del = t.mem_del in
  let no_del = Hash_backend.size del = 0 in
  let spo =
    rebuild_order t.spo
      ~mem_rows:(sorted_rotation adds n ~da:0 ~db:1 ~dc:2)
      ~k:n
      ~untombed:(fun s p o -> no_del || not (Hash_backend.mem del s p o))
  in
  let pos =
    rebuild_order t.pos
      ~mem_rows:(sorted_rotation adds n ~da:1 ~db:2 ~dc:0)
      ~k:n
      ~untombed:(fun p o s -> no_del || not (Hash_backend.mem del s p o))
  in
  let osp =
    rebuild_order t.osp
      ~mem_rows:(sorted_rotation adds n ~da:2 ~db:0 ~dc:1)
      ~k:n
      ~untombed:(fun o s p -> no_del || not (Hash_backend.mem del s p o))
  in
  let sink = Obs.global () in
  Obs.incr (Obs.counter sink "store.merges");
  Obs.add (Obs.counter sink "store.merge_rows") (Segment.n spo);
  t.spo <- spo;
  t.pos <- pos;
  t.osp <- osp;
  t.mem_add <- Hash_backend.create ();
  t.mem_del <- Hash_backend.create ()

let maybe_flush t =
  let pending = Hash_backend.size t.mem_add + Hash_backend.size t.mem_del in
  if pending >= max flush_floor (Segment.n t.spo / 4) then begin
    let sink = Obs.global () in
    Obs.incr (Obs.counter sink "store.memtable_flushes");
    merge t
  end

let add t s p o =
  let tombstoned = Hash_backend.mem t.mem_del s p o in
  if Hash_backend.mem t.mem_add s p o || ((not tombstoned) && seg_mem t s p o)
  then false
  else begin
    bump_all t s p o 1;
    if tombstoned then
      (* resurrect a tombstoned segment row *)
      ignore (Hash_backend.remove t.mem_del s p o : bool)
    else ignore (Hash_backend.add t.mem_add s p o : bool);
    forget t s p o;
    if not tombstoned then maybe_flush t;
    true
  end

let remove t s p o =
  let added = Hash_backend.mem t.mem_add s p o in
  if added || (seg_mem t s p o && not (Hash_backend.mem t.mem_del s p o)) then begin
    if added then ignore (Hash_backend.remove t.mem_add s p o : bool)
    else
      (* tombstone a segment row *)
      ignore (Hash_backend.add t.mem_del s p o : bool);
    bump_all t s p o (-1);
    forget t s p o;
    if not added then maybe_flush t;
    true
  end
  else false

let compact t =
  if Hash_backend.size t.mem_add > 0 || Hash_backend.size t.mem_del > 0 then
    merge t

(* ---------- scans --------------------------------------------------------- *)

let empty_scan = ([||] : int array)

(* Assemble one scan result: the rows of [seg] whose leading column is
   [a] (and whose second is [b], for a pair scan: [pair]) written
   through the column permutation (leading column of the segment lands
   at [da] of each emitted [s; p; o] row), minus the run's tombstones
   [(ddata, ndel)] (the bucket of [mem_del] under the same key), then
   the memtable bucket [(mdata, mn)] appended.  One segment reader
   locates the rows and copies them; exact-size allocation.  The run is
   sorted on its remaining columns, so the tombstones, keyed the same
   way (the third column for a pair scan, the second and third packed
   for a single-column one) and sorted once, are skipped by a merge. *)
let assemble seg ~pair a b ~da ~db ~dc (ddata, ndel) (mdata, mn) =
  let rd = Segment.Reader.create seg in
  let lo, hi =
    if pair then Segment.Reader.locate2 rd a b else Segment.Reader.locate1 rd a
  in
  let nseg = hi - lo - ndel in
  let total = nseg + mn in
  let r =
    if total = 0 then (empty_scan, 0)
    else begin
      let dst = Array.make (3 * total) 0 in
      if ndel = 0 then Segment.Reader.blit_range rd lo hi dst ~da ~db ~dc
      else begin
        let key y z = if pair then z else (y lsl 31) lor z in
        let dead =
          Array.init ndel (fun i ->
              key ddata.((3 * i) + db) ddata.((3 * i) + dc))
        in
        Array.stable_sort Int.compare dead;
        let out = ref 0 and next = ref 0 in
        Segment.Reader.iter_range rd lo hi (fun x y z ->
            if !next < ndel && dead.(!next) = key y z then incr next
            else begin
              let base = 3 * !out in
              dst.(base + da) <- x;
              dst.(base + db) <- y;
              dst.(base + dc) <- z;
              incr out
            end)
      end;
      Array.blit mdata 0 dst (3 * nseg) (3 * mn);
      (dst, total)
    end
  in
  Segment.Reader.finish rd;
  r

(* Look up / fill the scan memo of kind [k].  A hit costs one int-table
   probe; a miss builds the result and records it, first installing six
   fresh tables when the memo holds [scan_cache_max_keys] keys. *)
let cached_scan t k key build =
  let memo = t.scan_memo.(k) in
  let j = Rowset.Buckets.find memo key in
  if j >= 0 then (Rowset.Buckets.data memo j, Rowset.Buckets.rows memo j)
  else begin
    let ((data, n) as r) = build () in
    if t.memo_keys >= scan_cache_max_keys then begin
      for i = 0 to 5 do
        t.scan_memo.(i) <- Rowset.Buckets.create ()
      done;
      t.memo_keys <- 0
    end;
    Rowset.Buckets.replace t.scan_memo.(k) key data n;
    t.memo_keys <- t.memo_keys + 1;
    r
  end
[@@coordinator_only]

(* Memo kinds: 0..2 single-column scans (S, P, O), 3..5 pair scans
   (SP, PO, SO). *)

let scan1 t col code =
  match col with
  | `S ->
    cached_scan t 0 code @@ fun () ->
    assemble t.spo ~pair:false code 0 ~da:0 ~db:1 ~dc:2
      (Hash_backend.scan1 t.mem_del `S code)
      (Hash_backend.scan1 t.mem_add `S code)
  | `P ->
    cached_scan t 1 code @@ fun () ->
    assemble t.pos ~pair:false code 0 ~da:1 ~db:2 ~dc:0
      (Hash_backend.scan1 t.mem_del `P code)
      (Hash_backend.scan1 t.mem_add `P code)
  | `O ->
    cached_scan t 2 code @@ fun () ->
    assemble t.osp ~pair:false code 0 ~da:2 ~db:0 ~dc:1
      (Hash_backend.scan1 t.mem_del `O code)
      (Hash_backend.scan1 t.mem_add `O code)

let scan2 t cols a b =
  match cols with
  | `SP ->
    cached_scan t 3 (Rowset.Buckets.pair_key a b) @@ fun () ->
    assemble t.spo ~pair:true a b ~da:0 ~db:1 ~dc:2
      (Hash_backend.scan2 t.mem_del `SP a b)
      (Hash_backend.scan2 t.mem_add `SP a b)
  | `PO ->
    cached_scan t 4 (Rowset.Buckets.pair_key a b) @@ fun () ->
    assemble t.pos ~pair:true a b ~da:1 ~db:2 ~dc:0
      (Hash_backend.scan2 t.mem_del `PO a b)
      (Hash_backend.scan2 t.mem_add `PO a b)
  | `SO ->
    (* OSP order leads (o, s): arguments arrive as (s, o) *)
    cached_scan t 5 (Rowset.Buckets.pair_key a b) @@ fun () ->
    assemble t.osp ~pair:true b a ~da:2 ~db:0 ~dc:1
      (Hash_backend.scan2 t.mem_del `SO a b)
      (Hash_backend.scan2 t.mem_add `SO a b)

let build_all t =
  let n = size t in
  let dst = Array.make (max 1 (3 * n)) 0 in
  let del = t.mem_del in
  let no_del = Hash_backend.size del = 0 in
  let out = ref 0 in
  Segment.iter_all t.spo (fun s p o ->
      if no_del || not (Hash_backend.mem del s p o) then begin
        let base = 3 * !out in
        dst.(base) <- s;
        dst.(base + 1) <- p;
        dst.(base + 2) <- o;
        incr out
      end);
  let mdata, mn = Hash_backend.scan_all t.mem_add in
  Array.blit mdata 0 dst (3 * !out) (3 * mn);
  (dst, n)

let scan_all t =
  match t.all_cache with
  | Some r -> r
  | None ->
    let r = build_all t in
    (* rebuilt arrays are never written in place afterwards *)
    if size t <= all_cache_max_rows then t.all_cache <- Some r;
    r
[@@coordinator_only]

let fold_all t f init =
  let del = t.mem_del in
  let no_del = Hash_backend.size del = 0 in
  let acc = ref init in
  Segment.iter_all t.spo (fun s p o ->
      if no_del || not (Hash_backend.mem del s p o) then acc := f (s, p, o) !acc);
  Hash_backend.fold_all t.mem_add f !acc

(* ---------- column statistics --------------------------------------------- *)

let distinct_in_column t col = t.distinct.(col_slot col)

(* ---------- sizing -------------------------------------------------------- *)

let resident_bytes t =
  Segment.resident_bytes t.spo + Segment.resident_bytes t.pos
  + Segment.resident_bytes t.osp
  + Hash_backend.resident_bytes t.mem_add
  + Hash_backend.resident_bytes t.mem_del
  + Array.fold_left (fun acc a -> acc + (8 * Array.length a)) 0 t.live
  + (match t.all_cache with Some (a, _) -> 8 * Array.length a | None -> 0)
  + Array.fold_left
      (fun acc memo ->
        Rowset.Buckets.fold memo (fun _ a _ acc -> acc + (8 * Array.length a)) acc)
      0 t.scan_memo
