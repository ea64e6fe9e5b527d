(* Immutable sorted segment of dictionary-encoded rows.  See the .mli
   for the model.  Everything here is bounds-safe by construction:
   block indices come from the offset table and row ranks are clamped
   by [n].  The decoded-block cache is plain mutable state: one domain
   at a time reads a store (CONCURRENCY.md), and every block read ends
   in [finish], whose read of the ambient sink ([Obs.global],
   [@@coordinator_only]) tool/analyze keeps off worker domains. *)

(* Small blocks keep the boundary searches cheap: a rank lookup
   decodes at most two blocks, and 128 rows * 3 varints is a few
   hundred nanoseconds.  The per-block framing overhead (one absolute
   row) is under 0.1 byte/row against 512-row blocks. *)
let default_block_rows = 128

(* Decoded blocks cached per segment (bounded so a Barton-scale
   segment never holds its whole decoded self).  128 rows * 3 cells *
   8 bytes * 1024 blocks = 3 MiB ceiling per segment. *)
let cache_budget_blocks = 1024

type t = {
  n : int;
  block_rows : int;
  nblocks : int;
  data : Bytes.t;
  offsets : int array;  (* nblocks + 1 byte offsets into [data] *)
  (* zone maps, one cell per block: the values at the block's first/last
     row (columns a and b are sorted within a block only piecewise, but
     first/last still bound them) *)
  first_a : int array;
  last_a : int array;
  first_b : int array;
  last_b : int array;
  cache : int array array;  (* decoded blocks; [||] until decoded *)
  mutable cached : int;  (* blocks currently cached, for the budget *)
}

let n t = t.n

let rows_in_block t i =
  if i = t.nblocks - 1 then t.n - (i * t.block_rows) else t.block_rows

(* A reader serves the blocks of one operation: a one-shot [locate1],
   [locate2] or [mem], or a compact-backend scan, which locates its
   rows and copies them through one [Reader].  It holds one lazily
   allocated scratch buffer: cache hits (the common case — covered
   segments of bench stores fit the budget entirely) allocate nothing,
   and one operation touching several uncached blocks reuses the same
   scratch.  The reader remembers which block its scratch holds, so
   reading that block again decodes nothing and counts as a hit.
   It counts block hits, decodes and zone-map skips in its own fields,
   and [finish] adds them to the sink by name when the operation
   returns: one sink read per operation, not one per block read.  Hits
   and decodes are added only when there was one; skips whenever a
   zone-map search ran, even if it skipped nothing. *)
type reader = {
  seg : t;
  mutable scratch : int array;
  mutable held : int;  (* the block [scratch] holds, or -1 *)
  mutable hits : int;
  mutable decodes : int;
  mutable skips : int;
  mutable searched : bool;  (* a zone-map search ran *)
}

let reader t =
  {
    seg = t;
    scratch = [||];
    held = -1;
    hits = 0;
    decodes = 0;
    skips = 0;
    searched = false;
  }

let note_skips rd k =
  rd.skips <- rd.skips + k;
  rd.searched <- true

let finish rd =
  let sink = Obs.global () in
  if rd.hits > 0 then Obs.add (Obs.counter sink "store.block_cache_hits") rd.hits;
  if rd.decodes > 0 then Obs.add (Obs.counter sink "store.block_decodes") rd.decodes;
  if rd.searched then Obs.add (Obs.counter sink "store.block_skips") rd.skips

let block rd i =
  let t = rd.seg in
  let arr = Array.unsafe_get t.cache i in
  if Array.length arr > 0 then begin
    rd.hits <- rd.hits + 1;
    arr
  end
  else if rd.held = i then begin
    rd.hits <- rd.hits + 1;
    rd.scratch
  end
  else begin
    rd.decodes <- rd.decodes + 1;
    let rows = rows_in_block t i in
    if t.cached < cache_budget_blocks then begin
      let arr = Array.make (3 * rows) 0 in
      ignore (Block.decode t.data ~pos:t.offsets.(i) ~rows arr : int);
      t.cached <- t.cached + 1;
      Array.unsafe_set t.cache i arr;
      arr
    end
    else begin
      if Array.length rd.scratch = 0 then
        rd.scratch <- Array.make (3 * t.block_rows) 0;
      let buf = rd.scratch in
      ignore (Block.decode t.data ~pos:t.offsets.(i) ~rows buf : int);
      rd.held <- i;
      buf
    end
  end

(* ---------- construction ------------------------------------------------- *)

type grow = { mutable cells : int array; mutable len : int }

let gmake () = { cells = Array.make 16 0; len = 0 }

let gpush g v =
  if g.len = Array.length g.cells then begin
    let bigger = Array.make (2 * g.len) 0 in
    Array.blit g.cells 0 bigger 0 g.len;
    g.cells <- bigger
  end;
  g.cells.(g.len) <- v;
  g.len <- g.len + 1

let gtrim g = Array.sub g.cells 0 g.len

module Builder = struct
  type b = {
    block_rows : int;
    buf : Buffer.t;
    cur : int array;  (* pending rows of the open block, stride 3 *)
    mutable cur_n : int;
    mutable total : int;
    offs : grow;
    b_first_a : grow;
    b_last_a : grow;
    b_first_b : grow;
    b_last_b : grow;
  }

  let create ?(block_rows = default_block_rows) () =
    if block_rows < 1 then invalid_arg "Segment.Builder.create";
    {
      block_rows;
      buf = Buffer.create 4096;
      cur = Array.make (3 * block_rows) 0;
      cur_n = 0;
      total = 0;
      offs = gmake ();
      b_first_a = gmake ();
      b_last_a = gmake ();
      b_first_b = gmake ();
      b_last_b = gmake ();
    }

  let flush b =
    if b.cur_n > 0 then begin
      let k = b.cur_n in
      gpush b.offs (Buffer.length b.buf);
      Block.append b.buf b.cur ~lo:0 ~hi:k;
      gpush b.b_first_a b.cur.(0);
      gpush b.b_last_a b.cur.(3 * (k - 1));
      gpush b.b_first_b b.cur.(1);
      gpush b.b_last_b b.cur.((3 * (k - 1)) + 1);
      b.cur_n <- 0
    end

  let push b a bb c =
    let i = b.cur_n in
    b.cur.(3 * i) <- a;
    b.cur.((3 * i) + 1) <- bb;
    b.cur.((3 * i) + 2) <- c;
    b.cur_n <- i + 1;
    b.total <- b.total + 1;
    if b.cur_n = b.block_rows then flush b

  let finish b =
    flush b;
    gpush b.offs (Buffer.length b.buf);
    let nblocks = b.offs.len - 1 in
    {
      n = b.total;
      block_rows = b.block_rows;
      nblocks;
      data = Buffer.to_bytes b.buf;
      offsets = gtrim b.offs;
      first_a = gtrim b.b_first_a;
      last_a = gtrim b.b_last_a;
      first_b = gtrim b.b_first_b;
      last_b = gtrim b.b_last_b;
      cache = Array.make nblocks [||];
      cached = 0;
    }
end

let empty = Builder.finish (Builder.create ())

let of_sorted_array ?block_rows rows ~rows:k =
  let b = Builder.create ?block_rows () in
  for i = 0 to k - 1 do
    Builder.push b rows.(3 * i) rows.((3 * i) + 1) rows.((3 * i) + 2)
  done;
  Builder.finish b

(* ---------- lookups ------------------------------------------------------ *)

(* First index in [lo, hi) satisfying the monotone predicate, else [hi]. *)
let lower_bound lo hi pred =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = (!l + !h) / 2 in
    if pred mid then h := mid else l := mid + 1
  done;
  !l

(* Galloping search for the first row of [rlo, rhi) whose key is
   [above]: exponential probes from [rlo] bracket the boundary, then a
   binary search pins it.  Short runs (the common case for scan2)
   touch O(log run) rows, all inside already-bracketed blocks. *)
let gallop_row key above rlo rhi =
  if rlo >= rhi then rlo
  else if above (key rlo) then rlo
  else begin
    let step = ref 1 in
    while rlo + !step < rhi && not (above (key (rlo + !step))) do
      step := !step * 2
    done;
    let l = rlo + (!step / 2) + 1 in
    let h = min (rlo + !step) rhi in
    lower_bound l h (fun r -> above (key r))
  end

(* Bracket the candidate blocks for leading value [a]: the zone maps
   exclude every block whose [first_a .. last_a] interval misses [a],
   which is all but the run's boundary blocks. *)
let locate1_g rd a =
  let t = rd.seg in
  if t.n = 0 then (0, 0)
  else begin
    let nb = t.nblocks in
    let blo = lower_bound 0 nb (fun i -> Array.unsafe_get t.last_a i >= a) in
    let bhi = lower_bound blo nb (fun i -> Array.unsafe_get t.first_a i > a) in
    note_skips rd (nb - (bhi - blo));
    if blo >= bhi then (0, 0)
    else begin
      let br = t.block_rows in
      let inblock i above =
        let arr = block rd i in
        let k = rows_in_block t i in
        lower_bound 0 k (fun j -> above (Array.unsafe_get arr (3 * j)))
      in
      let lo = (blo * br) + inblock blo (fun v -> v >= a) in
      let hi = ((bhi - 1) * br) + inblock (bhi - 1) (fun v -> v > a) in
      if lo >= hi then (0, 0) else (lo, hi)
    end
  end

(* First row of [lo, hi) (a run with fixed leading column, so the
   second column is sorted) whose second column is [above].  Blocks
   fully covered by the run have zone maps that describe run keys
   exactly, so a binary search over [first_b]/[last_b] narrows the
   row search to at most one block on each side. *)
let bound_second rd lo hi b ~strict =
  let t = rd.seg in
  let br = t.block_rows in
  let key r = Array.unsafe_get (block rd (r / br)) ((3 * (r mod br)) + 1) in
  let above k = if strict then k > b else k >= b in
  let cl = (lo + br - 1) / br and ch = hi / br in
  if cl >= ch then gallop_row key above lo hi
  else if above (Array.unsafe_get t.first_b cl) then
    (* boundary prefix [lo, cl*br) plus the first covered row *)
    gallop_row key above lo (cl * br)
  else begin
    let j =
      lower_bound cl ch (fun i -> above (Array.unsafe_get t.last_b i))
    in
    note_skips rd (j - cl);
    if j < ch then gallop_row key above (j * br) (min ((j + 1) * br) hi)
    else gallop_row key above (ch * br) hi
  end

let locate2_g rd a b =
  let lo, hi = locate1_g rd a in
  if lo >= hi then (lo, lo)
  else begin
    let l2 = bound_second rd lo hi b ~strict:false in
    let h2 = bound_second rd l2 hi b ~strict:true in
    (l2, h2)
  end

let locate1 t a =
  let rd = reader t in
  let r = locate1_g rd a in
  finish rd;
  r

let locate2 t a b =
  let rd = reader t in
  let r = locate2_g rd a b in
  finish rd;
  r

let mem t a b c =
  let rd = reader t in
  let lo, hi = locate2_g rd a b in
  let found =
    lo < hi
    &&
    let br = t.block_rows in
    let key r = Array.unsafe_get (block rd (r / br)) ((3 * (r mod br)) + 2) in
    let pos = gallop_row key (fun v -> v >= c) lo hi in
    pos < hi && key pos = c
  in
  finish rd;
  found

(* ---------- enumeration -------------------------------------------------- *)

module Reader = struct
  type nonrec t = reader

  let create = reader
  let locate1 = locate1_g
  let locate2 = locate2_g
  let finish = finish

  let iter_range rd lo hi f =
    if lo < hi then begin
      let t = rd.seg in
      let br = t.block_rows in
      let b0 = lo / br and b1 = (hi - 1) / br in
      for i = b0 to b1 do
        let arr = block rd i in
        let jlo = if i = b0 then lo - (i * br) else 0 in
        let jhi = if i = b1 then hi - (i * br) else rows_in_block t i in
        for j = jlo to jhi - 1 do
          f
            (Array.unsafe_get arr (3 * j))
            (Array.unsafe_get arr ((3 * j) + 1))
            (Array.unsafe_get arr ((3 * j) + 2))
        done
      done
    end

  let blit_range rd lo hi dst ~da ~db ~dc =
    if lo < hi then begin
      let t = rd.seg in
      let br = t.block_rows in
      let b0 = lo / br and b1 = (hi - 1) / br in
      let out = ref 0 in
      for i = b0 to b1 do
        let arr = block rd i in
        let jlo = if i = b0 then lo - (i * br) else 0 in
        let jhi = if i = b1 then hi - (i * br) else rows_in_block t i in
        for j = jlo to jhi - 1 do
          let base = 3 * !out in
          Array.unsafe_set dst (base + da) (Array.unsafe_get arr (3 * j));
          Array.unsafe_set dst (base + db) (Array.unsafe_get arr ((3 * j) + 1));
          Array.unsafe_set dst (base + dc) (Array.unsafe_get arr ((3 * j) + 2));
          incr out
        done
      done
    end
end

(* The merge path streams with its own scratch and never populates the
   cache: after a merge the old segment is garbage anyway. *)
let iter_all t f =
  if t.n > 0 then begin
    let scratch = Array.make (3 * t.block_rows) 0 in
    for i = 0 to t.nblocks - 1 do
      let k = rows_in_block t i in
      ignore (Block.decode t.data ~pos:t.offsets.(i) ~rows:k scratch : int);
      for j = 0 to k - 1 do
        f
          (Array.unsafe_get scratch (3 * j))
          (Array.unsafe_get scratch ((3 * j) + 1))
          (Array.unsafe_get scratch ((3 * j) + 2))
      done
    done
  end

let resident_bytes t =
  let word_arrays =
    Array.length t.offsets + Array.length t.first_a + Array.length t.last_a
    + Array.length t.first_b + Array.length t.last_b
  in
  Bytes.length t.data
  + (8 * word_arrays)
  + (Array.length t.cache * 8)
  + (t.cached * 3 * t.block_rows * 8)
