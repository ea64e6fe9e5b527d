(* Dedicated hash structures for dictionary-encoded result rows.

   Result deduplication used to key generic Hashtbls by
   [Array.to_list row]: one list allocation per probe plus the
   polymorphic hash walking boxed cons cells.  [Tbl] hashes the int
   array directly (FNV-1a over the elements, the same scheme as
   Rdf.Term.hash) and compares element-wise, so membership probes
   allocate nothing.

   The set type [t] goes further: rows live packed in one int arena
   ([len; elems...] records), and the open-addressed slot arrays (linear
   probing, power-of-two capacity, load factor 1/2) hold only the
   arena offset and the cached hash.  An insert is a single probe
   sequence plus a sequential arena append — no per-row allocation, no
   pointer chasing, nothing new for the GC to scan — where the
   mem-then-add double hashing of the Hashtbl route cost about as much
   as the whole join underneath it in the evaluator's emit path.
   Iteration follows arena (insertion) order, so result enumeration is
   deterministic. *)

module Key = struct
  type t = int array

  (* Hot path of every result-set insert: indices below are bounded by
     [Array.length] reads just above, so the checked accesses would be
     pure overhead. *)
  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i =
      i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
    in
    go 0

  let hash (a : int array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor Array.unsafe_get a i) * 0x01000193 land max_int
    done;
    !h
end

module Tbl = Hashtbl.Make (Key)

(* ---------- 64-bit key packing ------------------------------------------

   Dictionary codes are small: a row of w narrow columns usually fits
   in one 62-bit word at [62 / w] bits per column.  When it does, the
   whole row is hashed with a single multiply-xor mix of the packed
   word instead of a w-step FNV loop — one multiplication per dedup
   probe, and the packed compare in the fit check doubles as a cheap
   prefilter.  The mode is chosen per set on first insert and sticks,
   because the open-addressed slots cache row hashes: if a row ever
   fails the fit check (a code too wide, or a different width), the
   set demotes to FNV by rebuilding its index once. *)

(* Bits per column for width [w]; 0 = don't pack (too many columns for
   a useful per-column range). *)
let choose_bits w = if w >= 1 && w <= 7 then 62 / w else 0

(* Finalizing mix of the packed word (splitmix-style): multiplication
   spreads the low-entropy column bits across the word, the xor-shift
   folds the high half back down for the low slot-index bits. *)
let mix k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land max_int

(* Packed word of [row] at [bits] per column, or [-1] when some
   element does not fit (negative or >= 2^bits). *)
let packed_key_row (row : int array) bits =
  let w = Array.length row in
  let lim = 1 lsl bits in
  let rec go c k =
    if c >= w then k
    else
      let v = Array.unsafe_get row c in
      if v < 0 || v >= lim then -1 else go (c + 1) ((k lsl bits) lor v)
  in
  go 0 0

type t = {
  mutable slots : int array;
      (* interleaved pairs: slot j is [slots.(2j)] = arena offset + 1
         (0 = free) and [slots.(2j + 1)] = the cached row hash, so one
         probe touches one cache line *)
  mutable mask : int;  (* slot capacity - 1; capacity is 2^k *)
  mutable count : int;
  mutable arena : int array;  (* rows, packed as consecutive [len; elems...] records *)
  mutable arena_n : int;  (* used prefix of [arena] *)
  mutable pack_bits : int;
      (* hashing mode, fixed while the slot index lives (slots cache
         hashes): [0] = undecided (nothing inserted yet), [-1] = FNV-1a
         over the elements, [b > 0] = rows of width [pack_width] packed
         into one word at [b] bits per column and mixed *)
  mutable pack_width : int;
}

let create n =
  let rec pow2 c = if c >= n * 2 || c >= Sys.max_array_length / 4 then c else pow2 (c * 2) in
  let cap = pow2 16 in
  {
    slots = Array.make (2 * cap) 0;
    mask = cap - 1;
    count = 0;
    arena = Array.make (max 64 (4 * n)) 0;
    arena_n = 0;
    pack_bits = 0;
    pack_width = 0;
  }

(* Row at arena offset [o] (its length word) equals [row]?  Arena
   offsets only ever come from [slots], so they are in bounds by
   construction; unchecked reads keep the probe loop tight. *)
let arena_equal (arena : int array) o (row : int array) =
  let n = Array.length row in
  Array.unsafe_get arena o = n
  &&
  let rec go i =
    i >= n
    || Array.unsafe_get arena (o + 1 + i) = Array.unsafe_get row i
       && go (i + 1)
  in
  go 0

(* Index of the slot holding a row equal to [row] (hash [h]), or of the
   free slot where it would go.  Load factor < 1/2, so this terminates;
   the index is masked, so it is always valid. *)
let find_slot t h row =
  let slots = t.slots and arena = t.arena in
  let mask = t.mask in
  let rec go i =
    let j = (h + i) land mask in
    let off = Array.unsafe_get slots (2 * j) in
    if
      off = 0
      || Array.unsafe_get slots ((2 * j) + 1) = h
         && arena_equal arena (off - 1) row
    then j
    else go (i + 1)
  in
  go 0

(* Growing the slot array replays (offset, hash) pairs against the
   new mask — the arena itself is never touched or rewritten.  Growth
   is 4x so a set that starts small reaches its working size in few
   replays (the replay writes are random-access, the expensive part of
   an insert). *)
let grow_slots t =
  let old = t.slots in
  let cap = 4 * (t.mask + 1) in
  let slots = Array.make (2 * cap) 0 in
  let mask = cap - 1 in
  t.slots <- slots;
  t.mask <- mask;
  let n = Array.length old / 2 in
  for j = 0 to n - 1 do
    let off = old.(2 * j) in
    if off > 0 then begin
      let h = old.((2 * j) + 1) in
      let rec free i =
        let k = (h + i) land mask in
        if slots.(2 * k) = 0 then k else free (i + 1)
      in
      let k = free 0 in
      slots.(2 * k) <- off;
      slots.((2 * k) + 1) <- h
    end
  done

(* Abandon packed hashing: every cached slot hash is stale, so the
   index is rebuilt (FNV) from the arena — hash each packed row and
   place it in the first free slot; arena rows are distinct by
   construction, so no equality checks are needed.  At most once per
   set. *)
let demote t =
  let rec pow2 c =
    if c >= t.count * 2 || c >= Sys.max_array_length / 4 then c else pow2 (c * 2)
  in
  let cap = pow2 16 in
  let slots = Array.make (2 * cap) 0 in
  let mask = cap - 1 in
  let arena = t.arena in
  let o = ref 0 in
  while !o < t.arena_n do
    let n = Array.unsafe_get arena !o in
    let h = ref 0x811c9dc5 in
    for i = 0 to n - 1 do
      h := (!h lxor Array.unsafe_get arena (!o + 1 + i)) * 0x01000193 land max_int
    done;
    let h = !h in
    let rec free i =
      let k = (h + i) land mask in
      if Array.unsafe_get slots (2 * k) = 0 then k else free (i + 1)
    in
    let k = free 0 in
    Array.unsafe_set slots (2 * k) (!o + 1);
    Array.unsafe_set slots ((2 * k) + 1) h;
    o := !o + 1 + n
  done;
  t.slots <- slots;
  t.mask <- mask;
  (* the rebuilt slots cache FNV hashes *)
  t.pack_bits <- -1

let ensure_arena t extra =
  let need = t.arena_n + extra in
  if need > Array.length t.arena then begin
    let arena = Array.make (max need (2 * Array.length t.arena)) 0 in
    Array.blit t.arena 0 arena 0 t.arena_n;
    t.arena <- arena
  end

let mem t row =
  if t.pack_bits > 0 then
    if Array.length row <> t.pack_width then false
    else begin
      let k = packed_key_row row t.pack_bits in
      (* a row that does not fit the packing cannot be in the set:
         every stored row passed this check on insert *)
      k >= 0 && t.slots.(2 * find_slot t (mix k) row) > 0
    end
  else t.slots.(2 * find_slot t (Key.hash row) row) > 0

(* Hash of [row] under the set's current mode, deciding the mode on
   the first insert and demoting to FNV when a row does not pack. *)
let insert_hash t row =
  if t.pack_bits = 0 then begin
    t.pack_width <- Array.length row;
    t.pack_bits <- (match choose_bits (Array.length row) with 0 -> -1 | b -> b)
  end;
  if t.pack_bits > 0 then
    if Array.length row <> t.pack_width then begin
      demote t;
      Key.hash row
    end
    else
      match packed_key_row row t.pack_bits with
      | -1 ->
        demote t;
        Key.hash row
      | k -> mix k
  else Key.hash row

(* The row's elements are copied into the arena, so the caller keeps
   ownership of the array — one scratch buffer may be reused across
   calls. *)
let add t row =
  if 2 * (t.count + 1) > t.mask + 1 then grow_slots t;
  let h = insert_hash t row in
  let j = find_slot t h row in
  if Array.unsafe_get t.slots (2 * j) > 0 then false
  else begin
    let n = Array.length row in
    ensure_arena t (n + 1);
    let arena = t.arena in
    let o = t.arena_n in
    (* manual copy: rows are a handful of ints, below Array.blit's
       call overhead; bounds are guaranteed by [ensure_arena] *)
    Array.unsafe_set arena o n;
    for i = 0 to n - 1 do
      Array.unsafe_set arena (o + 1 + i) (Array.unsafe_get row i)
    done;
    t.arena_n <- o + 1 + n;
    Array.unsafe_set t.slots (2 * j) (o + 1);
    Array.unsafe_set t.slots ((2 * j) + 1) h;
    t.count <- t.count + 1;
    true
  end

(* Columnar row [r] of [cols] equals the arena row at
   offset [o]?  Same contract as [arena_equal], reading the candidate
   out of column vectors instead of a scratch row. *)
let arena_equal_cols (arena : int array) o (cols : int array array) r w =
  Array.unsafe_get arena o = w
  &&
  let rec go c =
    c >= w
    || Array.unsafe_get arena (o + 1 + c)
       = Array.unsafe_get (Array.unsafe_get cols c) r
       && go (c + 1)
  in
  go 0

(* Bulk insert of rows [0, m) of the column vectors [cols]: capacity
   and arena growth are checked once for the worst case, then every row
   goes through a single probe sequence hashing and comparing straight
   out of the columns — no scratch row is ever materialized.  Returns
   the number of rows that were new. *)
let add_columns t (cols : int array array) m =
  let w = Array.length cols in
  if m = 0 then 0
  else begin
    while 2 * (t.count + m) > t.mask + 1 do
      grow_slots t
    done;
    ensure_arena t (m * (w + 1));
    let added = ref 0 in
    (* insert row [r] of the columns under hash [h]; shared by both loops *)
    let insert_row slots arena mask r h =
      let rec probe k =
        let j = (h + k) land mask in
        let off = Array.unsafe_get slots (2 * j) in
        if
          off = 0
          || Array.unsafe_get slots ((2 * j) + 1) = h
             && arena_equal_cols arena (off - 1) cols r w
        then j
        else probe (k + 1)
      in
      let j = probe 0 in
      if Array.unsafe_get slots (2 * j) = 0 then begin
        let o = t.arena_n in
        Array.unsafe_set arena o w;
        for c = 0 to w - 1 do
          Array.unsafe_set arena (o + 1 + c)
            (Array.unsafe_get (Array.unsafe_get cols c) r)
        done;
        t.arena_n <- o + 1 + w;
        Array.unsafe_set slots (2 * j) (o + 1);
        Array.unsafe_set slots ((2 * j) + 1) h;
        t.count <- t.count + 1;
        incr added
      end
    in
    if t.pack_bits = 0 then begin
      t.pack_width <- w;
      t.pack_bits <- (match choose_bits w with 0 -> -1 | bb -> bb)
    end
    else if t.pack_bits > 0 && w <> t.pack_width then demote t;
    let i = ref 0 in
    if t.pack_bits > 0 then begin
      (* packed fast loop: one multiply-mix per row, straight out of
         the column vectors; the first non-fitting row demotes the set
         and hands the tail to the FNV loop below *)
      let bits = t.pack_bits in
      let lim = 1 lsl bits in
      let slots = t.slots and arena = t.arena and mask = t.mask in
      (try
         while !i < m do
           let r = !i in
           let k = ref 0 in
           let c = ref 0 in
           while
             !c < w
             &&
             let v = Array.unsafe_get (Array.unsafe_get cols !c) r in
             v >= 0 && v < lim
             && begin
                  k := (!k lsl bits) lor v;
                  true
                end
           do
             incr c
           done;
           if !c < w then raise_notrace Exit;
           insert_row slots arena mask r (mix !k);
           incr i
         done
       with Exit -> demote t)
    end;
    if !i < m then begin
      (* a demotion rebuilds the index sized to the current count only:
         re-provision for the remaining rows *)
      while 2 * (t.count + (m - !i)) > t.mask + 1 do
        grow_slots t
      done;
      let slots = t.slots and arena = t.arena and mask = t.mask in
      while !i < m do
        let r = !i in
        let h = ref 0x811c9dc5 in
        for c = 0 to w - 1 do
          h :=
            (!h lxor Array.unsafe_get (Array.unsafe_get cols c) r)
            * 0x01000193 land max_int
        done;
        insert_row slots arena mask r !h;
        incr i
      done
    end;
    !added
  end

let cardinal t = t.count

let fold f t init =
  let arena = t.arena in
  let acc = ref init in
  let o = ref 0 in
  while !o < t.arena_n do
    let n = arena.(!o) in
    let row = Array.make n 0 in
    for i = 0 to n - 1 do
      Array.unsafe_set row i (Array.unsafe_get arena (!o + 1 + i))
    done;
    acc := f row !acc;
    o := !o + 1 + n
  done;
  !acc

let iter f t = fold (fun row () -> f row) t ()

(* Insertion-order row list.  Collect the arena offsets first, then
   build the list back to front: one cons per row, against the cons +
   full [List.rev] re-cons of the naive fold — this conversion sits on
   the result path of every evaluation. *)
let elements t =
  let offs = Array.make (max t.count 1) 0 in
  let arena = t.arena in
  let o = ref 0 and i = ref 0 in
  while !o < t.arena_n do
    Array.unsafe_set offs !i !o;
    incr i;
    o := !o + 1 + Array.unsafe_get arena !o
  done;
  let acc = ref [] in
  for j = t.count - 1 downto 0 do
    let o = Array.unsafe_get offs j in
    let n = Array.unsafe_get arena o in
    let row = Array.make n 0 in
    for k = 0 to n - 1 do
      Array.unsafe_set row k (Array.unsafe_get arena (o + 1 + k))
    done;
    acc := row :: !acc
  done;
  !acc
