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

type t = {
  mutable slots : int array;
      (* interleaved pairs: slot j is [slots.(2j)] = arena offset + 1
         (0 = free) and [slots.(2j + 1)] = the cached row hash, so one
         probe touches one cache line *)
  mutable mask : int;  (* slot capacity - 1; capacity is 2^k *)
  mutable count : int;
  mutable arena : int array;  (* rows, packed as consecutive [len; elems...] records *)
  mutable arena_n : int;  (* used prefix of [arena] *)
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

let ensure_arena t extra =
  let need = t.arena_n + extra in
  if need > Array.length t.arena then begin
    let arena = Array.make (max need (2 * Array.length t.arena)) 0 in
    Array.blit t.arena 0 arena 0 t.arena_n;
    t.arena <- arena
  end

(* The row's elements are copied into the arena, so the caller keeps
   ownership of the array — one scratch buffer may be reused across
   calls. *)
let add t row =
  if 2 * (t.count + 1) > t.mask + 1 then grow_slots t;
  let h = Key.hash row in
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
  while 2 * (t.count + m) > t.mask + 1 do
    grow_slots t
  done;
  ensure_arena t (m * (w + 1));
  let slots = t.slots and arena = t.arena and mask = t.mask in
  let added = ref 0 in
  for r = 0 to m - 1 do
    let h = ref 0x811c9dc5 in
    for c = 0 to w - 1 do
      h :=
        (!h lxor Array.unsafe_get (Array.unsafe_get cols c) r)
        * 0x01000193 land max_int
    done;
    let h = !h in
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
  done;
  !added

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
