(* The one open-addressed table of dictionary-encoded rows: linear
   probing over a power-of-two slot array, load at most 3/4, and
   backward-shift deletion, so there are no tombstones and a probe
   sequence ends at the first free slot.  [Buckets], the store's
   indexes, is a width-1 table of keys with its buckets beside it, so
   this is the one probe loop, growth rule and delete of the library.

   Rows are packed row-major in one int array, the layout every store
   scan already hands out ([s; p; o] at stride 3): a probe compares a
   row where it is stored, in one place.  A slot packs 31 bits of its
   row's hash above the row's index + 1, so a probe rejects most other
   rows without reading them, and growth and deletion find an entry's
   home without rehashing it.  0 marks a free slot.  Removal moves the
   last row into the hole.  A table starts at a few words, since the
   compact backend creates two fresh memtables on every merge, and its
   slots grow 4x, so it reaches its working size in few rehashes (each
   one a latency spike on the add that triggers it).  The probes are
   [while] loops: a local recursive closure would allocate on every
   call.  The key row, the hash, the width check, the probe and the
   insert are [@inline], so [find] and [find_or_add] are each one body:
   through calls, Incremental's saturation build on the one table ran
   about 7% slower than on a triple set specialized to width 3. *)

let row_bits = 31
let row_mask = (1 lsl row_bits) - 1
let min_rows = 4

type t = {
  mutable slots : int array;
  mutable mask : int;  (* slot capacity - 1; capacity is 2^k *)
  mutable width : int;  (* -1 until fixed *)
  mutable data : int array;  (* packed rows, [width] codes each *)
  mutable n : int;
  mutable key : int array;  (* the callers' probe row, of [width] codes *)
  first_rows : int;  (* rows [data] holds when the width is fixed *)
}

(* Grows when one more row would pass 3/4 of the slots. *)
let full ~rows ~mask = 4 * (rows + 1) > 3 * (mask + 1)

let create n =
  let slots = ref min_rows in
  while full ~rows:(n - 1) ~mask:(!slots - 1) && !slots < Sys.max_array_length / 4 do
    slots := 2 * !slots
  done;
  {
    slots = Array.make !slots 0;
    mask = !slots - 1;
    width = -1;
    data = [||];
    n = 0;
    key = [||];
    first_rows = max min_rows n;
  }

let fix_width t w =
  t.width <- w;
  t.data <- Array.make (w * t.first_rows) 0;
  t.key <- Array.make w 0

let of_width w n =
  let t = create n in
  fix_width t w;
  t

let key t = t.key

let[@inline] key3 t s p o =
  let k = t.key in
  k.(0) <- s;
  k.(1) <- p;
  k.(2) <- o;
  k

let cardinal t = t.n
let data t = t.data

(* The [w] codes of [a] from [base], folded by multiplying with a
   large odd constant; the slot keeps bits 31 to 61 of the result,
   which depend on every code (multiplicative hashing). *)
let[@inline] hash_at a base w =
  let h = ref w in
  for i = base to base + w - 1 do
    h := (!h + Array.unsafe_get a i) * 0x1C69B3F74AC4AE35
  done;
  (!h lsr row_bits) land row_mask

let hash row = hash_at row 0 (Array.length row)
let home ~mask v = (v lsr row_bits) land mask

(* A table without a width takes the first row's; any other width is
   refused. *)
let widen t w =
  if t.width < 0 then fix_width t w else invalid_arg "Rowset: a row of another width"

let[@inline] check_width t w = if w <> t.width then widen t w

(* The slot holding the row at [off] of [src], whose hash is [tag], or
   the free slot that ends its probe sequence.  The load bound leaves a
   free slot, so this terminates; indices are masked, and the callers
   keep [src]'s [width] codes from [off] in bounds, so the unchecked
   reads stay in bounds. *)
let[@inline] probe t tag src off =
  let slots = t.slots and data = t.data and mask = t.mask and w = t.width in
  let j = ref (tag land mask) and searching = ref true in
  while !searching do
    let v = Array.unsafe_get slots !j in
    if v = 0 then searching := false
    else if v lsr row_bits = tag then begin
      let b = w * ((v land row_mask) - 1) and c = ref 0 in
      while !c < w && Array.unsafe_get data (b + !c) = Array.unsafe_get src (off + !c) do
        incr c
      done;
      if !c = w then searching := false else j := (!j + 1) land mask
    end
    else j := (!j + 1) land mask
  done;
  !j

let find t row =
  if t.width < 0 then -1
  else begin
    check_width t (Array.length row);
    let v = Array.unsafe_get t.slots (probe t (hash_at row 0 t.width) row 0) in
    (v land row_mask) - 1
  end

let mem t row = find t row >= 0

let grow_slots t =
  let cap = 4 * (t.mask + 1) in
  let mask = cap - 1 in
  let slots = Array.make cap 0 in
  Array.iter
    (fun v ->
      if v <> 0 then begin
        let j = ref (home ~mask v) in
        while slots.(!j) <> 0 do
          j := (!j + 1) land mask
        done;
        slots.(!j) <- v
      end)
    t.slots;
  t.slots <- slots;
  t.mask <- mask

(* The index of the row at [off] of [src], added when absent; the
   caller has checked that its [width] codes are in bounds. *)
let[@inline] insert t src off =
  if full ~rows:t.n ~mask:t.mask then grow_slots t;
  let w = t.width in
  let tag = hash_at src off w in
  let j = probe t tag src off in
  let v = Array.unsafe_get t.slots j in
  if v <> 0 then (v land row_mask) - 1
  else begin
    let r = t.n in
    if w * (r + 1) > Array.length t.data then begin
      let bigger = Array.make (max (2 * Array.length t.data) (w * (r + 1))) 0 in
      Array.blit t.data 0 bigger 0 (w * r);
      t.data <- bigger
    end;
    let data = t.data and b = w * r in
    for c = 0 to w - 1 do
      Array.unsafe_set data (b + c) (Array.unsafe_get src (off + c))
    done;
    Array.unsafe_set t.slots j ((tag lsl row_bits) lor (r + 1));
    t.n <- r + 1;
    r
  end

let find_or_add t row =
  check_width t (Array.length row);
  insert t row 0

let add t row =
  let n = t.n in
  find_or_add t row = n

let add_rows t ~width data n =
  if n > 0 then begin
    check_width t width;
    if width * n > Array.length data then invalid_arg "Rowset.add_rows"
  end;
  let before = t.n in
  for r = 0 to n - 1 do
    ignore (insert t data (width * r) : int)
  done;
  t.n - before

(* Distance from slot [a] forward to slot [b]. *)
let dist ~mask a b = (b - a) land mask

(* Free slot [j] and shift back every later entry of its run that may
   move into the hole: one whose home is not between the hole and its
   own slot. *)
let delete_slot t j =
  let slots = t.slots and mask = t.mask in
  let hole = ref j and i = ref ((j + 1) land mask) in
  while Array.unsafe_get slots !i <> 0 do
    let v = Array.unsafe_get slots !i in
    if dist ~mask (home ~mask v) !i >= dist ~mask !hole !i then begin
      Array.unsafe_set slots !hole v;
      hole := !i
    end;
    i := (!i + 1) land mask
  done;
  Array.unsafe_set slots !hole 0

(* The slot pointing at row [r], whose hash is [tag]. *)
let slot_of_row t tag r =
  let v = (tag lsl row_bits) lor (r + 1) and slots = t.slots and mask = t.mask in
  let j = ref (tag land mask) in
  while Array.unsafe_get slots !j <> v do
    j := (!j + 1) land mask
  done;
  !j

let remove_row t r =
  let w = t.width in
  if r < 0 || r >= t.n then invalid_arg "Rowset.remove_row";
  delete_slot t (slot_of_row t (hash_at t.data (w * r) w) r);
  let last = t.n - 1 in
  if r <> last then begin
    (* a loop, not [Array.blit], which is a C call for a few cells *)
    let data = t.data in
    for c = 0 to w - 1 do
      Array.unsafe_set data ((w * r) + c) (Array.unsafe_get data ((w * last) + c))
    done;
    let tag = hash_at t.data (w * r) w in
    t.slots.(slot_of_row t tag last) <- (tag lsl row_bits) lor (r + 1)
  end;
  t.n <- last;
  last

let remove t row =
  let r = find t row in
  r >= 0 && (ignore (remove_row t r : int); true)

let row_at t r = Array.sub t.data (t.width * r) t.width

let fold f t init =
  let acc = ref init in
  for r = 0 to t.n - 1 do
    acc := f (row_at t r) !acc
  done;
  !acc

let elements t =
  let acc = ref [] in
  for r = t.n - 1 downto 0 do
    acc := row_at t r :: !acc
  done;
  !acc

let resident_words t = Array.length t.data + Array.length t.slots + 2

(* A width-1 table of keys; a key's row addresses its bucket in two
   parallel arrays, so the probe is the table's own, inlined here.  A
   key whose bucket empties leaves through [remove_row], and the key
   moved into its row brings its bucket along. *)
module Buckets = struct
  type table = t

  type t = {
    mutable keys : table;
    mutable data : int array array;  (* by key row: the bucket's storage *)
    mutable used : int array;  (* by key row: rows in use in [data] *)
  }

  let empty = ([||] : int array)
  let pair_key a b = (a lsl 31) lor b

  let create () = { keys = of_width 1 0; data = [||]; used = [||] }

  let length t = t.keys.n

  let find t key =
    let keys = t.keys in
    let row = keys.key in
    Array.unsafe_set row 0 key;
    let v = Array.unsafe_get keys.slots (probe keys (hash_at row 0 1) row 0) in
    (v land row_mask) - 1

  let data t j = t.data.(j)
  let rows t j = t.used.(j)

  (* The key's row, added with an empty bucket when absent. *)
  let[@inline] claim t key =
    let keys = t.keys in
    let row = keys.key in
    Array.unsafe_set row 0 key;
    let j = insert keys row 0 in
    if j = Array.length t.data then begin
      let cap = max min_rows (2 * j) in
      let data = Array.make cap empty and used = Array.make cap 0 in
      Array.blit t.data 0 data 0 j;
      Array.blit t.used 0 used 0 j;
      t.data <- data;
      t.used <- used
    end;
    j

  let push t key s p o =
    let j = claim t key in
    let n = t.used.(j) in
    let d = t.data.(j) in
    let d =
      if 3 * n < Array.length d then d
      else begin
        let bigger = Array.make (max 3 (6 * n)) 0 in
        Array.blit d 0 bigger 0 (3 * n);
        t.data.(j) <- bigger;
        bigger
      end
    in
    d.(3 * n) <- s;
    d.((3 * n) + 1) <- p;
    d.((3 * n) + 2) <- o;
    t.used.(j) <- n + 1;
    n

  let replace t key d n =
    let j = claim t key in
    t.data.(j) <- d;
    t.used.(j) <- n

  let set_rows t j n =
    if n > 0 then t.used.(j) <- n
    else begin
      let last = remove_row t.keys j in
      t.data.(j) <- t.data.(last);
      t.used.(j) <- t.used.(last);
      t.data.(last) <- empty;
      t.used.(last) <- 0
    end

  let fold t f init =
    let acc = ref init in
    for j = 0 to length t - 1 do
      acc := f t.keys.data.(j) t.data.(j) t.used.(j) !acc
    done;
    !acc

  (* The key table and the two arrays beside it, plus each bucket. *)
  let resident_words t =
    fold t
      (fun _ d _ acc -> acc + 1 + Array.length d)
      (resident_words t.keys + Array.length t.data + Array.length t.used + 2)
end
