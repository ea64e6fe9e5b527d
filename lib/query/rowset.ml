(* The one table of dictionary-encoded rows: the evaluator's answer
   sets, a materialized view's tuples and the executor's key and result
   sets are all one.

   Rows are stored column-major: column [c] is one int array holding
   every row's [c]-th code, so the executor reads a view's columns in
   place.  The open-addressed slot array (linear probing, power-of-two
   capacity, load at most 1/2) packs 31 bits of a row's hash above its
   row index + 1, as [Rdf.Flat.Triples] does: a probe rejects most other
   rows without reading them, and growth and deletion find an entry's
   home without rehashing it.  0 marks a free slot.  Removal swaps the
   last row into the hole and backward-shifts the freed slot, so there
   are no tombstones.  The probes are [while] loops: a local recursive
   closure would allocate on every call. *)

let row_bits = 31
let row_mask = (1 lsl row_bits) - 1

type t = {
  mutable slots : int array;
  mutable mask : int;  (* slot capacity - 1; capacity is 2^k *)
  mutable width : int;  (* -1 until the first row *)
  mutable cols : int array array;  (* [cols.(c).(r)]: code [c] of row [r] *)
  mutable cap : int;  (* rows the columns can hold *)
  mutable n : int;
}

let create n =
  let slots = ref 16 in
  while !slots < 2 * n && !slots < Sys.max_array_length / 4 do
    slots := 2 * !slots
  done;
  {
    slots = Array.make !slots 0;
    mask = !slots - 1;
    width = -1;
    cols = [||];
    cap = max 16 n;
    n = 0;
  }

let cardinal t = t.n
let columns t = t.cols

(* FNV-1a over the row's codes, cut to the 31 bits a slot keeps. *)
let hash (row : int array) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length row - 1 do
    h := (!h lxor Array.unsafe_get row i) * 0x01000193 land max_int
  done;
  !h land row_mask

(* The same hash, of stored row [r]. *)
let hash_stored t r =
  let h = ref 0x811c9dc5 in
  for c = 0 to t.width - 1 do
    h := (!h lxor Array.unsafe_get (Array.unsafe_get t.cols c) r) * 0x01000193 land max_int
  done;
  !h land row_mask

let home ~mask v = (v lsr row_bits) land mask

(* The first row fixes the width and allocates the columns. *)
let check_width t w =
  if w <> t.width then
    if t.width < 0 then begin
      t.width <- w;
      t.cols <- Array.init w (fun _ -> Array.make t.cap 0)
    end
    else invalid_arg "Rowset: a row of another width"

(* Stored row [r] equals [row]?  [row] has the set's width, and [r] is
   below [cap], so the unchecked reads stay in bounds. *)
let equal_at t r (row : int array) =
  let c = ref 0 in
  while
    !c < t.width
    && Array.unsafe_get (Array.unsafe_get t.cols !c) r = Array.unsafe_get row !c
  do
    incr c
  done;
  !c = t.width

(* The slot holding [row], whose hash is [tag], or the free slot that
   ends its probe sequence.  The load bound leaves a free slot, so this
   terminates; indices are masked, so they stay in bounds. *)
let probe t tag row =
  let slots = t.slots and mask = t.mask in
  let j = ref (tag land mask) and searching = ref true in
  while !searching do
    let v = Array.unsafe_get slots !j in
    if v = 0 || (v lsr row_bits = tag && equal_at t ((v land row_mask) - 1) row)
    then searching := false
    else j := (!j + 1) land mask
  done;
  !j

(* The slot of [row], or the free slot that ends its probe sequence;
   -1 while the set has no width. *)
let slot t row =
  if t.width < 0 then -1
  else begin
    check_width t (Array.length row);
    probe t (hash row) row
  end

let find t row =
  let j = slot t row in
  if j < 0 then -1 else (Array.unsafe_get t.slots j land row_mask) - 1

let mem t row = find t row >= 0

(* Growth is 4x, so a set that starts small reaches its working size in
   few replays (the replay writes are random-access). *)
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

let grow_cols t =
  let cap = 2 * t.cap in
  t.cols <-
    Array.map
      (fun col ->
        let bigger = Array.make cap 0 in
        Array.blit col 0 bigger 0 t.n;
        bigger)
      t.cols;
  t.cap <- cap

(* The row's codes are copied into the columns, so the caller may reuse
   the array. *)
let add t row =
  check_width t (Array.length row);
  if 2 * (t.n + 1) > t.mask + 1 then grow_slots t;
  let tag = hash row in
  let j = probe t tag row in
  Array.unsafe_get t.slots j = 0
  && begin
    let r = t.n in
    if r = t.cap then grow_cols t;
    for c = 0 to t.width - 1 do
      Array.unsafe_set (Array.unsafe_get t.cols c) r (Array.unsafe_get row c)
    done;
    Array.unsafe_set t.slots j ((tag lsl row_bits) lor (r + 1));
    t.n <- r + 1;
    true
  end

let add_columns t cols m =
  let w = Array.length cols in
  let row = Array.make w 0 and added = ref 0 in
  for r = 0 to m - 1 do
    for c = 0 to w - 1 do
      Array.unsafe_set row c (Array.unsafe_get cols c).(r)
    done;
    if add t row then incr added
  done;
  !added

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

let remove t row =
  let j = slot t row in
  j >= 0
  && Array.unsafe_get t.slots j <> 0
  && begin
    let r = (Array.unsafe_get t.slots j land row_mask) - 1 in
    delete_slot t j;
    let last = t.n - 1 in
    if r < last then begin
      for c = 0 to t.width - 1 do
        let col = Array.unsafe_get t.cols c in
        Array.unsafe_set col r (Array.unsafe_get col last)
      done;
      let tag = hash_stored t r in
      Array.unsafe_set t.slots (slot_of_row t tag last) ((tag lsl row_bits) lor (r + 1))
    end;
    t.n <- last;
    true
  end

let row_at t r =
  let row = Array.make t.width 0 in
  for c = 0 to t.width - 1 do
    Array.unsafe_set row c (Array.unsafe_get t.cols c).(r)
  done;
  row

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
