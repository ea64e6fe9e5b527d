(* Open-addressed tables of unboxed ints, in Rowset's idiom: linear
   probing over power-of-two slot arrays, load at most 3/4, and
   backward-shift deletion, so there are no tombstones and a probe
   sequence ends at the first free slot.  A lookup hashes one int,
   walks a few adjacent cells and compares keys in place: no
   [caml_hash], no polymorphic compare, no boxed key or bucket cell.
   A table starts at a few words, since the compact backend creates
   two fresh memtables on every merge, and grows 4x, so it reaches its
   working size in few rehashes (each one a latency spike on the
   insert that triggers it). *)

let min_slots = 4
let growth = 4

(* Two multiply-xorshift rounds: the low bits, which pick the slot,
   depend on every bit of the key, including the high half of a pair
   key. *)
let hash k =
  let h = (k lxor (k lsr 31)) * 0x3C79AC492BA7B653 in
  let h = (h lxor (h lsr 29)) * 0x1C69B3F74AC4AE35 in
  h lxor (h lsr 32)

let pair_key a b = (a lsl 31) lor b

(* Grows when one more entry would pass 3/4 of the slots. *)
let full ~entries ~mask = 4 * (entries + 1) > 3 * (mask + 1)

(* Distance from slot [a] forward to slot [b]. *)
let dist ~mask a b = (b - a) land mask

module Buckets = struct
  let free = -1
  let empty = ([||] : int array)

  type t = {
    mutable keys : int array;  (* [free] marks an empty slot *)
    mutable data : int array array;  (* the slot's bucket storage *)
    mutable count : int array;  (* rows in use at the start of [data] *)
    mutable mask : int;
    mutable size : int;  (* keys present *)
  }

  let create () =
    {
      keys = Array.make min_slots free;
      data = Array.make min_slots empty;
      count = Array.make min_slots 0;
      mask = min_slots - 1;
      size = 0;
    }

  let length t = t.size

  (* The slot holding [key], or the free slot that ends its probe
     sequence.  The load bound leaves a free slot, so this terminates;
     indices are masked, so the unchecked reads stay in bounds. *)
  let probe t key =
    let keys = t.keys and mask = t.mask in
    let j = ref (hash key land mask) in
    let k = ref (Array.unsafe_get keys !j) in
    while !k <> key && !k <> free do
      j := (!j + 1) land mask;
      k := Array.unsafe_get keys !j
    done;
    !j

  let find t key =
    let j = probe t key in
    if Array.unsafe_get t.keys j = free then -1 else j

  let data t j = t.data.(j)
  let rows t j = t.count.(j)

  let grow t =
    let old_keys = t.keys and old_data = t.data and old_count = t.count in
    let cap = growth * (t.mask + 1) in
    t.keys <- Array.make cap free;
    t.data <- Array.make cap empty;
    t.count <- Array.make cap 0;
    t.mask <- cap - 1;
    Array.iteri
      (fun i k ->
        if k <> free then begin
          let j = probe t k in
          t.keys.(j) <- k;
          t.data.(j) <- old_data.(i);
          t.count.(j) <- old_count.(i)
        end)
      old_keys

  (* The slot of [key], claimed with an empty bucket if absent. *)
  let rec claim t key =
    let j = probe t key in
    if t.keys.(j) = key then j
    else if full ~entries:t.size ~mask:t.mask then begin
      grow t;
      claim t key
    end
    else begin
      t.keys.(j) <- key;
      t.size <- t.size + 1;
      j
    end

  let push t key s p o =
    let j = claim t key in
    let n = t.count.(j) in
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
    t.count.(j) <- n + 1;
    n

  let replace t key d n =
    let j = claim t key in
    t.data.(j) <- d;
    t.count.(j) <- n

  (* Free slot [j] and shift back every later entry of its run that
     may move into the hole: one whose home is not between the hole
     and its own slot. *)
  let delete t j =
    let keys = t.keys and data = t.data and count = t.count and mask = t.mask in
    let hole = ref j and i = ref ((j + 1) land mask) in
    while keys.(!i) <> free do
      let k = keys.(!i) in
      if dist ~mask (hash k land mask) !i >= dist ~mask !hole !i then begin
        keys.(!hole) <- k;
        data.(!hole) <- data.(!i);
        count.(!hole) <- count.(!i);
        hole := !i
      end;
      i := (!i + 1) land mask
    done;
    keys.(!hole) <- free;
    data.(!hole) <- empty;
    count.(!hole) <- 0;
    t.size <- t.size - 1

  let set_rows t j n = if n = 0 then delete t j else t.count.(j) <- n

  (* A small table is emptied in place: the compact scan memo is
     cleared on every write and refilled by the next reads. *)
  let clear t =
    if t.size > 0 then begin
      if t.mask < 256 then begin
        Array.fill t.keys 0 (t.mask + 1) free;
        Array.fill t.data 0 (t.mask + 1) empty;
        Array.fill t.count 0 (t.mask + 1) 0
      end
      else begin
        t.keys <- Array.make min_slots free;
        t.data <- Array.make min_slots empty;
        t.count <- Array.make min_slots 0;
        t.mask <- min_slots - 1
      end;
      t.size <- 0
    end

  let fold t f init =
    let acc = ref init in
    Array.iteri
      (fun j k -> if k <> free then acc := f k t.data.(j) t.count.(j) !acc)
      t.keys;
    !acc

  (* Three slot arrays, plus each bucket's own array. *)
  let resident_words t =
    fold t (fun _ d _ acc -> acc + 1 + Array.length d) (3 * (t.mask + 2))
end
