(* Hash-consing of canonical strings.

   Canonical forms (View.canonical, View.canonical_body) are long
   strings; computing them once per view is unavoidable, but comparing,
   sorting and hashing them on every state key is not.  The interner
   assigns each distinct canonical string a dense non-negative id, so
   all downstream identity work (State.key, Search.seen dedup,
   Transition.fusion_pairs) becomes integer work.

   The table is process-global on purpose: view canonicalization is
   deterministic and rename-invariant, so two views with the same
   semantics always receive the same id no matter which search,
   estimator or State_io reload produced them.  Ids are never reused;
   [reset] exists only so reproducible tests can restart the numbering
   together with [View.reset_counter].

   Domain safety: the string -> id map is split across SHARD_COUNT
   sub-tables, each guarded by its own test-and-set spinlock, so
   concurrent interning from parallel search domains contends only when
   two strings hash to the same shard.  Id allocation and the reverse
   id -> string array are guarded by one further lock ([rev_lock]),
   taken only on first sight of a string — the hot path (an
   already-interned string) touches exactly one shard lock.  Lock order
   is always shard -> rev, so the two levels cannot deadlock.  The
   library stays dependency-free: the spinlocks are plain [Atomic]
   cells (stdlib since 4.12), making this module safe on OCaml 4.14 and
   parallel on 5.x alike. *)

type id = int

(* ---------- spinlocks ---------------------------------------------------- *)

let rec lock_acquire l =
  if not (Atomic.compare_and_set l false true) then lock_acquire l

let lock_release l = Atomic.set l false

let with_lock l f =
  lock_acquire l;
  Fun.protect ~finally:(fun () -> lock_release l) f

(* ---------- sharded string -> id map ------------------------------------- *)

let shard_count = 16 (* power of two; shard_of masks with count - 1 *)

type shard = {
  s_lock : bool Atomic.t;
  s_tbl : (string, id) Hashtbl.t [@guarded_by "s_lock"];
}

let shards =
  Array.init shard_count (fun _ ->
      { s_lock = Atomic.make false; s_tbl = Hashtbl.create 512 })

(* FNV-1a; a dedicated hash keeps the shard choice stable across OCaml
   versions (and clear of the repo's poly-hash lint rule). *)
let string_hash s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land max_int)
    s;
  !h

let shard_of s = shards.(string_hash s land (shard_count - 1))

(* ---------- id allocation and reverse lookup ----------------------------- *)

(* Reverse lookup, a growable array indexed by id.  Guarded by
   [rev_lock]: growth swaps the array ref, so lock-free readers could
   observe a stale (smaller) array for a fresh id. *)
let rev_lock = Atomic.make false
let names = ref (Array.make 1024 "") [@@guarded_by "rev_lock"]
let count = Atomic.make 0

let of_canonical s =
  let shard = shard_of s in
  with_lock shard.s_lock @@ fun () ->
  match Hashtbl.find_opt shard.s_tbl s with
  | Some i -> i
  | None ->
    let i =
      with_lock rev_lock @@ fun () ->
      let i = Atomic.get count in
      if i = Array.length !names then begin
        let bigger = Array.make (2 * i) "" in
        Array.blit !names 0 bigger 0 i;
        names := bigger
      end;
      !names.(i) <- s;
      Atomic.set count (i + 1);
      i
    in
    Hashtbl.add shard.s_tbl s i;
    i
[@@domain_safe]

let canonical_of i =
  if i < 0 || i >= Atomic.get count then
    invalid_arg (Printf.sprintf "Interning.canonical_of: unknown id %d" i);
  with_lock rev_lock (fun () -> !names.(i))
[@@domain_safe]

let mem s =
  let shard = shard_of s in
  with_lock shard.s_lock (fun () -> Hashtbl.mem shard.s_tbl s)
[@@domain_safe]

let size () = Atomic.get count [@@domain_safe]

(* coordinator_only: callers must know no other domain is interning. *)
let reset () =
  (* lock every shard, then rev — same shard -> rev order as
     [of_canonical], so a concurrent interning cannot deadlock us (it
     only ever holds one shard).  Only for single-domain test setup
     anyway. *)
  Array.iter (fun shard -> lock_acquire shard.s_lock) shards;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun shard -> lock_release shard.s_lock) shards)
    (fun () ->
      (* the shard locks ARE held here, via the manual acquire above —
         invisible to the analyzer's lexical with_lock matching *)
      (* analyze: allow unguarded-write *)
      Array.iter (fun shard -> Hashtbl.reset shard.s_tbl) shards;
      with_lock rev_lock (fun () -> Atomic.set count 0))
[@@coordinator_only]
