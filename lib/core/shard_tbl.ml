(* Sharded, spinlock-guarded dedup table over state keys.

   The search keeps its seen-set here at any job count; under
   parallel search every domain probes and updates the same
   logical set, so the table is split into [shard_count] independent
   buckets, each behind its own spinlock.  A key's shard is chosen by
   its precomputed hash, so two domains only contend when they touch
   keys that land in the same bucket.

   The one non-trivial operation is [visit]: the find-and-update must
   be a single critical section, otherwise two domains could both see
   a key as absent and both report [`New].  Holding the shard lock
   across the probe and the write makes the rank-reopen rule atomic. *)

let shard_count = 16 (* power of two: shard choice is a mask *)

type shard = {
  lock : Multicore.Spinlock.t;
  b_tbl : int State.Tbl.t [@guarded_by "lock"];
      (* key -> best (lowest) rank seen so far *)
}

type t = { shards : shard array; population : int Atomic.t }

let create () =
  {
    shards =
      Array.init shard_count (fun _ ->
          { lock = Multicore.Spinlock.create (); b_tbl = State.Tbl.create 512 });
    population = Atomic.make 0;
  }

let shard_of t key = t.shards.(State.hash_key key land (shard_count - 1))

type outcome = New | Reopened | Duplicate

let visit t key rank =
  let s = shard_of t key in
  let outcome =
    Multicore.Spinlock.with_lock s.lock (fun () ->
        match State.Tbl.find_opt s.b_tbl key with
        | Some old_rank when old_rank <= rank -> Duplicate
        | Some _ ->
          State.Tbl.replace s.b_tbl key rank;
          Reopened
        | None ->
          State.Tbl.replace s.b_tbl key rank;
          New)
  in
  if outcome = New then Atomic.incr t.population;
  outcome
[@@domain_safe]

let population t = Atomic.get t.population [@@domain_safe]
