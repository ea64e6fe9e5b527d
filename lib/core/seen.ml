(* Spinlock-guarded seen-table over state keys.

   The search keeps its seen-set here at any job count; under parallel
   search every domain probes and updates the same table, behind one
   lock.

   The one non-trivial operation is [visit]: the find-and-update must
   be a single critical section, otherwise two domains could both see
   a key as absent and both report [New].  Holding the lock across the
   probe and the write makes the rank-reopen rule atomic. *)

type t = {
  lock : Multicore.Spinlock.t;
  ranks : int State.Tbl.t [@guarded_by "lock"];
      (* key -> best (lowest) rank seen so far *)
}

let create () =
  { lock = Multicore.Spinlock.create (); ranks = State.Tbl.create 512 }

type outcome = New | Reopened | Duplicate

let visit t key rank =
  Multicore.Spinlock.with_lock t.lock (fun () ->
      match State.Tbl.find_opt t.ranks key with
      | Some old_rank when old_rank <= rank -> Duplicate
      | seen ->
        State.Tbl.replace t.ranks key rank;
        if Option.is_some seen then Reopened else New)
[@@domain_safe]

(* every [New] adds a key, and only a [New] does *)
let population t =
  Multicore.Spinlock.with_lock t.lock (fun () -> State.Tbl.length t.ranks)
[@@domain_safe]
