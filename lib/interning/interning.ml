(* Hash-consing of canonical strings.

   Canonical forms (Query.Cq.canonical_head_set_string,
   Query.Cq.canonical_body_string) are long strings; computing them once
   per view is unavoidable, but comparing, sorting and hashing them on
   every state key is not.  The interner assigns each distinct canonical
   string a dense non-negative id, so all downstream identity work
   (State.key, Search.seen dedup, the fusion pairs Transition finds by
   body id) becomes integer work.

   The table is process-global on purpose: view canonicalization is
   deterministic and rename-invariant, so two views with the same
   semantics always receive the same id no matter which search,
   estimator or State_io reload produced them.  Ids are never reused;
   [reset] exists only so reproducible tests can restart the numbering.

   Domain safety: one table under one spinlock.  A string is interned
   once per new view or query value, never once per state, so the lock
   sees little traffic even under parallel search. *)

type id = int

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

type table = {
  lock : Multicore.Spinlock.t;
  s_tbl : (string, id) Hashtbl.t [@guarded_by "lock"];
}

let table = { lock = Multicore.Spinlock.create (); s_tbl = Hashtbl.create 1024 }

(* Ids are dense: the next id is the number of strings already held. *)
let of_canonical s =
  Multicore.Spinlock.with_lock table.lock @@ fun () ->
  match Hashtbl.find_opt table.s_tbl s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length table.s_tbl in
    Hashtbl.add table.s_tbl s i;
    i
[@@domain_safe]

let size () =
  Multicore.Spinlock.with_lock table.lock (fun () -> Hashtbl.length table.s_tbl)
[@@domain_safe]

(* coordinator_only: callers must know no other domain is interning. *)
let reset () =
  Multicore.Spinlock.with_lock table.lock (fun () -> Hashtbl.reset table.s_tbl)
[@@coordinator_only]
