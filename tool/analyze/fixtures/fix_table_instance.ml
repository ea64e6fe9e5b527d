(* Seeded violation for tool/analyze: a [Hashtbl.Make] instance whose
   name does not say it is a table.  Its [reset] on a [@guarded_by]
   field outside the lock must still count as a write.  Expected:
   exactly one `unguarded-write` at [bad]; [good] holds the lock. *)

module Spin = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let with_lock (_ : t) f = f ()
end

module Forms = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

type cell = {
  lock : Spin.t;
  plans : int Forms.t; [@guarded_by "lock"]
}

let c = { lock = Spin.create (); plans = Forms.create 8 }
let good k = Spin.with_lock c.lock (fun () -> Forms.replace c.plans k 1)
let bad () = Forms.reset c.plans
