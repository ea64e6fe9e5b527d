(* Seeded violations for tool/analyze: a [@guarded_by] queue written
   outside its critical section, once by [Queue.push], which takes the
   queue as its second argument, and once by [Queue.take_opt].
   Expected: exactly two `unguarded-write`s, at [bad_push] and
   [bad_take]; [good] is discharged by with_lock. *)

module Spin = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let with_lock (_ : t) f = f ()
end

type cell = {
  lock : Spin.t;
  q : int Queue.t [@guarded_by "lock"];
}

let c = { lock = Spin.create (); q = Queue.create () }

let good n =
  Spin.with_lock c.lock (fun () ->
      Queue.push n c.q;
      Queue.take_opt c.q)

let bad_push n = Queue.push n c.q
let bad_take () = Queue.take_opt c.q
