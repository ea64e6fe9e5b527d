(* Seeded violations for tool/analyze: a [@guarded_by] stack written
   outside its critical section, once by [Stack.push], which takes the
   stack as its second argument, and once by [Stack.pop_opt].
   Expected: exactly two `unguarded-write`s, at [bad_push] and
   [bad_pop]; [good] is discharged by with_lock. *)

module Spin = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let with_lock (_ : t) f = f ()
end

type cell = {
  lock : Spin.t;
  s : int Stack.t [@guarded_by "lock"];
}

let c = { lock = Spin.create (); s = Stack.create () }

let good n =
  Spin.with_lock c.lock (fun () ->
      Stack.push n c.s;
      Stack.pop_opt c.s)

let bad_push n = Stack.push n c.s
let bad_pop () = Stack.pop_opt c.s
