(* lint: allow missing-mli — copy-rule source; the interface is multicore.mli
   OCaml 4.x backend: no domains.  Selected by a dune rule when
   %{ocaml_version} < 5.0; the API compiles but [spawn] raises, so
   callers must branch on [available] (the search then runs its loop on
   one domain).  [Atomic] has been in the stdlib since 4.12,
   so the spinlock compiles — uncontended, it is a single CAS.
   lint: allow missing-mli -- template copied to multicore.ml by dune *)

let available = false

let recommended_domain_count () = 1

let cpu_relax () = ()

type 'a handle = 'a

let spawn _f =
  failwith "Multicore.spawn: parallel domains require OCaml >= 5.0"

let join h = h

module Dls = struct
  type 'a key = { mutable value : 'a option; init : unit -> 'a }

  let new_key init = { value = None; init }

  let get k =
    match k.value with
    | Some v -> v
    | None ->
      let v = k.init () in
      k.value <- Some v;
      v

  let set k v = k.value <- Some v
end

module Spinlock = struct
  type t = bool Atomic.t

  let create () = Atomic.make false

  let rec acquire t =
    if not (Atomic.compare_and_set t false true) then acquire t

  let release t = Atomic.set t false

  let with_lock t f =
    acquire t;
    Fun.protect ~finally:(fun () -> release t) f
end
