(* lint: allow missing-mli — copy-rule source; the interface is multicore.mli
   OCaml 5 backend: real domains.  Selected by a dune rule when
   %{ocaml_version} >= 5.0; see multicore.ocaml4.ml for the sequential
   fallback and multicore.mli for the contract.
   lint: allow missing-mli -- template copied to multicore.ml by dune *)

let available = true

let recommended_domain_count () = Domain.recommended_domain_count ()

let cpu_relax () = Domain.cpu_relax ()

type 'a handle = 'a Domain.t

let spawn f = Domain.spawn f

let join h = Domain.join h

module Dls = struct
  type 'a key = 'a Domain.DLS.key

  let new_key f = Domain.DLS.new_key f

  let get k = Domain.DLS.get k

  let set k v = Domain.DLS.set k v
end

module Spinlock = struct
  type t = bool Atomic.t

  let create () = Atomic.make false

  let rec acquire t =
    if not (Atomic.compare_and_set t false true) then begin
      Domain.cpu_relax ();
      acquire t
    end

  let release t = Atomic.set t false

  let with_lock t f =
    acquire t;
    Fun.protect ~finally:(fun () -> release t) f
end
