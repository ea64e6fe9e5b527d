(* Inert shim; see mqo.mli. *)

let reset () = ()
let set_enabled (_ : bool) = ()
let stats () = (0, 0)
