(* Clean counterpart to fix_retained_row.ml: the same callback shapes,
   but every stored value is an [Array.copy] of the emitted row (or a
   scalar read out of it), which is the contract the rule enforces.
   Must lint clean. *)

let consed plan store =
  let acc = ref [] in
  Query.Plan.exec plan store (fun row -> acc := Array.copy row :: !acc);
  !acc

type holder = { mutable last : int array }

let field_set plan store h =
  Query.Plan.exec plan store (fun row -> h.last <- Array.copy row)

let scalar_read plan store =
  let total = ref 0 in
  Query.Plan.exec plan store (fun row -> total := !total + row.(0));
  !total

let hashed plan store tbl =
  Query.Plan.exec plan store (fun row ->
      Hashtbl.add tbl row.(0) (Array.copy row))
