(* Seeded-violation fixture for the retained-exec-row lint rule: every
   storing form below keeps the raw emitted row, which Plan.exec
   reuses for the next binding.  Never compiled — the linter only
   parses it; check_fixtures.sh asserts each site is flagged. *)

let consed plan store =
  let acc = ref [] in
  Query.Plan.exec plan store (fun row -> acc := row :: !acc);
  !acc

type holder = { mutable last : int array }

let field_set plan store h =
  Query.Plan.exec plan store (fun row -> h.last <- row)

let ref_set plan store =
  let last = ref [||] in
  Query.Plan.exec plan store (fun row -> last := row);
  !last

let hashed plan store tbl =
  Query.Plan.exec plan store (fun row -> Hashtbl.add tbl row.(0) row)

let arrayed plan store out =
  let i = ref 0 in
  Query.Plan.exec plan store (fun row ->
      Array.set out !i row;
      incr i)
