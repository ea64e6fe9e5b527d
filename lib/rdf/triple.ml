type t = { s : Term.t; p : Term.t; o : Term.t }

let well_formed { s; p; o = _ } =
  (Term.is_uri s || Term.is_blank s) && Term.is_uri p

let to_string t =
  String.concat " "
    [ Term.to_string t.s; Term.to_string t.p; Term.to_string t.o; "." ]

let make s p o =
  let t = { s; p; o } in
  if not (well_formed t) then
    invalid_arg ("Triple.make: ill-formed triple " ^ to_string t);
  t

let compare a b =
  let c = Term.compare a.s b.s in
  if c <> 0 then c
  else
    let c = Term.compare a.p b.p in
    if c <> 0 then c else Term.compare a.o b.o

let equal a b = compare a b = 0

let hash t =
  ((((Term.hash t.s * 31) + Term.hash t.p) * 31) + Term.hash t.o) land max_int
