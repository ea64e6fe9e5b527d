(* Seeded array-sort violations: each call below sorts with the
   stdlib heap sort. *)

let codes a = Array.sort Int.compare a

let by cmp a = Stdlib.Array.sort cmp a

let partial = Array.sort

module Sorted = struct
  let names a = Array.sort String.compare a
end
