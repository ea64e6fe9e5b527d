(* Inventory fixture for tool/analyze: record fields of container type
   that are neither mutable nor [@guarded_by] still hold shared state
   (the record is immutable, its table and array are not).  Expected:
   exit 0, and the inventory lists [r.tbl] and [r.arr] as container
   fields and [r.name] not at all. *)

type r = { tbl : (int, int) Hashtbl.t; arr : int array; name : string }

let make () = { tbl = Hashtbl.create 8; arr = Array.make 4 0; name = "r" }
