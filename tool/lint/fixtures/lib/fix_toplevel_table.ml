(* Seeded toplevel-table violations: every table below is built once,
   when the module is initialised, and lives as long as the process. *)

let names = Hashtbl.create 16

let seen : (int, unit) Hashtbl.t = Hashtbl.create 16

let registry = { lock = Spinlock.create (); tbl = Hashtbl.create 1024 }

let keys = State.Tbl.create 64

let rows = Rdf.Rowset.create 3

let buckets = Rdf.Rowset.Buckets.create ()

module Memo = struct
  let forms = Hashtbl.create 8
end

let pair = (Hashtbl.create 1, 0)
