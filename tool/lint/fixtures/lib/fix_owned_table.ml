(* The clean counterpart of fix_toplevel_table.ml: every table is built
   by a function, so the value that calls it owns the table. *)

let create () = { tbl = Hashtbl.create 16; rows = Rdf.Rowset.create 3 }

let fresh_keys n = State.Tbl.create n

let per_domain = Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let count_distinct xs =
  let seen = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace seen x ()) xs;
  Hashtbl.length seen

module Make (K : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (K)

  let shared = Tbl.create 16
end
