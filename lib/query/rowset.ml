(* Rdf.Rowset under its former name, kept for the ledger's one use. *)
include Rdf.Rowset
