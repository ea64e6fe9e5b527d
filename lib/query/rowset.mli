(** {!Rdf.Rowset} under its former name, kept for the ledger's one use. *)
include module type of struct include Rdf.Rowset end
