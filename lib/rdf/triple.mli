(** RDF triples [(s, p, o)] over {!Term}. *)

type t = { s : Term.t; p : Term.t; o : Term.t }

val make : Term.t -> Term.t -> Term.t -> t
(** [make s p o] builds the triple; raises [Invalid_argument] when the
    triple is not well-formed (see {!well_formed}). *)

val well_formed : t -> bool
(** Per the RDF specification: the subject is a URI or blank node, the
    property is a URI, the object is any term. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val to_string : t -> string
(** N-Triples-style, [s p o .], each term by {!Term.to_string}: one line
    of the data syntax [Query.Parser] reads. *)
