(** Query terms: variables and constants.

    Following §2, query atoms range over free (head) variables,
    existential variables and constants; blank nodes need no dedicated
    representation since they behave exactly like existential
    variables. *)

type t =
  | Var of string          (** a variable, identified by name *)
  | Cst of Rdf.Term.t      (** an RDF constant *)

val compare : t -> t -> int
val equal : t -> t -> bool

val var : string -> t
val cst : Rdf.Term.t -> t

val var_name : t -> string option
val constant : t -> Rdf.Term.t option

val fresh_var : unit -> string
(** A globally fresh variable name (drawn from a process-wide counter). *)

val reset_fresh_counter : unit -> unit
(** Reset the fresh-name counter; only for reproducible tests. *)

val to_string : t -> string
(** [?x] for a variable, {!Rdf.Term.to_string} for a constant: a term
    of the query syntax. *)
