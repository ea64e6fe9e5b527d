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
val uri : string -> t
(** [uri u] is [Cst (Uri u)]. *)

val var_name : t -> string option
val constant : t -> Rdf.Term.t option

val fresh_var : unit -> string
(** A globally fresh variable name (drawn from a process-wide counter). *)

val reset_fresh_counter : unit -> unit
(** Reset the fresh-name counter; only for reproducible tests. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
