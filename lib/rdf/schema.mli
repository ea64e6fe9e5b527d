(** RDF Schemas: the four semantic relationships of Table 1.

    An RDFS specifies class inclusions, property inclusions and
    domain/range typing of properties.  Classes and properties are URIs. *)

type statement =
  | Subclass of Term.t * Term.t     (** [(c1, rdfs:subClassOf, c2)] *)
  | Subproperty of Term.t * Term.t  (** [(p1, rdfs:subPropertyOf, p2)] *)
  | Domain of Term.t * Term.t       (** [(p, rdfs:domain, c)] *)
  | Range of Term.t * Term.t        (** [(p, rdfs:range, c)] *)

type t

val empty : t

val add : t -> statement -> t
(** Functional update; duplicate statements are ignored. *)

val of_statements : statement list -> t

val statements : t -> statement list

val size : t -> int
(** Number of statements, the [|S|] of Theorem 4.1. *)

val classes : t -> Term.t list
(** All classes mentioned by the schema (in inclusions or typings). *)

val properties : t -> Term.t list
(** All properties mentioned by the schema. *)

val direct_subclasses : t -> Term.t -> Term.t list
(** [direct_subclasses s c2] returns all [c1] with [c1 rdfs:subClassOf c2]. *)

val direct_superclasses : t -> Term.t -> Term.t list

val direct_subproperties : t -> Term.t -> Term.t list
(** [direct_subproperties s p2] returns all [p1] with
    [p1 rdfs:subPropertyOf p2]. *)

val direct_superproperties : t -> Term.t -> Term.t list

val domains_of : t -> Term.t -> Term.t list
(** Classes [c] with [(p, rdfs:domain, c)]. *)

val ranges_of : t -> Term.t -> Term.t list

val properties_with_domain : t -> Term.t -> Term.t list
(** Properties [p] with [(p, rdfs:domain, c)] for the given class [c]. *)

val properties_with_range : t -> Term.t -> Term.t list

val superclasses_closure : t -> Term.t -> Term.t list
(** Strict transitive closure of class inclusion (the class itself is not
    included). *)

val subclasses_closure : t -> Term.t -> Term.t list

val superproperties_closure : t -> Term.t -> Term.t list

val to_triples : t -> Triple.t list
(** The schema rendered as RDF triples with the RDFS vocabulary. *)

val of_triples : Triple.t list -> t
(** Extract the schema statements found among the given triples; triples
    that are not RDFS statements are ignored. *)

val to_string : t -> string
(** One statement a line, [a subClassOf b .], [a subPropertyOf b .],
    [p domain c .] or [p range c .], each term by {!Term.to_string}:
    the schema syntax [Query.Parser] reads. *)
