(** RDF terms: URIs, blank nodes and literals.

    Terms are the values appearing in the subject, property and object
    positions of RDF triples.  Following the RDF recommendation, subjects
    are URIs or blank nodes, properties are URIs, and objects are URIs,
    blank nodes or literals.  Well-formedness of a whole triple is checked
    in {!Triple}. *)

type t =
  | Uri of string      (** a resource identifier *)
  | Blank of string    (** a blank node, standing for an unknown constant *)
  | Literal of string  (** a literal value *)

val compare : t -> t -> int
(** Total order on terms: URIs < blank nodes < literals, then by label. *)

val equal : t -> t -> bool

val hash : t -> int

val uri : string -> t
(** [uri u] is [Uri u]. *)

val is_uri : t -> bool
val is_blank : t -> bool
val is_literal : t -> bool

val label : t -> string
(** The raw label of the term, without any syntactic decoration. *)

val rdf_type : t
(** [rdf:type], the one URI with a keyword of its own in the text
    syntax; {!Vocabulary.rdf_type} is this term. *)

val to_string : t -> string
(** The term as [Query.Parser] reads it: [<u>], ["l"], [_:b], and the
    keyword [type] for {!rdf_type}.  The one printer of terms: every
    message and output of the library spells a term through it.  A
    label holding the lexer's closing character (a [>] in a URI, a
    double quote in a literal) does not read back; nothing is escaped. *)

val key : t -> string
(** An injective, self-delimiting rendering for canonical forms and memo
    keys: a kind tag ([U], [B] or [L]), the label's length, [:], then
    the label.  Two terms have the same key only when they are
    {!equal}, and a key can be followed by any text without
    ambiguity. *)

val add_key : Buffer.t -> t -> unit
(** Appends {!key} to the buffer without building it as a string. *)

val size : t -> int
(** Storage footprint of the term in bytes (its label length); used by the
    view-space-occupancy component of the cost model. *)

module Table : Hashtbl.S with type key = t
(** Hash tables keyed by terms, built on {!equal} and {!hash}.  Use this
    instead of the generic [Hashtbl] (whose default polymorphic hash is
    banned on domain types — see tool/lint). *)
