(** Text syntax for queries, schemas and data, and the one lexer that
    every text format of the library reads through ([Core.State_io]'s
    state files included).

    This module only reads ({!token_to_string} names tokens in its
    messages, spelling a constant through {!Rdf.Term.to_string}).
    Each value has one printer, the [to_string] of its own module, and
    it writes this syntax: {!Rdf.Term.to_string},
    {!Rdf.Triple.to_string}, {!Rdf.Schema.to_string},
    {!Qterm.to_string}, {!Atom.to_string} and {!Cq.to_string} (one rule
    on one line), so whatever the library prints reads back here as the
    same value.

    {2 Queries (Datalog-style)}

    {v
    q1(X, Z) :- t(X, <ex:hasPainted>, <ex:starryNight>),
                t(X, <ex:isParentOf>, Y),
                t(Y, <ex:hasPainted>, Z).
    v}

    Identifiers starting with an uppercase letter (or prefixed with [?])
    are variables; [<...>] delimits URIs; ["..."] delimits literals;
    [_:label] is a blank node; bare lowercase words are URIs; the
    keyword [type] abbreviates [rdf:type].  A workload is a sequence of
    such rules; the final [.] of each rule is mandatory.

    {2 Schemas}

    {v
    <ex:painting> subClassOf <ex:picture> .
    <ex:isExpIn> subPropertyOf <ex:isLocatIn> .
    <ex:hasPainted> domain <ex:painter> .
    <ex:hasPainted> range <ex:painting> .
    v}

    {2 Data (N-Triples-style)}

    {v
    <ex:vanGogh> <ex:hasPainted> <ex:starryNight> .
    <ex:mona> type <ex:painting> .
    v}

    Spaces, tabs, carriage returns and newlines separate tokens, and
    [#] starts a comment that runs to the end of its line; {!token}
    lists every token the lexer reads.  Any other character is a
    located {!Parse_error}. *)

exception Parse_error of string
(** Raised with a message ["line N: ..."] naming the offending line once. *)

val parse_query : string -> Cq.t
(** Parse exactly one query. *)

val parse_workload : string -> Cq.t list
(** Parse a sequence of queries with distinct names. *)

val parse_schema : string -> Rdf.Schema.t

val parse_triples : string -> Rdf.Triple.t list

(** {2 Token streams}

    A reader over one string, for formats built on these tokens. *)

(** A word is a run of letters, digits, [_], [:] and [-] that stops
    before [->] and [:=]. *)
type token =
  | Ident of string  (** a word not read as below *)
  | Variable of string
      (** [?word] (non-empty), or a word starting with an uppercase
          letter; the name without [?] *)
  | Uri of string  (** [<...>], up to the next [>] *)
  | Literal of string  (** a double-quoted string, up to the next quote *)
  | Blank of string  (** a word [_:label], the label non-empty *)
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Comma
  | Dot
  | Equal
  | Turnstile  (** [:-] *)
  | Arrow  (** [->] *)
  | Assign  (** [:=] *)

val token_to_string : token -> string

type stream

val stream_of : string -> stream
(** Tokenizes the whole string.
    @raise Parse_error on a lex error. *)

val peek : stream -> token option
(** The next token, not consumed; [None] at the end. *)

val next : stream -> token
(** Consumes the next token.
    @raise Parse_error at the end of input. *)

val expect : stream -> token -> unit
(** Consumes the next token, which must be the given one. *)

val fail : stream -> string -> 'a
(** Raises {!Parse_error} with the message prefixed by the line of the
    last token consumed. *)

val parse_rule : stream -> Cq.t
(** One query rule, [name(head) :- body.]; errors of {!Cq.make} name the
    line of its final [.]. *)
