(** Text syntax for queries, schemas and data.

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

    Lines starting with [#] are comments everywhere. *)

exception Parse_error of string
(** Raised with a message including the offending position. *)

val parse_query : string -> Cq.t
(** Parse exactly one query. *)

val parse_workload : string -> Cq.t list
(** Parse a sequence of queries with distinct names. *)

val parse_schema : string -> Rdf.Schema.t

val parse_triples : string -> Rdf.Triple.t list

val query_to_text : Cq.t -> string
(** Render a query back into parsable syntax
    ([parse_query (query_to_text q)] is syntactically [q]). *)

val schema_to_text : Rdf.Schema.t -> string

val triples_to_text : Rdf.Triple.t list -> string
