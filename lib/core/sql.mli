(** SQL generation: ship the recommended views and rewritings to a
    relational back-end.

    The paper deploys over PostgreSQL with a single triple table (§6) and
    notes that the framework "could easily translate our rewritings
    directly to any RDF platform's logical plans".  This module emits
    portable SQL92:

    - {!view_ddl} renders a (possibly UCQ) view definition as
      [CREATE MATERIALIZED VIEW … AS SELECT … FROM triples …];
    - {!rewriting_query} renders a rewriting as a [SELECT] over the view
      relations;
    - {!deployment_script} bundles a whole selector result.

    Constants are emitted as string literals of their Turtle rendering;
    the triple table is [triples(s, p, o)]. *)

val view_ddl : Query.Ucq.t -> string
(** [CREATE MATERIALIZED VIEW <name>(<cols>) AS <select> [UNION …];]. *)

val cq_select : Query.Cq.t -> string
(** The [SELECT … FROM triples …] body for one conjunctive query. *)

val rewriting_query : Rewriting.env -> string -> Rewriting.t -> string
(** [rewriting_query env qname r] renders the rewriting of query [qname]
    as a [SELECT] over the view relations. *)

val deployment_script : Selector.result -> string
(** All view DDL statements followed by one commented query per
    rewriting. *)
