(** View materialization (§6.6): evaluate view definitions against the
    store and produce named relations ready for the executor. *)

type env = (string, Relation.t) Hashtbl.t

val materialize_cq : Rdf.Store.t -> Query.Cq.t -> Relation.t
(** Materialize a conjunctive view; columns are the head variable
    names. *)

val materialize_ucq : Rdf.Store.t -> Query.Ucq.t -> Relation.t
(** Materialize a UCQ view (a reformulated view, §4.3): the set union of
    its disjuncts, evaluated one plan per shape, under the name and
    columns of the first disjunct ({!Query.Ucq.first}). *)

val materialize_views : Rdf.Store.t -> Query.Ucq.t list -> env
(** Materialize a recommended view set (the [recommended] field of
    {!Core.Selector.result}). *)

val materialize_state : Rdf.Store.t -> Core.State.t -> env
(** Materialize every view of a state directly (no reformulation). *)

val total_size_bytes : Rdf.Store.t -> env -> int
val total_cardinality : env -> int
