(** The paper's pipeline after selection (§4.3, §6.6): it materializes
    the recommended views on the store the selection chose for them
    ({!Core.Selector.result}'s [store_for_materialization], decided per
    reasoning mode by the selector's statistics step), and it is the one
    place that decides how a query is answered (its rewriting over the
    views) and which views an update can maintain. *)

type t

exception Unknown_query of string
(** A query the selection has no rewriting for, by name. *)

exception Not_maintainable of string
(** Raised by {!insert} and {!delete} before the store changes, with
    the mode: under [Saturation] the views sit on a saturated copy, and
    under post-reformulation the message names a view that is a union. *)

val materialize : Core.Selector.result -> t
(** Materialize the recommended views on [store_for_materialization]. *)

val store : t -> Rdf.Store.t
val views : t -> Materialize.env

val execute : t -> string -> Relation.t
(** The query's answers through its rewriting ({!Executor.execute}). *)

val answer : t -> string -> Rdf.Term.t array list
(** The same answers, decoded ({!Executor.execute_query}). *)

val insert : t -> Rdf.Triple.t -> int
val delete : t -> Rdf.Triple.t -> int
(** Update the store and maintain every view, each a CQ over it
    ({!Maintenance}); the number of view tuples added or removed. *)
