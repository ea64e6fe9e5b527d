(** Execution of view-based rewritings over materialized relations
    (§6.6): the runtime counterpart of {!Core.Rewriting}.

    Selections filter, projections deduplicate, joins are hash joins,
    unions deduplicate.  Constants in selection conditions are resolved
    through the store's dictionary. *)

val execute :
  Rdf.Store.t -> Materialize.env -> Core.Rewriting.t -> Relation.t
(** Evaluate the rewriting; raises [Failure] on an unknown view symbol or
    column.

    The result is read in place: when the rewriting's rows are a view's
    own rows (a scan, possibly renamed or under a selection every row
    passes) the result shares that view's row set, and any other row is
    hashed once.  Read it before the views in [env] are next maintained,
    and never write it ({!Relation.add_row}, {!Relation.remove_row}). *)

val execute_query :
  Rdf.Store.t -> Materialize.env -> Core.Rewriting.t -> Rdf.Term.t array list
(** Like {!execute} but returning decoded tuples, for comparison against
    {!Query.Evaluation.eval_cq}.  The tuples are fresh arrays, decoded
    before the call returns, so they outlive any later maintenance. *)
