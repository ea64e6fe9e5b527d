(** Incremental view maintenance under triple insertions and deletions —
    the operations whose cost the VMC component of §3.3 models.

    Insertion uses the standard delta rule: for each view atom matching
    the new triple, the view's own body is evaluated with that atom's
    variables bound to the triple's codes
    ({!Query.Evaluation.eval_cq_codes} [~bound]); the union of the
    deltas is added to the materialized relation.  Deletion takes the
    candidate tuples that used the removed triple and re-evaluates the
    body, head bound to each, against the shrunken store, removing
    those no longer derivable.  Nothing is interned or cached. *)

val insert_triple :
  Rdf.Store.t -> (Query.Cq.t * Relation.t) list -> Rdf.Triple.t -> int
(** Add the triple to the store and propagate to every view; returns the
    total number of tuples added across views.  A triple already present
    changes nothing. *)

val delete_triple :
  Rdf.Store.t -> (Query.Cq.t * Relation.t) list -> Rdf.Triple.t -> int
(** Remove the triple from the store and propagate; returns the total
    number of tuples removed. *)

val delta_insert : Rdf.Store.t -> Query.Cq.t -> Rdf.Store.encoded -> int array list
(** The tuples the view gains when the (already inserted) triple arrives;
    exposed for testing. *)
