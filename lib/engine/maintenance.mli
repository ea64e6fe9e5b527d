(** Incremental view maintenance under triple insertions and deletions —
    the operations whose cost the VMC component of §3.3 models.

    Insertion uses the standard delta rule: for each view atom matching
    the new triple, the view's own body is evaluated with that atom's
    variables set to the triple's codes; the union of the deltas is
    added to the materialized relation.  Deletion takes the candidate
    tuples that used the removed triple and re-evaluates the body, head
    variables set to each, against the shrunken store, removing those no
    longer derivable.

    {b The memo.}  Each (store, view) pair is prepared once: the view's
    body constants are resolved to dictionary codes, and each atom's
    delta plan (its distinct variables as parameters) and the view's
    re-check plan (its head variables as parameters) are compiled with
    {!Query.Plan.compile} [~params] on first use and kept.  An update
    matches atoms by comparing codes and runs the kept plans with its
    own codes ({!Query.Evaluation.eval_params_into}, which checks them
    against the reference evaluator under [RDFVIEWS_STRICT=1]): after a
    view's first update, an update compiles no plan, interns nothing and
    looks up no view constant.  Entries are keyed by the view's head and
    body, not by an isomorphism class, so two isomorphic views whose
    head variables differ in name or order keep their own plans.

    Staleness: the dictionary is append-only, so a resolved code never
    goes stale.  Only an entry that found a body constant absent (the
    view is then empty and has no plan) is prepared again, and only once
    the dictionary has grown.  Plans never re-order.  The memo is
    domain-local, and holds at most 64 stores' entries (then it
    restarts empty). *)

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

val prepared_count : Rdf.Store.t -> int
(** Number of views prepared for this store in the calling domain's
    memo. *)

val compiled_count : Rdf.Store.t -> int
(** Number of plans the calling domain's memo has compiled for this
    store. *)
