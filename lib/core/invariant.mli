(** Semantic invariant checking for search states.

    A state is valid for a workload exactly when (Definition 2.3) its
    view set rewrites every workload query: unfolding each rewriting —
    substituting every view scan by the view's conjunctive definition —
    must yield a union of conjunctive queries equivalent to the query's
    reference semantics.  Equivalence is certified constructively by
    Chandra–Merlin containment mappings in both directions
    ({!Query.Cq.contained_in}), disjunct-wise for unions
    (Sagiv–Yannakakis).  On top of that semantic core, the checker
    validates structural well-formedness ({!State.structural_violations}),
    cost-model sanity (finite, non-negative, self-consistent estimates)
    and state-graph edges (parent/child pairs replayable by a
    transition).

    Strict mode ([RDFVIEWS_STRICT=1] in the environment, read by
    {!Query.Evaluation.strict_enabled}) makes the search assert these
    invariants on every accepted state — see {!Search.run_from} — and
    makes {!Transition} check structural invariants on every state it
    produces. *)

type violation = {
  state_key : string;  (** {!State.key} of the offending state *)
  invariant : string;
      (** which invariant family: ["structure"], ["coverage"],
          ["rewriting"], ["equivalence"], ["cost"] or ["edge"] *)
  detail : string;  (** human-readable description *)
}

exception Violation of violation
(** Raised by {!assert_valid} (and, through it, by the search in strict
    mode) on the first violation found.  A printer is registered with
    [Printexc], so [Printexc.to_string] of a violation, and an uncaught
    one, show its {!violation_to_string}. *)

val violation_to_string : violation -> string
(** ["[family] detail"]. *)

type reference = (string * Query.Cq.t list) list
(** Per-query reference semantics: query name → disjuncts.  Singleton
    lists in the plain scenario; the reformulated union under
    pre-reformulation (§4.3). *)

val reference_of_workload : Query.Cq.t list -> reference
(** One singleton disjunct group per query — the plain (§3) scenario. *)

val reference_of_groups : (string * Query.Cq.t list) list -> reference
(** One group per query with the given disjuncts — the
    pre-reformulation (§4.3) scenario. *)

val reference_of_state : State.t -> (reference, string) result
(** Recover the reference from a valid state by unfolding its own
    rewritings — by construction the initial state's rewritings unfold
    to (a variable-renaming of) the workload itself, so the search can
    derive its strict-mode reference without extra plumbing. *)

val ucq_equivalent : Query.Cq.t list -> Query.Cq.t list -> bool
(** Disjunct-wise equivalence of two unions of conjunctive queries. *)

val check_costs : Cost.t -> State.t -> violation list
(** Per-view and per-state estimates are finite and non-negative, the
    total is the weighted sum of its parts.  The incremental cost the
    search derives for the state is checked against the full recompute
    by {!Cost.child} itself. *)

val check_edge : parent:State.t -> child:State.t -> violation list
(** The child's view set is producible from the parent by one transition
    (possibly followed by the aggressive-view-fusion collapse). *)

val check : ?estimator:Cost.t -> reference -> State.t -> violation list
(** All of the above except edges: structure, equivalence and — when an
    estimator is supplied and the structure is sound — costs (an
    ill-formed state has no defined cost). *)

val assert_valid : ?estimator:Cost.t -> reference -> State.t -> unit
(** @raise Violation on the first problem {!check} finds. *)
