(** Evaluation of conjunctive queries and UCQs over a triple store.

    This is [evaluate] in the sense of Theorem 4.2: standard evaluation
    of plain RDF basic graph patterns, with set semantics.  Since the
    compiled-plan rework, every entry point routes through
    a compiled plan, cached unless the caller brings its own
    parameterized plan ({!eval_params_into}) or asks for a one-shot
    evaluation ([~cache:false]): the join order
    is fixed at compile time, bindings
    live in an int-slot frame, and isomorphic queries share one cached
    plan per store.  The former interpretive joiner survives as
    {!Reference}; with [RDFVIEWS_STRICT=1] in the environment, every
    evaluated query is run through both engines and any answer-set
    disagreement raises {!Differential_mismatch}.

    Every answer set is computed once, as distinct dictionary-encoded
    rows: the term-level entry points decode those rows and the counts
    are their number, in both engines.  Head constants (from
    reformulation rules 5 and 6) are encoded into the store's
    dictionary on the way. *)

val strict_enabled : unit -> bool
(** Whether [RDFVIEWS_STRICT] is set to a truthy value (anything but
    [""], ["0"] and ["false"]): the one reader of the variable.  Read
    on every call, so a process may turn strict mode on or off at any
    time; a search reads it once per run. *)

val eval_cq : Rdf.Store.t -> Cq.t -> Rdf.Term.t array list
(** All distinct answer tuples of the query on the store: the decoded
    rows of {!eval_cq_codes}. *)

val eval_ucq : Rdf.Store.t -> Ucq.t -> Rdf.Term.t array list
(** Set-semantics union of the disjuncts' answers, computed with one
    plan per shape ({!Ucq.shapes}); {!Reference} evaluates the
    disjuncts one by one. *)

val eval_cq_codes : Rdf.Store.t -> Cq.t -> int array list
(** The distinct answer rows, dictionary-encoded. *)

val eval_cq_rowset : Rdf.Store.t -> Cq.t -> Rdf.Rowset.t
(** The same rows in the set the plan filled, which the caller then
    owns: [Engine.Materialize] keeps it as the view's storage. *)

val eval_ucq_rowset : ?cache:bool -> Rdf.Store.t -> Ucq.t -> Rdf.Rowset.t
(** The distinct answer rows of the union, in one set the caller owns.
    [~cache:false] compiles every shape's plan afresh and caches
    none on the store: for a one-shot query
    such as the saturation [Stats.Statistics] reads its post-reformulation
    statistics from.  Default [true], through cached plans. *)

val eval_params_into :
  Rdf.Store.t -> Cq.t -> Plan.t -> params:string list -> int array -> Rdf.Rowset.t -> unit
(** [eval_params_into store q plan ~params args rows] adds to [rows] the
    answers of [q] with each [params] variable fixed to the code at the
    same index of [args], by executing [plan] — which the caller
    compiled from [q] with {!Plan.compile} [~params] and keeps, so a
    call compiles and caches nothing.  [Engine.Maintenance]
    runs every delta and deletion re-check this way, from its memo of
    prepared views.  A kept plan stays valid while the store's
    dictionary only grows, since a resolved code never changes; a plan
    that found a body constant absent answers nothing until it is
    compiled again, which is why the memo re-prepares a view that found
    one absent once the dictionary has grown.  Under [RDFVIEWS_STRICT=1] the call's rows are
    checked against {!Reference.eval_cq_codes} [~bound] with the same
    codes. *)

val eval_ucq_codes : Rdf.Store.t -> Ucq.t -> int array list
(** The rows of {!eval_ucq_rowset}, through cached plans. *)

val same_answers : Rdf.Term.t array list -> Rdf.Term.t array list -> bool
(** Order-insensitive comparison of two answer sets. *)

exception Differential_mismatch of string
(** Raised under [RDFVIEWS_STRICT=1] when the compiled plan and
    {!Reference} disagree on a query's answers. *)

(** The pre-plan interpretive evaluator: index nested loops with a
    most-bound-atom-first {e dynamic} ordering re-probed at every
    binding step.  Kept as the semantic oracle for the differential
    suite and the eval benchmark's before/after comparison. *)
module Reference : sig
  val eval_cq : Rdf.Store.t -> Cq.t -> Rdf.Term.t array list
  val eval_ucq : Rdf.Store.t -> Ucq.t -> Rdf.Term.t array list
  val eval_cq_codes : ?bound:(string * int) list -> Rdf.Store.t -> Cq.t -> int array list
  val eval_ucq_codes : Rdf.Store.t -> Ucq.t -> int array list
  val count_cq : Rdf.Store.t -> Cq.t -> int
end
