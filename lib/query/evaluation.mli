(** Evaluation of conjunctive queries and UCQs over a triple store.

    This is [evaluate] in the sense of Theorem 4.2: standard evaluation
    of plain RDF basic graph patterns, with set semantics.  Since the
    compiled-plan rework, every entry point routes through
    a compiled plan, cached unless variables are bound, the caller
    asks for a one-shot evaluation ([~cache:false]) or the call is
    {!count_ucq}: the join order
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
(** Set-semantics union of the disjuncts' answers. *)

val eval_cq_codes : ?bound:(string * int) list -> Rdf.Store.t -> Cq.t -> int array list
(** The distinct answer rows, dictionary-encoded.  A non-empty [bound] fixes
    variables (each listed once) to codes and compiles an uncached plan
    ({!Plan.compile} [~bound]): nothing is interned or cached per
    call. *)

val eval_ucq_codes : ?cache:bool -> Rdf.Store.t -> Ucq.t -> int array list
(** [~cache:false] compiles every disjunct's plan afresh and caches
    nothing (no plan, no interned canonical form): for a one-shot query
    whose answer the caller keeps, such as a statistic.  Default
    [true]. *)

val count_cq : Rdf.Store.t -> Cq.t -> int
(** The number of rows {!eval_cq_codes} returns. *)

val count_ucq : Rdf.Store.t -> Ucq.t -> int
(** The number of distinct answers, through one-shot plans
    ([~cache:false] in {!eval_ucq_codes}): a count is never reused. *)

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
  val count_ucq : Rdf.Store.t -> Ucq.t -> int
end
