(** Top-level view selection, tying together statistics, reasoning and
    search (§4.3).

    Four scenarios for handling the implicit triples of RDF entailment:
    - [No_reasoning] — ignore entailment (plain §3 search);
    - [Saturation] — search against a saturated copy of the database;
      the recommended views are materialized on the saturated store;
    - [Pre_reformulation] — reformulate the workload first; the initial
      state has one view per reformulation disjunct and each query is
      rewritten as a union (§4.3);
    - [Post_reformulation] — search on the original workload with
      reformulation-aware statistics, then reformulate the recommended
      views; Theorem 4.2 makes this equivalent to saturation while never
      writing implicit triples. *)

type reasoning =
  | No_reasoning
  | Saturation of Rdf.Schema.t
  | Pre_reformulation of Rdf.Schema.t
  | Post_reformulation of Rdf.Schema.t

type result = {
  report : Search.report;
  recommended : Query.Ucq.t list;
      (** materializable view definitions, aligned with the best state's
          views; UCQs with several disjuncts only under
          post-reformulation *)
  rewritings : (string * Rewriting.t) list;
      (** per-query rewritings over the recommended views *)
  stats : Stats.Statistics.t;
      (** the statistics used (exposed for inspection and reuse) *)
  store_for_materialization : Rdf.Store.t;
      (** the store against which [recommended] should be materialized:
          the saturated copy under [Saturation], the original store
          otherwise.  [Engine.Pipeline] is its reader. *)
  reasoning : reasoning;  (** the scenario the selection ran under *)
}

exception Unsupported_query of string
(** Raised by {!select}, before the search and in every reasoning
    mode, when a workload query (or, under [Pre_reformulation], one of
    its disjuncts) cannot be a view ({!View.defect}).  Among the
    reasons is a constant in the head, written by the user or bound by
    reformulation rules 5 and 6: no rewriting can yet emit a constant
    as a column.  The message names the query, the reason and the query
    or disjunct. *)

val reasoning_name : reasoning -> string
(** Display name of the scenario ("none", "saturation", ...). *)

val select :
  ?jobs:int ->
  store:Rdf.Store.t ->
  reasoning:reasoning ->
  options:Search.options ->
  Query.Cq.t list ->
  result
(** Run view selection for the workload.  Query names must be
    distinct.  [jobs] (default 1) spreads the search over that many
    domains ({!Search.run_from}); a completed parallel run reaches the
    one-domain best cost. *)
