(** View cardinality estimation [|v|ε] (§3.3).

    One-atom views use the exact gathered counts.  Multi-atom views assume
    uniform value distribution within each column and independence across
    columns, and combine the exact per-atom counts with join selectivities
    using the textbook System-R formulas: a join variable shared by [k]
    atom positions with distinct-value estimates [d_1..d_k] contributes a
    selectivity of [min(d_i) / prod(d_i)] (which is [1/max(d_1,d_2)] for
    [k = 2]). *)

val estimate_cq : Statistics.t -> Query.Cq.t -> float
(** [|v|ε] for a conjunctive view. *)

val estimate_ucq : Statistics.t -> Query.Ucq.t -> float
(** Upper-bound estimate for a UCQ view: sum of disjunct estimates. *)

val profile :
  Statistics.t ->
  Query.Cq.t ->
  Query.State_graph.occurrences ->
  string list ->
  float * (string * float) list
(** [profile stats q occs columns], where [occs] is
    [Query.State_graph.occurrences q], is [estimate_cq stats q] paired
    with the estimated number of distinct bindings of each of the
    [columns] in the view's answers: the minimum distinct estimate over
    the variable's occurrences, capped by the view cardinality (1 for a
    variable that does not occur).  The caller's occurrence table and
    one estimate serve every column. *)
