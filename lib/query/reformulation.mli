(** RDF query reformulation w.r.t. an RDFS (Algorithm 1, §4.2).

    [reformulate q s] computes a union of conjunctive queries [ucq] such
    that for any database [D] associated to schema [s]:
    [evaluate(q, saturate(D, s)) = evaluate(ucq, D)] (Theorem 4.2).

    The algorithm applies the six backward rules of Fig. 2 to a fixpoint:
    + class inclusion: [t(s, rdf:type, c2)] ⇐ [t(s, rdf:type, c1)]
      for [c1 subClassOf c2];
    + property inclusion: [t(s, p2, o)] ⇐ [t(s, p1, o)] for [p1 subPropertyOf p2];
    + domain typing: [t(s, rdf:type, c)] ⇐ [∃X t(s, p, X)] for
      [domain(p) = c];
    + range typing: [t(o, rdf:type, c)] ⇐ [∃X t(X, p, o)] for
      [range(p) = c];
    + class generalization: [t(s, rdf:type, X)] ⇐ [t(s, rdf:type, ci)]
      binding [X := ci] throughout the query, for every class [ci];
    + property generalization: [t(s, X, o)] ⇐ [t(s, pi, o)] binding
      [X := pi], for every property [pi] and for [rdf:type].

    Rules 5 and 6 extend the state of the art (DL-fragment reformulation)
    to atoms with variables in class or property position.

    The fixpoint is searched over {e shapes} ({!Rcq}) rather than over
    single CQs: rules 1 and 2 widen the set of constants a position may
    take instead of copying the query, and rules 5 and 6 restrict the
    bound variable.  A constant that also stands elsewhere in the query
    (a head position bound by rule 5 or 6, say) keeps a shape of its
    own, since a rule may change it at one occurrence only. *)

val reformulate : Cq.t -> Rdf.Schema.t -> Ucq.t
(** The reformulation of [q], as shapes ({!Ucq.shapes}); its disjuncts
    ({!Ucq.disjuncts}) are the expansion, the original query first,
    without duplicates up to variable renaming. *)
