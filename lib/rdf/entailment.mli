(** RDFS entailment: database saturation (§4.2).

    Saturation adds to a database all the implicit triples entailed by the
    RDFS rules of Table 1: propagation of class and property inclusions,
    and domain/range typing.  This is the inflationary fixpoint the paper
    contrasts with query reformulation; Theorem 4.2 relates the two and is
    exercised by the property tests.

    The four instance-level rules each have a single premise, so the
    saturation of a database is the union, over its triples [e], of
    [closure(e)]: everything [e] entails on its own, [e] included.
    [closure(e)] depends on the schema alone.  It is computed in
    dictionary codes from the reflexive closures of the class and
    property hierarchies (memoized per code), with no fixpoint over the
    data.  {!saturate} and {!Incremental} share this one
    implementation. *)

type rules
(** The rules of a schema compiled against one store's dictionary. *)

val rules : Store.t -> Schema.t -> rules
(** Closures are memoized on first use; computing one encodes the
    classes and properties it mentions in the store's dictionary. *)

val iter_closure : rules -> Store.encoded -> (Store.encoded -> unit) -> unit
(** [iter_closure r e f] applies [f] to every triple of [closure(e)]:
    everything [e] entails on its own, [e] included.  A triple reached
    by two rules may be visited twice. *)

val saturate : Store.t -> Schema.t -> int
(** Saturate the store in place w.r.t. the schema's instance-level rules:
    {ul
    {- [(x, rdf:type, c1)] and [c1 subClassOf c2] entail [(x, rdf:type, c2)];}
    {- [(x, p1, y)] and [p1 subPropertyOf p2] entail [(x, p2, y)];}
    {- [(x, p, y)] and [domain(p) = c] entail [(x, rdf:type, c)];}
    {- [(x, p, y)] and [range(p) = c] entail [(y, rdf:type, c)].}}
    An [rdf:type] triple fires the first rule only.  Returns the number
    of implicit triples added: the closure of every triple in the
    store, with no worklist. *)

val saturated_copy : Store.t -> Schema.t -> Store.t
(** Like {!saturate} but on a copy, leaving the original untouched. *)

val entailed_bound : data_size:int -> schema_size:int -> int
(** The [O(|D| * |S|)] bound on the number of implicit triples stated in
    §6.5, used as a sanity check in tests. *)
