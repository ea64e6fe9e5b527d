(** Workload-driven statistics over a triple store (§3.3, §4.3).

    The paper gathers, for each query atom and each relaxation of it
    obtained by removing constants, the exact number of matching triples;
    plus per-column distinct-value counts.  Statistics are exposed here as
    a memoized on-demand cache over the store, which yields exactly the
    numbers the offline gathering would (every atom reachable during the
    search is a relaxation of a workload atom).

    Every statistic is read off one table of triples grouped by
    property, built on the first statistic asked for (or by {!prewarm}):
    an atom's count is the number of rows matching its constants, the
    total the number of rows, and the column and per-property distincts
    and term sizes their distinct values.  The [mode] says where the
    rows come from, and so how implicit triples are reflected (§4.3):
    {ul
    {- [Plain] — the store's own triples, read by one scan (use on a
       saturated store for the saturation scenario, or when reasoning
       is ignored);}
    {- [Reformulated schema] — the post-reformulation statistics.  The
       reformulation (w.r.t. [schema]) of [t(_s,_p,_o)], heading all
       three positions, is evaluated once on the explicit store; by
       Theorem 4.2 its rows are exactly the triples of the saturated
       database, which is never built.  So each number equals the one
       on the saturated store, which is property-tested.  The store
       gains no triple and its version does not move; the evaluation
       caches no plan and interns no canonical form, but the
       reformulation's head constants are encoded in the store's
       dictionary, and a statistic resolves its own constants only
       after that.}}
    Either way [t] describes the store as it was when the table was
    built: a later write to the store is not reflected. *)

type mode =
  | Plain
  | Reformulated of Rdf.Schema.t

type t

val create : ?mode:mode -> Rdf.Store.t -> t
(** [create ~mode store] builds a statistics cache over [store];
    [mode] defaults to [Plain]. *)

val prewarm : t -> Query.Cq.t list -> unit
(** The paper's offline gathering step: build the table and fill the
    memo with everything the cost model reads while searching from
    these queries.  That is
    the count of every relaxation of every atom (each constant replaced
    or kept), the per-property subject and object distincts of every
    constant property among them, and the three column distincts and
    term sizes.  Afterwards a search that starts from these queries only
    reads the memo, so parallel search forks may share [t]
    ([Core.Search.run_from] calls it before any fork). *)

val atom_count : t -> Query.Atom.t -> float
(** Number of triples matching the atom's constant pattern (reflecting
    implicit triples under [Reformulated]).  Exact. *)

val total_triples : t -> float
(** Size of the dataset (reflecting implicit triples under
    [Reformulated]). *)

val column_distinct : t -> [ `S | `P | `O ] -> float
(** Distinct values in a triple-table column. *)

val property_distinct : t -> Rdf.Term.t -> [ `S | `O ] -> float option
(** [property_distinct t p col] is the number of distinct subjects
    (resp. objects) among triples with property [p]; [None] when [p] does
    not appear as a property. *)

val avg_term_size : t -> [ `S | `P | `O ] -> float
(** Average byte size of a column's distinct values, for the
    space-occupancy model. *)

val cache_size : t -> int
(** Number of memoized atom counts (for instrumentation). *)

val memo_size : t -> int
(** Number of memoized statistics of every kind; a search that only
    reads [t] leaves it unchanged. *)
