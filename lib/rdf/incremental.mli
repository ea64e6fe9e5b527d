(** Incremental maintenance of a saturated database (§4.2).

    The paper notes that maintaining a saturated database under updates
    "may be complex and costly" because saturation is an inflationary
    fixpoint: deleting an explicit triple must retract exactly those
    implicit triples whose every derivation used it.  The four
    instance-level RDFS rules each have a single premise, so the
    saturation is the union of [closure(e)] over the explicit triples
    [e] ({!Entailment.iter_closure}), and the explicit triples deriving
    [u] are those whose closure holds [u].  Each saturated triple keeps
    that exact derivation count (the counting algorithm of Gupta,
    Mumick and Subrahmanian), with a flag for explicit triples:

    - insertion counts each triple of [closure(t)] once more and stores
      those it counted for the first time;
    - deletion counts them once less and removes those left at 0.

    No update scans an index or runs a fixpoint, and the work does not
    depend on dictionary codes.  Counts come from explicit triples only,
    so they are exact on cyclic hierarchies ([c1 subClassOf c2] and
    [c2 subClassOf c1]).  Each update writes the store once per triple
    it adds or removes. *)

type t

val create : Schema.t -> Store.t -> t
(** [create schema store] wraps and saturates [store] in place.  The
    store must not be modified except through this module afterwards. *)

val store : t -> Store.t
(** The underlying saturated store (explicit + implicit triples). *)

val schema : t -> Schema.t

val explicit_count : t -> int
val implicit_count : t -> int

val is_explicit : t -> Triple.t -> bool
(** Looks terms up without adding them to the dictionary. *)

val insert : t -> Triple.t -> int
(** Insert an explicit triple and its consequences; returns the number
    of triples (explicit + implicit) actually added. *)

val delete : t -> Triple.t -> int
(** Delete an explicit triple (a no-op when absent or merely implicit,
    and then the dictionary is left as it was); retracts the implicit
    triples that lose all derivations.  Returns the number of triples
    removed. *)
