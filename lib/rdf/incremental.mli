(** Incremental maintenance of a saturated database (§4.2).

    The paper notes that maintaining a saturated database under updates
    "may be complex and costly" because saturation is an inflationary
    fixpoint: deleting an explicit triple must retract exactly those
    implicit triples whose every derivation used it.  The four
    instance-level RDFS rules each have a single premise, so the
    saturation is the union of [closure(e)] over the explicit triples
    [e] ({!Entailment.iter_closure}), and neither update needs a fixpoint:

    - insertion adds the absent part of [closure(t)];
    - deletion removes each [u] in [closure(t)] that no remaining
      explicit triple derives.  Only explicit triples sharing [u]'s
      subject (in their subject or, through a range rule, object
      position) can derive it, so the check is a few index scans.
      Support is never taken from derived triples, which makes it
      safe on cyclic hierarchies ([c1 ⊑ c2 ⊑ c1]).

    Each update writes the store once per triple it adds or removes.
    The structure distinguishes the explicit triples (the database) from
    the derived ones, which plain saturation does not track. *)

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
