(** Restricted conjunctive queries: a CQ in which some variables may
    only take constants from a given set.

    A restricted CQ stands for the union of the CQs obtained by
    substituting, for each restricted variable, each constant of its
    set (its {e expansion}).  Reformulation (§4.2) produces unions whose
    disjuncts mostly differ only in class and property constants; it
    returns them grouped into restricted CQs, its {e shapes}, and
    {!Plan} compiles each shape into one plan that iterates a
    restricted variable's constants instead of running one plan per
    disjunct. *)

type t

val make : Cq.t -> (string * Rdf.Term.t list) list -> t
(** [make q sets] restricts each listed body variable of [q] to its
    constants.  A variable restricted to one constant is replaced by
    it.  Raises [Invalid_argument] on an empty set, a variable listed
    twice or a variable absent from the body. *)

val of_cq : Cq.t -> t
(** No restricted variable: the expansion is the query itself. *)

val cq : t -> Cq.t

val sets : t -> (string * Rdf.Term.t array) list
(** The restricted variables, by name, each with its constants: sorted
    by {!Rdf.Term.compare}, without duplicates, at least two. *)

val expand : t -> Cq.t list
(** The query under every substitution, named as the query.  Two
    substitutions can give isomorphic queries; nothing is removed. *)

val canonical_string : t -> string
(** A form invariant under variable renaming and atom reordering that
    also spells each restricted variable's set: equal exactly when one
    restricted CQ renames into the other.  {!Cq.canonical_string} of the
    query when nothing is restricted.  Memoized on the value. *)

val canonical_hash : t -> int
(** A hash of {!canonical_string}, memoized on the value. *)
