(** Conjunctive queries over the triple table [t(s, p, o)] (Definition 2.1).

    A query has a name, a head (an ordered list of query terms — usually
    variables, but reformulation rules 5 and 6 may bind a head variable to
    a constant, cf. Table 2) and a body (a list of triple atoms).

    The module provides the classical Chandra–Merlin machinery —
    containment mappings, equivalence, minimization — as well as canonical
    labeling up to variable renaming, used to identify duplicate states
    during the view-selection search. *)

type t = private {
  name : string;
  head : Qterm.t list;
  body : Atom.t list;
  mutable canon : string;  (** internal memo for {!canonical_string} *)
  mutable canon_hash : int;  (** internal memo for {!canonical_hash} *)
}

val make : name:string -> head:Qterm.t list -> body:Atom.t list -> t
(** Builds a query.  Raises [Invalid_argument] if a head variable does not
    appear in the body (unsafe query) or the body is empty. *)

val rename : t -> string -> t
(** Change the query name, keeping head and body. *)

val arity : t -> int

val head_vars : t -> string list
(** Distinct head variable names, in order of first occurrence. *)

val body_vars : t -> string list
(** Distinct body variable names, sorted. *)

val existential_vars : t -> string list

val atom_count : t -> int
(** [len(v)] in the paper's cost model. *)

val constant_count : t -> int

val constants : t -> Rdf.Term.t list

val equal_syntactic : t -> t -> bool
(** Name-insensitive syntactic equality of head and body. *)

val subst : (string -> Qterm.t option) -> t -> t
(** Apply a substitution to body and head. *)

val subst_var : string -> Qterm.t -> t -> t

val freshen : t -> t
(** Rename every variable to a globally fresh name (head positions
    preserved). *)

val contained_in : t -> t -> bool
(** [contained_in q1 q2] holds iff q1 ⊆ q2, i.e. there is a containment
    mapping from [q2] into [q1]. *)

val equivalent : t -> t -> bool
(** Semantic equivalence: containment both ways. *)

val minimize : t -> t
(** The core of the query: a minimal equivalent subquery (Definition 2.1
    requires queries and views to be minimal). *)

val is_minimal : t -> bool

val is_connected : t -> bool
(** True when every atom joins (shares a variable) transitively with every
    other — i.e. the query has no Cartesian product. *)

val components : t -> Atom.t list list
(** The connected components of the body's join graph. *)

val body_isomorphism : t -> t -> (string * string) list option
(** [body_isomorphism v1 v2] returns a renaming of [v2]'s variables into
    [v1]'s making the bodies equal as atom sets ("their bodies are
    equivalent up to variable renaming", Definition 3.5), or [None].
    The renaming is read off the labellings behind the two
    {!canonical_body_string}s, so it is [None] exactly when those
    differ. *)

val canonical_string : t -> string
(** A string invariant under variable renaming and atom reordering:
    two queries have the same canonical string iff one can be renamed
    into the other.  Computed by colour refinement on ints with
    individualization backtracking: variables are numbered, a constant
    is coded by its rank among the query's own constants (by
    {!Rdf.Term.compare}, so kinds stay apart) in a range disjoint from
    the colours, a colour is an int and a round ranks each variable's
    int signature (its colour, then the sorted position and colours of
    each atom it occurs in).  The least int form (sorted atoms, then
    the head) over the individualization leaves wins and is spelled
    once: a variable as [V<label>], a constant by its {!Rdf.Term.key},
    so two distinct constants never read alike.  Only equality of forms
    is meaningful: the spelling is not stable across releases (it
    changed when the refinement moved from strings to ints; which pairs
    of queries get equal forms did not).  Memoized on the query value
    (head and body are immutable, so the labelling runs at most once
    per value); the plan cache keys on it. *)

val canonical_hash : t -> int
(** A hash of {!canonical_string}, memoized on the query value. *)

val form_hash : string -> int
(** The hash {!canonical_hash} takes of a form (FNV-1a). *)

val canonical_tagged : t -> (string * string) list -> string
(** [canonical_tagged q tags] is {!canonical_string} of [q] with each
    listed variable carrying its tag: two tagged queries get the same
    string iff a renaming maps one onto the other and every tagged
    variable onto one with the same tag.  A tag joins its variable's
    initial colour and is spelled after the form, length first, in
    label order.  With no tag it is {!canonical_string} (and its memo);
    otherwise nothing is memoized.  {!Rcq} keys its constant sets this
    way. *)

val canonical_body_string : t -> string
(** Like {!canonical_string} but ignoring the head entirely; equal on two
    views exactly when {!body_isomorphism} succeeds. *)

val canonical_head_set_string : t -> string
(** Like {!canonical_string} but comparing heads as {e sets}: two views
    differing only in head column order get the same string.  This is
    the identity used for states (§3.1 compares view sets; Fig. 3's S4
    is reached through both SC orders, which permute the head). *)

val to_string : t -> string
