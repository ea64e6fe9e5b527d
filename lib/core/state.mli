(** States: candidate view sets with the rewritings of every workload
    query (Definition 2.3, §3.1).

    A state pairs a set of views with exactly one rewriting per workload
    query; every view participates in at least one rewriting (this is an
    invariant maintained by the transitions, checked by
    {!invariants_hold}).

    The record is private: build states with {!make} (or {!initial} /
    {!initial_union}) so the cached structural key stays coherent.
    Field access and pattern matching work as usual. *)

type key
(** Canonical identity of a state, read off its views' content ids
    ({!View.form_id}): the sorted high halves, the sum of the low
    halves, and a precomputed hash.  Two states are equivalent iff they
    have the same view sets (§3.1); distinct view sets share a key only
    if a collision of two distinct forms' high halves meets a collision
    of the low sums.  Comparing keys is O(|views|) integer work, with no
    canonical strings involved beyond each view's one-time digest. *)

type t = private {
  views : View.t list;
  rewritings : (string * Rewriting.t) list;
      (** query name → rewriting; columns align positionally with the
          query head *)
  mutable ident : key option;
      (** memoized {!key}; managed internally, never inspect it *)
}

val make :
  views:View.t list -> rewritings:(string * Rewriting.t) list -> t
(** The one constructor.  No validation is performed (see
    {!structural_violations} for that); the fresh state's key cache is
    empty. *)

val initial : Query.Cq.t list -> t
(** The initial state S0: one view per workload query (the query itself,
    with freshened variables), each query rewritten as a view scan
    (§5.1).  Query names must be distinct. *)

val initial_union : (string * Query.Cq.t list) list -> t
(** Initial state for the pre-reformulation scenario (§4.3): each query
    is rewritten as the union of the scans of its reformulations. *)

val env : t -> Rewriting.env
(** View name → columns, for algebra operations. *)

val key : t -> key
(** The state's identity key, computed once and cached on the state. *)

val equal_key : key -> key -> bool
(** Structural key equality — the identity used by {!Tbl}. *)

val hash_key : key -> int
(** Hash consistent with {!equal_key}; it must not depend on visit
    order. *)

val key_to_string : key -> string
(** Rendering of a key: the sorted high halves in hex, dot separated,
    then [/] and the low sum in hex.  It depends on the view set alone,
    so it is the same in every process and under any [--jobs]. *)

val key_string : t -> string
(** [key_to_string (key t)]. *)

module Tbl : Hashtbl.S with type key = key
(** Hash tables keyed by state identity ({!equal_key} / {!hash_key});
    the competitors' per-query seen-sets live in these. *)

val find_view : t -> string -> View.t option

val replace_view : t -> victim:View.t -> replacements:View.t list ->
  expression:Rewriting.t -> t * Delta.t
(** The common shape of all transitions: remove [victim] (identified by
    name), add [replacements], and substitute [expression] for the
    victim's symbol in every rewriting that mentions it.  Returns the
    successor and the exact delta (victim removed, replacements added,
    the substituted rewritings touched). *)

val structural_violations : t -> string list
(** Human-readable descriptions of every structural invariant the state
    breaks: ill-formed or dangling rewritings, views used by no
    rewriting, duplicate view names, views with Cartesian products.
    Empty on a well-formed state. *)

val invariants_hold : t -> bool
(** [structural_violations t = []]: all rewritings well-formed over the
    state's views; every view used by at least one rewriting; no view
    has a Cartesian product. *)
