(** Materialized-view candidates: named conjunctive queries over the
    triple table (Definition 2.1).

    Views carry a process-unique id; the view name ["v<id>"] is the symbol
    used in rewritings. *)

type form_id = { hi : int; lo : int }
(** A 126-bit content id of a canonical form: the two 64-bit halves of
    its MD5 digest, 63 bits kept of each.  It depends on the form alone,
    so it is the same in every process and under any schedule.  Two
    ids are equal exactly when the forms are equal, barring an MD5
    collision. *)

type t = private {
  id : int;
  cq : Query.Cq.t;
  constants : int;
      (** [Query.Cq.constant_count cq], counted once when the view is
          made: the search's stop conditions read it for every view of
          every state.  Immutable, so sharing the view across the
          domains of a parallel search adds no race. *)
  mutable iid : form_id option;  (** memoized {!form_id} *)
  mutable body_iid : form_id option;
      (** memoized {!body_id}.  The memo fields are plain
          options, not lazies: view objects are shared across the states
          of a parallel search, and the accessors tolerate a racy
          duplicate computation (deterministic result) where concurrent
          [Lazy.force] would raise. *)
  mutable vb : action list option;  (** memoized {!actions}, per kind *)
  mutable sc : action list option;
  mutable jc : action list option;
  mutable fusions : (int * fusion) list;
      (** memoized {!fusion}s, by the right view's [id] *)
}

and action = t list * Rewriting.t
(** The views replacing a view, and the expression of it over them. *)

and fusion = { v3 : t; expr1 : Rewriting.t; expr2 : Rewriting.t }
(** The fused view, and the expressions of the left and right views over
    it. *)

type replacement = VB | SC | JC  (** The transitions replacing one view. *)

val defect : Query.Cq.t -> string option
(** Why the query cannot be a view, if it cannot, checked in this order:
    - ["body is a Cartesian product"]: the body is disconnected (views
      with Cartesian products are disallowed, §3.1);
    - ["head holds a constant"]: a view's columns are its head
      variables ({!columns}), so a constant head position would have no
      column and no rewriting could emit it;
    - ["head repeats a variable"]: two head variables share a name (view
      columns must be unambiguous). *)

val make : Query.Cq.t -> t
(** Wrap a query as a view under a fresh name.  Raises
    [Invalid_argument] with the {!defect} if there is one. *)

val of_cq : Query.Cq.t -> t
(** Wrap a query as a view {e keeping its name} (used when reloading
    states from disk, where view names are already fixed by the
    rewritings that reference them).  Same validation as {!make}. *)

val name : t -> string
(** The symbol the rewritings scan: ["v<id>"] after the process-unique
    id for {!make}, the query's own name for {!of_cq}. *)

val head : t -> Query.Qterm.t list
(** The head terms (all variables) in declaration order. *)

val columns : t -> string list
(** The head variable names, in head order — the schema of the
    materialized relation and the columns of a
    scan of the view ({!Rewriting.Scan}). *)

val atom_count : t -> int

val equal_form_id : form_id -> form_id -> bool
(** Both halves equal.  Allocates nothing. *)

val compare_form_id : form_id -> form_id -> int
(** The order of the high halves, then of the low halves. *)

val form_id : t -> form_id
(** The id of the query's canonical form with the head compared as a
    set ({!Query.Cq.canonical_head_set_string}; column order is
    storage-irrelevant) — equal exactly for views that are renamings of
    one another, computed once per view.  {!State.key} is built from
    these. *)

val body_id : t -> form_id
(** The id of the body's canonical form
    ({!Query.Cq.canonical_body_string}); equal exactly for views whose
    bodies are isomorphic, so the pairs of views with equal body ids are
    the fusion pairs. *)

val actions : t -> replacement -> (t -> action list) -> action list
(** [actions v kind derive] is every application of [kind] to [v],
    made by [derive v] on the first call for [v] and [kind]: once per
    view, however many states hold it.  Two domains may both derive the
    actions of a fresh view; the lists differ only in fresh names, and
    the last write stays. *)

val fusion : t -> t -> (t -> t -> fusion) -> fusion
(** [fusion v1 v2 derive] is the fusion of [v1] with [v2], made by
    [derive v1 v2] on the first call for the pair.  A write lost to a
    race only means a later call derives again. *)

val to_string : t -> string
(** Datalog-style rendering, ["v3(?x) :- t(?x, <p>, ?y)."]. *)
