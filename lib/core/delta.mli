(** Transition deltas: what changed between a state and a successor.

    Every transition (Definitions 3.2–3.5) removes one or two views,
    adds one or two replacement views, and substitutes the removed
    symbols inside the rewritings that mention them.  The delta records
    exactly that, letting {!Cost.child} compute the child's
    cost as parent − removed contributions + added contributions, with
    only the touched rewritings re-estimated. *)

type t = {
  views_removed : View.t list;  (** views of the parent absent from the child *)
  views_added : View.t list;    (** views of the child absent from the parent *)
  rewritings_touched : string list;
      (** names of the queries whose rewriting was rewritten; all other
          rewritings are physically unchanged *)
}

val empty : t
(** The identity delta: nothing added, removed or rewritten. *)

val compose : t -> t -> t
(** [compose a b]: the delta of applying [a] then [b] (used to fold the
    aggressive-view-fusion closure into the producing transition's
    delta).  Views added by [a] and removed by [b] cancel out. *)
