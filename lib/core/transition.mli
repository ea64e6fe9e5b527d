(** The four state transitions of §3.2.

    - View break (VB, Definition 3.2) splits a view with at least three
      atoms along a node partition (possibly overlapping on one node);
      the view is rewritten as the projection of the natural join of the
      two pieces.
    - Selection cut (SC, Definition 3.3) promotes a constant to a fresh
      head variable; the view is rewritten as a projection of a selection.
    - Join cut (JC, Definition 3.4) removes one join edge; when the view
      graph stays connected, the two sides of the join become head
      variables and the view is rewritten with a column-equality
      selection; when it splits, the view is replaced by its two
      components joined on the cut variable.
    - View fusion (VF, Definition 3.5) merges two views with isomorphic
      bodies into one view with the union of their heads.

    VB enumeration covers all disjoint connected two-way splits and all
    splits overlapping on exactly one node.  (Fully general overlapping
    splits grow as 3^n and add no reachable state of interest; the
    restriction is documented in DESIGN.md.) *)

type kind = VB | SC | JC | VF

val kind_rank : kind -> int
(** VB < SC < JC < VF, the stratification order of Definition 5.3. *)

val kind_name : kind -> string

val all_kinds : kind list
(** In stratification order. *)

val successors_with_delta :
  ?stop:(View.t -> bool) ->
  strict:bool ->
  State.t ->
  kind ->
  (State.t * Delta.t) list * int
(** All states reachable from the given state by one application of the
    given transition kind, each paired with the exact delta the
    transition applied (views removed, views added, rewritings whose
    expression changed).  The delta feeds {!Cost.state_cost_delta}.  No
    deduplication is performed here; the search deduplicates by
    {!State.key}.

    [stop] is the search's stop test on a single view: a successor
    violates it when one of its views does.  A violating successor is
    pruned before it is built: its verdict is read off the views it
    keeps from the parent and the cached replacement views (a VF
    successor keeps its victims' body, so it violates exactly when the
    parent does).  The pruned successors are left out of the list and
    counted in the second component; [transition.<K>.applied] counts
    them too.

    With [~strict:true] (the search passes strict mode, read once per
    run) every successor is checked structurally, and the pruned ones
    are still built, checked, and their verdict checked against their
    views; a failed check raises [Failure]. *)

val successors : State.t -> kind -> State.t list
(** [successors s k] is every successor of [s] by [k], none pruned,
    checked when {!Query.Evaluation.strict_enabled} holds at the
    call. *)

val fusion_closure_delta : ?fresh:int -> State.t -> State.t * Delta.t
(** Repeatedly apply view fusions until none is applicable — the
    aggressive-view-fusion (AVF) collapse of §5.2; the result is unique
    no matter the fusion order.  Also returns the composition of all
    fusion deltas ({!Delta.empty} when no fusion applied, in which case
    the returned state is the input itself).

    [~fresh:n] tells the closure that the views after the first [n]
    cannot fuse with one another, as in a successor of a fusion-closed
    state, whose [List.length delta.views_added] new views come first.
    Only pairs whose left member is among the new views (fused views
    included) are then tried; the fusions made, their order and the
    result are those of the full closure, which is the default.  A
    fusion keeps its views' body, so the closure never changes a stop
    verdict. *)

val fusion_closure : State.t -> State.t
(** [fusion_closure s] is [fst (fusion_closure_delta s)]. *)
