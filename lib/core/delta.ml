(* Transition deltas: the difference between a state and one of its
   successors, reported by Transition alongside each successor so Cost
   can update the parent's cost instead of recomputing the child from
   scratch.

   Views are identified by name throughout: view names ("v<id>") are
   process-unique, so name equality is exact here, and the delta stays
   meaningful across State_io round-trips where physical identity does
   not survive. *)

type t = {
  views_removed : View.t list;
  views_added : View.t list;
  rewritings_touched : string list;  (* query names, in rewriting order *)
}

let empty = { views_removed = []; views_added = []; rewritings_touched = [] }

let mem_name name views =
  List.exists (fun v -> String.equal (View.name v) name) views

(* [compose a b] is the delta of applying [a] then [b].  A view added by
   [a] and removed again by [b] cancels out of both lists; view names
   never repeat across a state's lifetime, so no other overlap is
   possible (a name removed by [a] is absent from the intermediate state
   and cannot be removed again by [b]). *)
let compose a b =
  {
    views_removed =
      a.views_removed
      @ List.filter
          (fun v -> not (mem_name (View.name v) a.views_added))
          b.views_removed;
    views_added =
      List.filter
        (fun v -> not (mem_name (View.name v) b.views_removed))
        a.views_added
      @ b.views_added;
    rewritings_touched =
      List.sort_uniq String.compare (a.rewritings_touched @ b.rewritings_touched);
  }
