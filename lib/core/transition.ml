type kind = VB | SC | JC | VF

let kind_rank = function VB -> 0 | SC -> 1 | JC -> 2 | VF -> 3

let kind_name = function VB -> "VB" | SC -> "SC" | JC -> "JC" | VF -> "VF"

let all_kinds = [ VB; SC; JC; VF ]

(* Per-kind telemetry: [applied] counts the successors of a state,
   built or pruned by the stop test, [rejected] counts candidates that
   never make a successor (disconnecting join-cut orientations,
   disconnected view-break splits, fusion pairs with equal canonical
   bodies but no body isomorphism).  Handles index by [kind_rank].

   The per-view enumeration caches below mean a rejection is tallied
   once per view, not once per state containing the view. *)
let obs_per_kind make =
  let arr = Array.make (List.length all_kinds) (make "VB") in
  List.iter (fun k -> arr.(kind_rank k) <- make (kind_name k)) all_kinds;
  arr

let obs_applied =
  obs_per_kind (fun k -> Obs.cached_counter ("transition." ^ k ^ ".applied"))

let obs_rejected =
  obs_per_kind (fun k -> Obs.cached_counter ("transition." ^ k ^ ".rejected"))

let obs_time =
  obs_per_kind (fun k -> Obs.cached_histogram ("transition." ^ k ^ ".time"))

let reject kind = Obs.incr (obs_rejected.(kind_rank kind) ())

let dedup_head terms =
  let rec go seen = function
    | [] -> []
    | (Query.Qterm.Var x as term) :: rest ->
      if List.mem x seen then go seen rest else term :: go (x :: seen) rest
    | (Query.Qterm.Cst _ as term) :: rest -> term :: go seen rest
  in
  go [] terms

let body_of (v : View.t) = v.View.cq.Query.Cq.body

let head_of (v : View.t) = v.View.cq.Query.Cq.head

let view_of_parts head body =
  View.make (Query.Cq.make ~name:"tmp" ~head:(dedup_head head) ~body)

let replace_atom body i atom =
  List.mapi (fun j a -> if j = i then atom else a) body

(* ---------------- per-view action caches -------------------------------- *)

(* The replacement views and the rewriting expression of an SC, JC or VB
   application depend only on the victim view, never on the state around
   it — and the same view object survives across every state that keeps
   it, so a DFS re-derives each view's actions hundreds of times.  Each
   cache maps the process-unique [View.id] (an int, assigned at
   creation) to the complete [(replacements, expression)] action list;
   producing a successor is then a single [State.replace_view].

   Reusing the cached replacement *view objects* across states is the
   heart of the speedup: their canonical forms, interned ids and cost
   profiles are computed once ever instead of once per created state.
   View names are globally unique ("v<counter>"), so a cached view can
   sit in any number of sibling states without in-state collisions.
   Entries are immutable and live as long as the process, like the
   interner itself. *)

type action = View.t list * Rewriting.t

(* Each cache is guarded by a spinlock held only for the table probe,
   never for the derivation: two domains racing on an uncached view may
   both derive (the replacement views differ only in their fresh names,
   never in canonical form), and the second insert discards its copy so
   every domain sees one canonical action list per view id.  This is the
   locking discipline the `unguarded-shared-table` lint rule enforces
   for the interner and the parallel dedup table. *)
type guarded_cache = {
  c_lock : Multicore.Spinlock.t;
  c_tbl : (int, action list) Hashtbl.t [@guarded_by "c_lock"];
}

let guarded_cache () =
  { c_lock = Multicore.Spinlock.create (); c_tbl = Hashtbl.create 1024 }

let cached cache (v : View.t) derive =
  match
    Multicore.Spinlock.with_lock cache.c_lock (fun () ->
        Hashtbl.find_opt cache.c_tbl v.View.id)
  with
  | Some actions -> actions
  | None ->
    let actions = derive v in
    Multicore.Spinlock.with_lock cache.c_lock (fun () ->
        match Hashtbl.find_opt cache.c_tbl v.View.id with
        | Some existing -> existing
        | None ->
          Hashtbl.add cache.c_tbl v.View.id actions;
          actions)

(* A successor before it is built: the victim and one of its cached
   actions, or a fusion pair with its fused view. *)
type fusion = { v3 : View.t; expr1 : Rewriting.t; expr2 : Rewriting.t }

type candidate =
  | Replace of View.t * action
  | Fuse of View.t * View.t * fusion

let replacement_candidates state kind_cache derive =
  List.concat_map
    (fun v ->
      List.map
        (fun action -> Replace (v, action))
        (cached kind_cache v derive))
    state.State.views

(* ---------------- Selection cut ---------------------------------------- *)

let sc_cache = guarded_cache ()

let sc_actions (v : View.t) : action list =
  List.map
    (fun (edge : State_graph.selection_edge) ->
      let fresh = Query.Qterm.fresh_var () in
      let atom =
        Query.Atom.set_at
          (List.nth (body_of v) edge.atom)
          edge.pos (Query.Qterm.Var fresh)
      in
      let body' = replace_atom (body_of v) edge.atom atom in
      let head' = head_of v @ [ Query.Qterm.Var fresh ] in
      let v' = view_of_parts head' body' in
      let expr =
        Rewriting.Project
          ( View.columns v,
            Rewriting.Select
              ( [ Rewriting.Eq_cst (fresh, edge.constant) ],
                Rewriting.Scan (View.name v') ) )
      in
      ([ v' ], expr))
    (State_graph.selection_edges v.View.cq)

let selection_cuts state = replacement_candidates state sc_cache sc_actions

(* ---------------- Join cut --------------------------------------------- *)

let head_terms_for_component (v : View.t) body_atoms extra_vars =
  let vars =
    List.concat_map Query.Atom.var_set body_atoms
    |> List.sort_uniq String.compare
  in
  let from_head =
    List.filter
      (function
        | Query.Qterm.Var x -> List.mem x vars
        | Query.Qterm.Cst _ -> false)
      (head_of v)
  in
  from_head @ List.map (fun x -> Query.Qterm.Var x) extra_vars

let join_cut_connected v (edge : State_graph.join_edge) (i, pos) : action =
  let fresh = Query.Qterm.fresh_var () in
  let atom =
    Query.Atom.set_at (List.nth (body_of v) i) pos (Query.Qterm.Var fresh)
  in
  let body' = replace_atom (body_of v) i atom in
  let head' =
    head_of v @ [ Query.Qterm.Var edge.var; Query.Qterm.Var fresh ]
  in
  let v' = view_of_parts head' body' in
  let expr =
    Rewriting.Project
      ( View.columns v,
        Rewriting.Select
          ( [ Rewriting.Eq_col (edge.var, fresh) ],
            Rewriting.Scan (View.name v') ) )
  in
  ([ v' ], expr)

let join_cut_split v (edge : State_graph.join_edge) comp_a comp_b : action =
  let body = Array.of_list (body_of v) in
  let atoms_of comp = List.map (fun i -> body.(i)) comp in
  let make_side comp =
    view_of_parts
      (head_terms_for_component v (atoms_of comp) [ edge.var ])
      (atoms_of comp)
  in
  let va = make_side comp_a in
  let vb = make_side comp_b in
  let expr =
    Rewriting.Project
      ( View.columns v,
        Rewriting.Join ([], Rewriting.Scan (View.name va), Rewriting.Scan (View.name vb))
      )
  in
  ([ va; vb ], expr)

let jc_cache = guarded_cache ()

let jc_actions (v : View.t) : action list =
  let cq = v.View.cq in
  List.concat_map
    (fun (edge : State_graph.join_edge) ->
      match State_graph.components_without_edge cq edge with
      | [ _ ] ->
        (* connected case: an orientation is only valid if replacing
           that occurrence (which removes all its edges) leaves the
           view connected — otherwise the new view would have a
           Cartesian product *)
        let orientation (i, pos) =
          match State_graph.components_without_occurrence cq i pos with
          | [ _ ] -> [ join_cut_connected v edge (i, pos) ]
          | _ ->
            reject JC;
            []
        in
        orientation (edge.atom_a, edge.pos_a)
        @ orientation (edge.atom_b, edge.pos_b)
      | [ comp_a; comp_b ] -> [ join_cut_split v edge comp_a comp_b ]
      | _ -> [] (* cannot happen: removing one edge splits in ≤ 2 *))
    (State_graph.join_edges cq)

let join_cuts state = replacement_candidates state jc_cache jc_actions

(* ---------------- View break ------------------------------------------- *)

(* Disjoint connected splits, plus splits overlapping on exactly one
   node.  Atom 0's side is called A to halve the enumeration. *)
let split_candidates (v : View.t) =
    let cq = v.View.cq in
    let n = Query.Cq.atom_count cq in
    let splits =
      if n < 3 then []
      else begin
        let connected = State_graph.subset_checker cq in
        let indices mask members =
          List.filteri (fun i _ -> mask land (1 lsl i) <> 0) members
        in
        let all = List.init n (fun i -> i) in
        let disjoint = ref [] in
        for mask = 1 to (1 lsl n) - 2 do
          if mask land 1 = 1 then begin
            let a = indices mask all in
            let b = List.filter (fun i -> not (List.mem i a)) all in
            if b <> [] && connected a && connected b then
              disjoint := (a, b) :: !disjoint
            else reject VB
          end
        done;
        let overlapping = ref [] in
        for k = 0 to n - 1 do
          let rest = List.filter (fun i -> i <> k) all in
          let m = List.length rest in
          for mask = 1 to (1 lsl m) - 2 do
            let a' = indices mask rest in
            let b' = List.filter (fun i -> not (List.mem i a')) rest in
            (* canonical orientation: the smallest non-shared index sits in A *)
            if a' <> [] && b' <> [] && List.hd rest = List.hd a' then begin
              let a = List.sort Int.compare (k :: a') in
              let b = List.sort Int.compare (k :: b') in
              if connected a && connected b then
                overlapping := (a, b) :: !overlapping
              else reject VB
            end
          done
        done;
        !disjoint @ !overlapping
      end
    in
    splits

let vb_cache = guarded_cache ()

let vb_actions (v : View.t) : action list =
  let body = Array.of_list (body_of v) in
  List.map
    (fun (comp_a, comp_b) ->
      let atoms_of comp = List.map (fun i -> body.(i)) comp in
      let atoms_a = atoms_of comp_a in
      let atoms_b = atoms_of comp_b in
      let vars_of atoms =
        List.concat_map Query.Atom.var_set atoms
        |> List.sort_uniq String.compare
      in
      let shared =
        List.filter (fun x -> List.mem x (vars_of atoms_b)) (vars_of atoms_a)
      in
      let v1 = view_of_parts (head_terms_for_component v atoms_a shared) atoms_a in
      let v2 = view_of_parts (head_terms_for_component v atoms_b shared) atoms_b in
      let expr =
        Rewriting.Project
          ( View.columns v,
            Rewriting.Join
              ([], Rewriting.Scan (View.name v1), Rewriting.Scan (View.name v2)) )
      in
      ([ v1; v2 ], expr))
    (split_candidates v)

let view_breaks state = replacement_candidates state vb_cache vb_actions

(* ---------------- View fusion ------------------------------------------ *)

(* A total renaming of v3's columns such that exactly the columns hosting
   v2's head variables receive their v2 names; all other columns get
   fresh throwaway names that cannot clash. *)
let total_rename cols_v3 fwd head_vars_v2 =
  let wanted =
    List.filter_map
      (fun x2 ->
        match List.assoc_opt x2 fwd with
        | Some c -> Some (c, x2)
        | None -> None)
      head_vars_v2
  in
  let targets = List.map snd wanted in
  List.map
    (fun c ->
      match List.assoc_opt c wanted with
      | Some x2 -> (c, x2)
      | None ->
        let rec junk candidate =
          if List.mem candidate targets then junk ("_" ^ candidate)
          else candidate
        in
        (c, junk ("_dead_" ^ c)))
    cols_v3

let fusion_of v1 v2 =
  match Query.Cq.body_isomorphism v1.View.cq v2.View.cq with
  | None ->
    reject VF;
    None
  | Some fwd ->
    (* fwd maps v2's variables to v1's *)
    let mapped_head_v2 =
      List.filter_map
        (function
          | Query.Qterm.Var x2 -> (
            match List.assoc_opt x2 fwd with
            | Some x1 -> Some (Query.Qterm.Var x1)
            | None -> None)
          | Query.Qterm.Cst _ -> None)
        (head_of v2)
    in
    let head3 = dedup_head (head_of v1 @ mapped_head_v2) in
    let v3 = View.make (Query.Cq.make ~name:"tmp" ~head:head3 ~body:(body_of v1)) in
    let expr1 =
      Rewriting.Project (View.columns v1, Rewriting.Scan (View.name v3))
    in
    let mapping =
      total_rename (View.columns v3) fwd (Query.Cq.head_vars v2.View.cq)
    in
    let expr2 =
      Rewriting.Project
        (View.columns v2, Rewriting.Rename (mapping, Rewriting.Scan (View.name v3)))
    in
    Some { v3; expr1; expr2 }

let fuse state v1 v2 { v3; expr1; expr2 } =
  let n1 = View.name v1 in
  let n2 = View.name v2 in
  let views =
    v3
    :: List.filter
         (fun v ->
           let n = View.name v in
           not (String.equal n n1 || String.equal n n2))
         state.State.views
  in
  let touched = ref [] in
  let rewritings =
    List.map
      (fun (q, r) ->
        if Rewriting.mentions n1 r || Rewriting.mentions n2 r then begin
          touched := q :: !touched;
          (q, Rewriting.substitute n2 expr2 (Rewriting.substitute n1 expr1 r))
        end
        else (q, r))
      state.State.rewritings
  in
  ( State.make ~views ~rewritings,
    {
      Delta.views_removed = [ v1; v2 ];
      views_added = [ v3 ];
      rewritings_touched = List.rev !touched;
    } )

(* The pairs of views with equal body ids that fuse, in view order
   (left member first), each with the position of its right member.
   Only pairs whose left member is among the first [fresh] views are
   tried: the caller knows every other pair, which lies within the
   tail, not to fuse. *)
let fusion_pairs ~fresh views =
  let rec lefts i views () =
    match views with
    | v1 :: rest when i < fresh ->
      partners i v1 (View.body_intern_id v1) rest (i + 1) rest ()
    | _ -> Seq.Nil
  and partners i v1 id1 rest j tail () =
    match tail with
    | [] -> lefts (i + 1) rest ()
    | v2 :: more -> (
      if View.body_intern_id v2 <> id1 then
        partners i v1 id1 rest (j + 1) more ()
      else
        match fusion_of v1 v2 with
        | Some f -> Seq.Cons ((v1, v2, f, j), partners i v1 id1 rest (j + 1) more)
        | None -> partners i v1 id1 rest (j + 1) more ())
  in
  lefts 0 views

let view_fusions state =
  fusion_pairs ~fresh:max_int state.State.views
  |> Seq.map (fun (v1, v2, f, _) -> Fuse (v1, v2, f))
  |> List.of_seq

let candidates state kind =
  match kind with
  | VB -> view_breaks state
  | SC -> selection_cuts state
  | JC -> join_cuts state
  | VF -> view_fusions state

let build state = function
  | Replace (victim, (replacements, expression)) ->
    State.replace_view state ~victim ~replacements ~expression
  | Fuse (v1, v2, f) -> fuse state v1 v2 f

(* The stop verdict of a candidate's successor, read off the parent
   without building it: the successor keeps every parent view but the
   victims, and adds the replacements.  A fusion keeps the body of its
   victims, so its successor violates exactly when the parent does. *)
let stop_verdict stop state =
  match stop with
  | None -> fun _ -> false
  | Some stop -> (
    let violating = List.filter stop state.State.views in
    function
    | Replace (victim, (replacements, _)) ->
      List.exists (fun u -> u.View.id <> victim.View.id) violating
      || List.exists stop replacements
    | Fuse _ -> violating <> [])

(* Cheap structural self-check in strict mode.  The full semantic
   checks (rewriting equivalence, cost sanity) live in Invariant and run
   from the search, which sits above this module; checking here as well
   pinpoints the faulty transition kind instead of the accepting
   search step. *)
let check_strict kind stop ~pruned (succ, _) =
  let fail problem =
    failwith
      (Printf.sprintf "Transition.%s produced an invalid state: %s"
         (kind_name kind) problem)
  in
  (match State.structural_violations succ with
  | [] -> ()
  | problem :: _ -> fail problem);
  match stop with
  | Some stop when List.exists stop succ.State.views <> pruned ->
    fail "the stop verdict read off the parent disagrees with the successor"
  | _ -> ()

let successors_with_delta ?stop ~strict state kind =
  let i = kind_rank kind in
  let pruned = ref 0 in
  let produced =
    Obs.time (obs_time.(i) ()) @@ fun () ->
    let candidates = candidates state kind in
    Obs.add (obs_applied.(i) ()) (List.length candidates);
    let violates = stop_verdict stop state in
    List.filter_map
      (fun candidate ->
        let prune = violates candidate in
        if prune then incr pruned;
        if prune && not strict then None
        else begin
          let successor = build state candidate in
          if strict then check_strict kind stop ~pruned:prune successor;
          if prune then None else Some successor
        end)
      candidates
  in
  (produced, !pruned)
[@@domain_safe]

let successors state kind =
  let strict = Query.Evaluation.strict_enabled () in
  List.map fst (fst (successors_with_delta ~strict state kind))

let fusion_closure_delta ?(fresh = max_int) state =
  let rec close fresh state acc =
    match Seq.uncons (fusion_pairs ~fresh state.State.views) with
    | None -> (state, acc)
    | Some ((v1, v2, f, j), _) ->
      let state', d = fuse state v1 v2 f in
      (* v3 goes first; the other fresh views follow it *)
      close (if j < fresh then fresh - 1 else fresh) state' (Delta.compose acc d)
  in
  close fresh state Delta.empty

let fusion_closure state = fst (fusion_closure_delta state)
