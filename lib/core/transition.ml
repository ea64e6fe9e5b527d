type kind = VB | SC | JC | VF

let kind_rank = function VB -> 0 | SC -> 1 | JC -> 2 | VF -> 3

let kind_name = function VB -> "VB" | SC -> "SC" | JC -> "JC" | VF -> "VF"

let all_kinds = [ VB; SC; JC; VF ]

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

(* ---------------- actions ---------------------------------------------- *)

(* The replacement views and the rewriting expression of an SC, JC or VB
   application depend only on the victim view, and a VF fusion only on
   its two views, so the views memoize them ({!View.actions},
   {!View.fusion}) and producing a successor is a single
   [State.replace_view].  Reusing the replacement and fused *view
   objects* across states is the heart of the speedup: their canonical
   forms, interned ids and cost profiles are computed once per view
   instead of once per created state.  View names are globally unique
   ("v<counter>"), so a memoized view can sit in any number of sibling
   states without in-state collisions; no state holds a replacement
   together with its victim, which every path to the replacement
   removed. *)

type action = View.action

(* A successor before it is built: the victim and one of its actions,
   or a fusion pair with its fused view. *)
type candidate =
  | Replace of View.t * action
  | Fuse of View.t * View.t * View.fusion

let replacement_candidates state kind derive =
  List.concat_map
    (fun v ->
      List.map
        (fun action -> Replace (v, action))
        (View.actions v kind derive))
    state.State.views

(* ---------------- Selection cut ---------------------------------------- *)

let sc_actions (v : View.t) : action list =
  List.map
    (fun (edge : Query.State_graph.selection_edge) ->
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
    (Query.State_graph.selection_edges v.View.cq)

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

let join_cut_connected v (edge : Query.State_graph.join_edge) (i, pos) : action =
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

let join_cut_split v (edge : Query.State_graph.join_edge) comp_a comp_b : action =
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

(* [rejected] tallies the candidates that never make a successor:
   disconnecting join-cut orientations here, disconnected view-break
   splits below.  A VF pair is never rejected: equal body ids mean
   isomorphic bodies.  Each view memoizes its actions, so a view's
   rejections are tallied once, not once per state holding it. *)
let jc_actions rejected (v : View.t) : action list =
  let cq = v.View.cq in
  List.concat_map
    (fun (edge : Query.State_graph.join_edge) ->
      match Query.State_graph.components_without_edge cq edge with
      | [ _ ] ->
        (* connected case: an orientation is only valid if replacing
           that occurrence (which removes all its edges) leaves the
           view connected — otherwise the new view would have a
           Cartesian product *)
        let orientation (i, pos) =
          match Query.State_graph.components_without_occurrence cq i pos with
          | [ _ ] -> [ join_cut_connected v edge (i, pos) ]
          | _ ->
            incr rejected;
            []
        in
        orientation (edge.atom_a, edge.pos_a)
        @ orientation (edge.atom_b, edge.pos_b)
      | [ comp_a; comp_b ] -> [ join_cut_split v edge comp_a comp_b ]
      | _ -> [] (* cannot happen: removing one edge splits in ≤ 2 *))
    (Query.State_graph.join_edges cq)

(* ---------------- View break ------------------------------------------- *)

(* Disjoint connected splits, plus splits overlapping on exactly one
   node.  Atom 0's side is called A to halve the enumeration. *)
let split_candidates rejected (v : View.t) =
    let cq = v.View.cq in
    let n = Query.Cq.atom_count cq in
    let splits =
      if n < 3 then []
      else begin
        let connected = Query.State_graph.subset_checker cq in
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
            else incr rejected
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
              else incr rejected
            end
          done
        done;
        !disjoint @ !overlapping
      end
    in
    splits

let vb_actions rejected (v : View.t) : action list =
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
    (split_candidates rejected v)

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

(* Only called on views with equal body ids, whose bodies are therefore
   isomorphic. *)
let derive_fusion v1 v2 =
  match Query.Cq.body_isomorphism v1.View.cq v2.View.cq with
  | None -> invalid_arg "Transition: equal body ids but no body isomorphism"
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
    { View.v3; expr1; expr2 }

let fusion_of v1 v2 = View.fusion v1 v2 derive_fusion

let fuse state v1 v2 { View.v3; expr1; expr2 } =
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

(* The first pair of views with equal body ids, which all fuse, in view
   order (left member first), with the position of its right member.
   Only pairs whose left member is among the first [fresh] views are
   tried: the caller knows every other pair, which lies within the
   tail, not to fuse.  [i] is the position of the list's head. *)
let rec first_fusion_pair ~fresh i = function
  | v1 :: rest when i < fresh -> (
    match partner_of (View.body_id v1) (i + 1) rest with
    | Some (v2, j) -> Some (v1, v2, j)
    | None -> first_fusion_pair ~fresh (i + 1) rest)
  | _ -> None

(* The first view of the list whose body id is [id], with its position,
   [j] being that of the list's head.  The halves are compared in place:
   this loop runs for every fresh view of every successor. *)
and partner_of (id : View.form_id) j = function
  | [] -> None
  | v2 :: more ->
    let b = View.body_id v2 in
    if b.hi = id.hi && b.lo = id.lo then Some (v2, j)
    else partner_of id (j + 1) more

(* Every pair of views with equal body ids, in view order. *)
let view_fusions state =
  let rec lefts acc = function
    | [] -> List.rev acc
    | v1 :: rest ->
      let id = View.body_id v1 in
      lefts
        (List.fold_left
           (fun acc v2 ->
             if View.equal_form_id (View.body_id v2) id then
               Fuse (v1, v2, fusion_of v1 v2) :: acc
             else acc)
           acc rest)
        rest
  in
  lefts [] state.State.views

let candidates ~rejected state = function
  | VB -> replacement_candidates state View.VB (vb_actions rejected)
  | SC -> replacement_candidates state View.SC sc_actions
  | JC -> replacement_candidates state View.JC (jc_actions rejected)
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

type generated = {
  successors : (State.t * Delta.t) list;
  pruned : int;
  rejected : int;
}

let successors_with_delta ?stop ~strict state kind =
  let pruned = ref 0 in
  let rejected = ref 0 in
  let candidates = candidates ~rejected state kind in
  let violates = stop_verdict stop state in
  let successors =
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
  { successors; pruned = !pruned; rejected = !rejected }
[@@domain_safe]

(* No fusion applies to a fusion-closed state, so its VF stratum is
   empty without a scan. *)
let skip_fusions ~strict state =
  if strict then
    match first_fusion_pair ~fresh:max_int 0 state.State.views with
    | None -> ()
    | Some (v1, v2, _) ->
      failwith
        (Printf.sprintf
           "Transition.VF: views %s and %s fuse in a state held to be \
            fusion-closed"
           (View.name v1) (View.name v2))

let successors state kind =
  let strict = Query.Evaluation.strict_enabled () in
  List.map fst (successors_with_delta ~strict state kind).successors

let fusion_closure_delta ?(fresh = max_int) state =
  let rec close fresh state acc =
    match first_fusion_pair ~fresh 0 state.State.views with
    | None -> (state, acc)
    | Some (v1, v2, j) ->
      let state', d = fuse state v1 v2 (fusion_of v1 v2) in
      (* v3 goes first; the other fresh views follow it *)
      close (if j < fresh then fresh - 1 else fresh) state' (Delta.compose acc d)
  in
  close fresh state Delta.empty

let fusion_closure state = fst (fusion_closure_delta state)
