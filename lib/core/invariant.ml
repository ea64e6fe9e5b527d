(* Semantic invariant checking for search states.

   The central certificate is Theorem-2.4-style equivalence: a state is
   valid for a workload exactly when, for every workload query, unfolding
   its rewriting (substituting each view scan by the view's definition)
   yields a union of conjunctive queries equivalent to the query's
   reference semantics.  Equivalence is certified constructively through
   Chandra-Merlin containment mappings in both directions, with the
   Sagiv-Yannakakis disjunct-wise criterion for unions. *)

type violation = { state_key : string; invariant : string; detail : string }

exception Violation of violation

let violation_to_string v =
  Printf.sprintf "[%s] %s" v.invariant v.detail

(* An escaped violation prints its family and detail. *)
let () =
  Printexc.register_printer (function
    | Violation v -> Some ("Core.Invariant.Violation " ^ violation_to_string v)
    | _ -> None)

(* ---------- unfolding ---------------------------------------------------- *)

(* A branch of the unfolded expression: one conjunctive disjunct, with one
   output term per column.  The columns follow {!Rewriting}'s rules, as
   Engine.Executor's do. *)
type branch = { terms : Query.Qterm.t list; body : Query.Atom.t list }

(* Every unfolding error is a [Failure], the column lookup's included. *)
let fail fmt = Printf.ksprintf failwith fmt

(* Substitute a variable by a query term across a branch. *)
let subst_branch x replacement b =
  let f y = if String.equal x y then Some replacement else None in
  {
    terms =
      List.map
        (function
          | Query.Qterm.Var y when String.equal y x -> replacement
          | t -> t)
        b.terms;
    body = List.map (Query.Atom.subst f) b.body;
  }

(* Equate two output positions within a branch; [None] when the branch is
   unsatisfiable (two distinct constants). *)
let unify_positions b i j =
  match (List.nth b.terms i, List.nth b.terms j) with
  | Query.Qterm.Var x, Query.Qterm.Var y ->
    if String.equal x y then Some b else Some (subst_branch y (Query.Qterm.Var x) b)
  | Query.Qterm.Var x, (Query.Qterm.Cst _ as c)
  | (Query.Qterm.Cst _ as c), Query.Qterm.Var x ->
    Some (subst_branch x c b)
  | Query.Qterm.Cst a, Query.Qterm.Cst c ->
    if Rdf.Term.equal a c then Some b else None

let unify_constant b i term =
  match List.nth b.terms i with
  | Query.Qterm.Var x -> Some (subst_branch x (Query.Qterm.Cst term) b)
  | Query.Qterm.Cst c -> if Rdf.Term.equal c term then Some b else None

let rec eval state expr : string list * branch list =
  match expr with
  | Rewriting.Scan name -> (
    match State.find_view state name with
    | None -> fail "scan of unknown view %s" name
    | Some v ->
      (* column names come from the view's declared head; the instance is
         freshened so repeated scans of one view never alias (freshening
         preserves head positions, keeping columns aligned) *)
      let cols = View.columns v in
      let cq = Query.Cq.freshen v.View.cq in
      (cols, [ { terms = cq.Query.Cq.head; body = cq.Query.Cq.body } ]))
  | Rewriting.Select (conds, inner) ->
    let cols, branches = eval state inner in
    let apply b cond =
      match (b, cond) with
      | None, _ -> None
      | Some b, Rewriting.Eq_cst (c, term) ->
        unify_constant b (Rewriting.column_index cols c) term
      | Some b, Rewriting.Eq_col (c1, c2) ->
        unify_positions b
          (Rewriting.column_index cols c1)
          (Rewriting.column_index cols c2)
    in
    ( cols,
      List.filter_map
        (fun b -> List.fold_left apply (Some b) conds)
        branches )
  | Rewriting.Project (out_cols, inner) ->
    let cols, branches = eval state inner in
    let idx = List.map (Rewriting.column_index cols) out_cols in
    ( out_cols,
      List.map
        (fun b -> { b with terms = List.map (List.nth b.terms) idx })
        branches )
  | Rewriting.Rename (mapping, inner) ->
    let cols, branches = eval state inner in
    (List.map (Rewriting.rename mapping) cols, branches)
  | Rewriting.Join (conds, l, r) ->
    let lcols, lbranches = eval state l in
    let rcols, rbranches = eval state r in
    let layout = Rewriting.join_layout lcols rcols conds in
    let n_left = List.length lcols in
    let key_pairs =
      List.map
        (fun (a, b) ->
          (Rewriting.column_index lcols a, n_left + Rewriting.column_index rcols b))
        layout.pairs
    in
    let keep_idx =
      List.init n_left (fun i -> i) @ List.map (fun i -> n_left + i) layout.kept
    in
    let joined =
      List.concat_map
        (fun lb ->
          List.filter_map
            (fun rb ->
              let combined =
                { terms = lb.terms @ rb.terms; body = lb.body @ rb.body }
              in
              let unified =
                List.fold_left
                  (fun acc (i, j) ->
                    match acc with
                    | None -> None
                    | Some b -> unify_positions b i j)
                  (Some combined) key_pairs
              in
              Option.map
                (fun b -> { b with terms = List.map (List.nth b.terms) keep_idx })
                unified)
            rbranches)
        lbranches
    in
    (layout.out, joined)
  | Rewriting.Union parts -> (
    match List.map (eval state) parts with
    | [] -> fail "empty union"
    | ((cols, _) :: _) as results ->
      let arity = List.length cols in
      ( cols,
        List.concat_map
          (fun (cols', branches) ->
            if List.length cols' <> arity then
              fail "union branches disagree on arity (%d vs %d)"
                (List.length cols') arity;
            branches)
          results ))

(* A rewriting unfolded into the union of conjunctive queries over the
   triple table it computes, operation for operation as the executor
   ({!Engine.Executor}) runs it.  A branch with an empty
   body can only arise from a view with an empty body, which Cq.make
   already forbids; Cq.make also rejects unsafe heads, which unfolding
   preserves (head variables always originate in some view head, hence
   appear in the body). *)
let unfold state expr =
  match eval state expr with
  | exception Failure m -> Error m
  | _, branches -> (
    match
      List.mapi
        (fun i b ->
          Query.Cq.make
            ~name:(Printf.sprintf "u%d" i)
            ~head:b.terms ~body:b.body)
        branches
    with
    | disjuncts -> Ok disjuncts
    | exception Invalid_argument m -> Error m)

(* ---------- references --------------------------------------------------- *)

(* The reference semantics of each workload query: a union of conjunctive
   queries the rewriting must stay equivalent to.  Singleton lists except
   under pre-reformulation, where the reference is the reformulated
   union. *)
type reference = (string * Query.Cq.t list) list

let reference_of_workload queries =
  List.map (fun q -> (q.Query.Cq.name, [ q ])) queries

let reference_of_groups groups = groups

let reference_of_state state =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | (qname, expr) :: rest -> (
      match unfold state expr with
      | Error m -> Error (Printf.sprintf "query %s: %s" qname m)
      | Ok disjuncts -> collect ((qname, disjuncts) :: acc) rest)
  in
  collect [] state.State.rewritings

(* ---------- UCQ equivalence ---------------------------------------------- *)

(* Sagiv-Yannakakis: a CQ is contained in a union iff it is contained in
   one disjunct; a union is contained in a query set iff every disjunct
   is. *)
let ucq_contained_in a b =
  List.for_all
    (fun qa -> List.exists (fun qb -> Query.Cq.contained_in qa qb) b)
    a

let ucq_equivalent a b = ucq_contained_in a b && ucq_contained_in b a

(* ---------- the checks --------------------------------------------------- *)

let check_structure state =
  let key = State.key_string state in
  List.map
    (fun detail -> { state_key = key; invariant = "structure"; detail })
    (State.structural_violations state)

let check_equivalence reference state =
  let key = State.key_string state in
  let problems = ref [] in
  let note invariant detail = problems := { state_key = key; invariant; detail } :: !problems in
  List.iter
    (fun (qname, disjuncts) ->
      match List.assoc_opt qname state.State.rewritings with
      | None -> note "coverage" (Printf.sprintf "query %s has no rewriting" qname)
      | Some expr -> (
        let arity =
          match disjuncts with q :: _ -> Query.Cq.arity q | [] -> 0
        in
        match unfold state expr with
        | Error m ->
          note "rewriting"
            (Printf.sprintf "rewriting of %s does not unfold: %s" qname m)
        | Ok unfolded ->
          List.iter
            (fun (u : Query.Cq.t) ->
              if Query.Cq.arity u <> arity then
                note "rewriting"
                  (Printf.sprintf
                     "rewriting of %s has arity %d, query has arity %d" qname
                     (Query.Cq.arity u) arity))
            unfolded;
          if not (ucq_contained_in unfolded disjuncts) then
            note "equivalence"
              (Printf.sprintf
                 "rewriting of %s is unsound: no containment mapping \
                  certifies unfolding ⊆ query"
                 qname)
          else if not (ucq_contained_in disjuncts unfolded) then
            note "equivalence"
              (Printf.sprintf
                 "rewriting of %s is incomplete: no containment mapping \
                  certifies query ⊆ unfolding"
                 qname)))
    reference;
  let expected = List.map fst reference in
  List.iter
    (fun (qname, _) ->
      if not (List.mem qname expected) then
        note "coverage"
          (Printf.sprintf "rewriting for unknown query %s" qname))
    state.State.rewritings;
  List.rev !problems

let finite_nonneg x = Float.is_finite x && x >= 0.

let check_costs estimator state =
  let key = State.key_string state in
  let problems = ref [] in
  let note detail =
    problems := { state_key = key; invariant = "cost"; detail } :: !problems
  in
  List.iter
    (fun v ->
      let card = Cost.view_cardinality estimator v in
      let size = Cost.view_size estimator v in
      if not (finite_nonneg card) then
        note
          (Printf.sprintf "view %s has cardinality estimate %g" (View.name v)
             card);
      if not (finite_nonneg size) then
        note (Printf.sprintf "view %s has size estimate %g" (View.name v) size))
    state.State.views;
  let b = Cost.breakdown estimator state in
  if not (finite_nonneg b.Cost.vso_part) then
    note (Printf.sprintf "VSO estimate %g" b.Cost.vso_part);
  if not (finite_nonneg b.Cost.rec_part) then
    note (Printf.sprintf "REC estimate %g" b.Cost.rec_part);
  if not (finite_nonneg b.Cost.vmc_part) then
    note (Printf.sprintf "VMC estimate %g" b.Cost.vmc_part);
  if not (finite_nonneg b.Cost.total) then
    note (Printf.sprintf "total estimate %g" b.Cost.total);
  let w = Cost.weights estimator in
  let recombined =
    (w.Cost.cs *. b.Cost.vso_part)
    +. (w.Cost.cr *. b.Cost.rec_part)
    +. (w.Cost.cm *. b.Cost.vmc_part)
  in
  let scale = Float.max 1. (Float.abs b.Cost.total) in
  if Float.abs (recombined -. b.Cost.total) > 1e-9 *. scale then
    note
      (Printf.sprintf "total %g is not the weighted sum of its parts (%g)"
         b.Cost.total recombined);
  List.rev !problems

(* A parent/child edge is replayable when some single transition from the
   parent produces the child's view set (the search may further collapse
   the child by aggressive view fusion, so the fusion closure is accepted
   too). *)
let check_edge ~parent ~child =
  let target = State.key child in
  let reachable =
    List.exists
      (fun kind ->
        List.exists
          (fun succ ->
            State.equal_key (State.key succ) target
            || State.equal_key (State.key (Transition.fusion_closure succ)) target)
          (Transition.successors parent kind))
      Transition.all_kinds
  in
  if reachable then []
  else
    [
      {
        state_key = State.key_to_string target;
        invariant = "edge";
        detail = "child state is not reachable from parent by any transition";
      };
    ]

(* An ill-formed state (a scan of an unknown view, say) has no defined
   cost, so its costs are checked only when its structure is sound. *)
let check ?estimator reference state =
  let structure = check_structure state in
  structure
  @ check_equivalence reference state
  @
  match (estimator, structure) with
  | Some e, [] -> check_costs e state
  | Some _, _ :: _ | None, _ -> []

let assert_valid ?estimator reference state =
  match check ?estimator reference state with
  | [] -> ()
  | v :: _ -> raise (Violation v)
