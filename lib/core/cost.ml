type weights = {
  cs : float;
  cr : float;
  cm : float;
  c1 : float;
  c2 : float;
  f : float;
}

let default_weights = { cs = 1.; cr = 1.; cm = 0.5; c1 = 1.; c2 = 1.; f = 2. }

type view_profile = {
  cardinality : float;
  distincts : (string * float) list;  (* per head column *)
  width : float;                      (* bytes per tuple *)
}

(* A state cost with enough structure to be updated by a transition
   delta: the three unweighted components and the weighted per-rewriting
   REC contributions, in rewriting order.  [chain] counts incremental
   steps since the last full recompute; VSO and VMC drift by float
   re-association a little on every step, so the chain length is capped
   (REC reuse is exact: untouched rewritings keep their contribution
   bit-for-bit). *)
type node = {
  total : float;
  vso_n : float;
  rec_n : float;
  vmc_n : float;
  per_rw : (string * float) list;
  chain : int;
}

(* Keyed by View.id, hashed by its own value, without the polymorphic
   hash ([Int.hash] is missing before OCaml 5.1). *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

(* The estimator's books: the algebra nodes estimated, the child nodes
   made by the delta path and by a full recompute, and the timing of
   every full recompute.  {!publish} hands the counts to a sink. *)
type t = {
  stats : Stats.Statistics.t;
  weights : weights;
  profiles : view_profile Int_tbl.t;  (* by View.id *)
  mutable estimated : int;
  mutable incremental : int;
  mutable full : int;
  state_eval : Obs.histogram;
}

let for_run t timings =
  let state_eval = Obs.histogram timings "cost.state.eval" in
  { t with estimated = 0; incremental = 0; full = 0; state_eval }

let create stats weights =
  let profiles = Int_tbl.create 1024 in
  let state_eval = Obs.histogram Obs.disabled "cost.state.eval" in
  { stats; weights; profiles; estimated = 0; incremental = 0; full = 0; state_eval }

let absorb ~into t =
  into.estimated <- into.estimated + t.estimated;
  into.incremental <- into.incremental + t.incremental;
  into.full <- into.full + t.full

(* A counter is registered only where its count is above zero, as a
   bump per event would have left it. *)
let publish t sink =
  let add n counter = if n > 0 then Obs.add (counter ()) n in
  add t.estimated (fun () -> Obs.counter sink "cost.estimate.nodes");
  add t.incremental (fun () -> Obs.counter sink "cost.delta.incremental");
  add t.full (fun () -> Obs.counter sink "cost.delta.full")

let weights t = t.weights
let stats t = t.stats

(* The byte width of a head variable is the average term size of the
   column where it first occurs in the body. *)
let var_width stats (cq : Query.Cq.t) x =
  let column_of =
    List.find_map
      (fun a ->
        List.find_map
          (fun pos ->
            match Query.Atom.term_at a pos with
            | Query.Qterm.Var y when String.equal x y ->
              Some (match pos with Query.Atom.S -> `S | Query.Atom.P -> `P | Query.Atom.O -> `O)
            | Query.Qterm.Var _ | Query.Qterm.Cst _ -> None)
          Query.Atom.positions)
      cq.Query.Cq.body
  in
  match column_of with
  | Some col -> Stats.Statistics.avg_term_size stats col
  | None -> 8.

let profile t (v : View.t) =
  match Int_tbl.find_opt t.profiles v.View.id with
  | Some p -> p
  | None ->
    let cq = v.View.cq in
    let cols = View.columns v in
    let cardinality, distincts = Stats.Cardinality.profile t.stats cq cols in
    let width =
      List.fold_left (fun acc x -> acc +. var_width t.stats cq x) 0. cols
    in
    let p = { cardinality; distincts; width } in
    Int_tbl.add t.profiles v.View.id p;
    p

let view_cardinality t v = (profile t v).cardinality

let view_size t v =
  let p = profile t v in
  p.cardinality *. Float.max p.width 1.

let view_maintenance t v =
  Float.pow t.weights.f (float_of_int (View.atom_count v))

let vso t (s : State.t) =
  List.fold_left (fun acc v -> acc +. view_size t v) 0. s.State.views

let vmc t (s : State.t) =
  List.fold_left (fun acc v -> acc +. view_maintenance t v) 0. s.State.views

(* Estimation result for a sub-expression. *)
type estimate = {
  card : float;
  dist : (string * float) list;
  cpu : float;
  io : float;
}

let dist_of est col =
  match List.assoc_opt col est.dist with
  | Some d -> Float.max 1. (Float.min d (Float.max est.card 1.))
  | None -> Float.max 1. est.card

let set_dist dist col value =
  (col, value) :: List.remove_assoc col dist

let rec estimate t (s : State.t) expr =
  t.estimated <- t.estimated + 1;
  match expr with
  | Rewriting.Scan name -> (
    match State.find_view s name with
    | Some v ->
      let p = profile t v in
      { card = p.cardinality; dist = p.distincts; cpu = 0.; io = p.cardinality }
    | None -> failwith ("Cost.estimate: unknown view " ^ name))
  | Rewriting.Select (conds, inner) ->
    let e = estimate t s inner in
    let apply acc = function
      | Rewriting.Eq_cst (col, _) ->
        let d = dist_of acc col in
        { acc with card = acc.card /. d; dist = set_dist acc.dist col 1. }
      | Rewriting.Eq_col (c1, c2) ->
        let d1 = dist_of acc c1 in
        let d2 = dist_of acc c2 in
        let small = Float.min d1 d2 in
        let dist = set_dist (set_dist acc.dist c1 small) c2 small in
        { acc with card = acc.card /. Float.max d1 d2; dist }
    in
    let out = List.fold_left apply e conds in
    { out with cpu = e.cpu +. e.card }
  | Rewriting.Project (cols, inner) ->
    let e = estimate t s inner in
    { e with dist = List.filter (fun (c, _) -> List.mem c cols) e.dist }
  | Rewriting.Rename (mapping, inner) ->
    let e = estimate t s inner in
    { e with dist = List.map (fun (c, d) -> (Rewriting.rename mapping c, d)) e.dist }
  | Rewriting.Join (conds, l, r) ->
    let el = estimate t s l in
    let er = estimate t s r in
    let layout =
      Rewriting.join_layout (List.map fst el.dist) (List.map fst er.dist) conds
    in
    let selectivity =
      List.fold_left
        (fun acc (a, b) ->
          acc /. Float.max (dist_of el a) (dist_of er b))
        1. layout.pairs
    in
    let card = Float.max (el.card *. er.card *. selectivity) 0. in
    let joined_dist =
      List.map
        (fun (c, d) ->
          match List.assoc_opt c layout.pairs with
          | Some b -> (c, Float.min d (dist_of er b))
          | None -> (c, d))
        el.dist
      @ List.map (List.nth er.dist) layout.kept
    in
    {
      card;
      dist = joined_dist;
      cpu = el.cpu +. er.cpu +. el.card +. er.card +. card;
      io = el.io +. er.io;
    }
  | Rewriting.Union branches ->
    let es = List.map (estimate t s) branches in
    let card = List.fold_left (fun acc e -> acc +. e.card) 0. es in
    let dist =
      match es with
      | [] -> []
      | first :: _ ->
        List.map
          (fun (c, _) ->
            (c, List.fold_left (fun acc e -> acc +. dist_of e c) 0. es))
          first.dist
    in
    {
      card;
      dist;
      cpu = List.fold_left (fun acc e -> acc +. e.cpu +. e.card) 0. es;
      io = List.fold_left (fun acc e -> acc +. e.io) 0. es;
    }

let rewriting_cost t s expr =
  let e = estimate t s expr in
  (e.io, e.cpu)

(* One rewriting's weighted REC contribution, c1·io + c2·cpu. *)
let weighted_rw t s expr =
  let io, cpu = rewriting_cost t s expr in
  (t.weights.c1 *. io) +. (t.weights.c2 *. cpu)

let sum_per_rw per_rw = List.fold_left (fun acc (_, c) -> acc +. c) 0. per_rw

let total_of t ~vso_n ~rec_n ~vmc_n =
  (t.weights.cs *. vso_n) +. (t.weights.cr *. rec_n) +. (t.weights.cm *. vmc_n)

(* The reference path: everything from scratch.  [breakdown], [root]
   and the incremental path's fallbacks all go through here, so the
   strict-mode cross-check compares the incremental result against
   exactly this. *)
let node_full t (s : State.t) =
  let vso_n = vso t s in
  let vmc_n = vmc t s in
  let per_rw =
    List.map (fun (q, r) -> (q, weighted_rw t s r)) s.State.rewritings
  in
  let rec_n = sum_per_rw per_rw in
  {
    total = total_of t ~vso_n ~rec_n ~vmc_n;
    vso_n;
    rec_n;
    vmc_n;
    per_rw;
    chain = 0;
  }

let total n = n.total

let root t s = Obs.time t.state_eval (fun () -> node_full t s)

let state_cost t s = total (root t s)

type breakdown = { vso_part : float; rec_part : float; vmc_part : float; total : float }

let breakdown t s =
  let n = node_full t s in
  { vso_part = n.vso_n; rec_part = n.rec_n; vmc_part = n.vmc_n; total = n.total }

(* ---------- incremental costing ------------------------------------------ *)

(* Incremental chains are cut after this many steps: REC reuse is exact,
   but VSO/VMC accumulate one float re-association per step, so a
   periodic full recompute keeps the drift orders of magnitude below the
   strict-mode tolerance. *)
let max_chain = 24

let delta_tolerance = 1e-6

exception Delta_mismatch

(* parent − removed + added, with only the touched rewritings
   re-estimated in the child.  Untouched rewritings are physically
   shared with the parent and scan only surviving views, whose profiles
   are memoized by id — their cached contributions are bit-exact. *)
let node_delta t parent (d : Delta.t) (child : State.t) =
  let sum f vs = List.fold_left (fun acc v -> acc +. f v) 0. vs in
  let vso_n =
    parent.vso_n
    -. sum (view_size t) d.Delta.views_removed
    +. sum (view_size t) d.Delta.views_added
  in
  let vmc_n =
    parent.vmc_n
    -. sum (view_maintenance t) d.Delta.views_removed
    +. sum (view_maintenance t) d.Delta.views_added
  in
  let touched q = List.exists (String.equal q) d.Delta.rewritings_touched in
  let per_rw =
    List.map2
      (fun (q, cached) (q', r) ->
        if not (String.equal q q') then raise Delta_mismatch;
        if touched q then (q, weighted_rw t child r) else (q, cached))
      parent.per_rw child.State.rewritings
  in
  let rec_n = sum_per_rw per_rw in
  {
    total = total_of t ~vso_n ~rec_n ~vmc_n;
    vso_n;
    rec_n;
    vmc_n;
    per_rw;
    chain = parent.chain + 1;
  }

let child ~strict t ~parent ~delta s =
  let n =
    if parent.chain >= max_chain then begin
      t.full <- t.full + 1;
      root t s
    end
    else
      match node_delta t parent delta s with
      | n ->
        t.incremental <- t.incremental + 1;
        n
      | exception (Delta_mismatch | Invalid_argument _) ->
        (* the delta does not line up with the child's rewritings (a
           caller outside the transition pipeline); fall back to the
           reference path *)
        t.full <- t.full + 1;
        root t s
  in
  if strict && n.chain > 0 then begin
    let reference = node_full t s in
    let scale =
      Float.max 1. (Float.max (Float.abs n.total) (Float.abs reference.total))
    in
    if Float.abs (n.total -. reference.total) > delta_tolerance *. scale then
      failwith
        (Printf.sprintf
           "Cost.child: incremental cost %.12g diverged from full recompute \
            %.12g on state %s"
           n.total reference.total (State.key_string s))
  end;
  n
