type weights = {
  cs : float;
  cr : float;
  cm : float;
  c1 : float;
  c2 : float;
  f : float;
}

let default_weights = { cs = 1.; cr = 1.; cm = 0.5; c1 = 1.; c2 = 1.; f = 2. }

(* Estimator telemetry: the state-cost memo's hit rate, the number of
   algebra nodes estimated, the time spent computing non-memoized
   state costs from scratch, and the incremental path's share
   (delta-applied vs full-recompute). *)
let obs_state_hits = Obs.cached_counter "cost.state.hits"
let obs_state_misses = Obs.cached_counter "cost.state.misses"
let obs_estimate_nodes = Obs.cached_counter "cost.estimate.nodes"
let obs_state_eval = Obs.cached_histogram "cost.state.eval"
let obs_delta_incremental = Obs.cached_counter "cost.delta.incremental"
let obs_delta_full = Obs.cached_counter "cost.delta.full"

type view_profile = {
  cardinality : float;
  distincts : (string * float) list;  (* per head column *)
  width : float;                      (* bytes per tuple *)
}

(* A memoized state cost with enough structure to be updated by a
   transition delta: the three unweighted components and the weighted
   per-rewriting REC contributions, in rewriting order.  [chain] counts
   incremental steps since the last full recompute; VSO and VMC drift
   by float re-association a little on every step, so the chain length
   is capped (REC reuse is exact: untouched rewritings keep their
   contribution bit-for-bit).  [rep] is the serial of the state the
   node was computed for: states with the same key share their views
   but may differ in their rewritings, hence in REC, so an entry
   serves only its own representative. *)
type node = {
  rep : int;
  total : float;
  vso_n : float;
  rec_n : float;
  vmc_n : float;
  per_rw : (string * float) list;
  chain : int;
}

type t = {
  stats : Stats.Statistics.t;
  weights : weights;
  profiles : (string, view_profile) Hashtbl.t;  (* by view name *)
  costs : node State.Tbl.t;  (* by state key, one representative each *)
  mutable memo_hits : int;
  mutable memo_misses : int;
}

let create stats weights =
  {
    stats;
    weights;
    profiles = Hashtbl.create 1024;
    costs = State.Tbl.create 1024;
    memo_hits = 0;
    memo_misses = 0;
  }

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
  match Hashtbl.find_opt t.profiles (View.name v) with
  | Some p -> p
  | None ->
    let cq = v.View.cq in
    let cardinality = Stats.Cardinality.estimate_cq t.stats cq in
    let cols = View.columns v in
    let distincts =
      List.map (fun x -> (x, Stats.Cardinality.var_distinct t.stats cq x)) cols
    in
    let width =
      List.fold_left (fun acc x -> acc +. var_width t.stats cq x) 0. cols
    in
    let p = { cardinality; distincts; width } in
    Hashtbl.add t.profiles (View.name v) p;
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
  Obs.incr (obs_estimate_nodes ());
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
    let rename (c, d) =
      match List.assoc_opt c mapping with Some c' -> (c', d) | None -> (c, d)
    in
    { e with dist = List.map rename e.dist }
  | Rewriting.Join (conds, l, r) ->
    let el = estimate t s l in
    let er = estimate t s r in
    let pairs =
      match conds with
      | [] ->
        let left_cols = List.map fst el.dist in
        List.filter_map
          (fun (c, _) -> if List.mem c left_cols then Some (c, c) else None)
          er.dist
      | _ :: _ -> conds
    in
    let selectivity =
      List.fold_left
        (fun acc (a, b) ->
          acc /. Float.max (dist_of el a) (dist_of er b))
        1. pairs
    in
    let card = Float.max (el.card *. er.card *. selectivity) 0. in
    let joined_dist =
      let from_left = el.dist in
      let from_right =
        List.filter (fun (c, _) -> not (List.mem_assoc c from_left)) er.dist
      in
      List.map
        (fun (c, d) ->
          match List.assoc_opt c pairs with
          | Some b -> (c, Float.min d (dist_of er b))
          | None -> (c, d))
        from_left
      @ from_right
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

let rewriting_cardinality t s expr = (estimate t s expr).card

(* One rewriting's weighted REC contribution, c1·io + c2·cpu. *)
let weighted_rw t s expr =
  let io, cpu = rewriting_cost t s expr in
  (t.weights.c1 *. io) +. (t.weights.c2 *. cpu)

let sum_per_rw per_rw = List.fold_left (fun acc (_, c) -> acc +. c) 0. per_rw

let rec_cost t (s : State.t) =
  List.fold_left
    (fun acc (_, r) -> acc +. weighted_rw t s r)
    0. s.State.rewritings

let total_of t ~vso_n ~rec_n ~vmc_n =
  (t.weights.cs *. vso_n) +. (t.weights.cr *. rec_n) +. (t.weights.cm *. vmc_n)

(* The reference path: everything from scratch.  Both [breakdown] and
   the memo's full recomputes go through here, so the strict-mode
   cross-checks compare the incremental result against exactly this. *)
let node_full t (s : State.t) =
  let vso_n = vso t s in
  let vmc_n = vmc t s in
  let per_rw =
    List.map (fun (q, r) -> (q, weighted_rw t s r)) s.State.rewritings
  in
  let rec_n = sum_per_rw per_rw in
  {
    rep = s.State.serial;
    total = total_of t ~vso_n ~rec_n ~vmc_n;
    vso_n;
    rec_n;
    vmc_n;
    per_rw;
    chain = 0;
  }

type breakdown = { vso_part : float; rec_part : float; vmc_part : float; total : float }

let breakdown t s =
  let n = node_full t s in
  { vso_part = n.vso_n; rec_part = n.rec_n; vmc_part = n.vmc_n; total = n.total }

let memo_counts t = (t.memo_hits, t.memo_misses)

let note_hit t =
  t.memo_hits <- t.memo_hits + 1;
  Obs.incr (obs_state_hits ())

let note_miss t =
  t.memo_misses <- t.memo_misses + 1;
  Obs.incr (obs_state_misses ())

(* The memoized node of [s] itself: an entry left by another state
   with the same views does not count. *)
let memo_find t s =
  match State.Tbl.find_opt t.costs (State.key s) with
  | Some n when n.rep = s.State.serial -> Some n
  | Some _ | None -> None

let state_cost t s =
  match memo_find t s with
  | Some n ->
    note_hit t;
    n.total
  | None ->
    note_miss t;
    let n = Obs.time (obs_state_eval ()) (fun () -> node_full t s) in
    State.Tbl.replace t.costs (State.key s) n;
    n.total

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
   are memoized by name — their cached contributions are bit-exact. *)
let node_delta t parent_node (d : Delta.t) (child : State.t) =
  let sum f vs = List.fold_left (fun acc v -> acc +. f v) 0. vs in
  let vso_n =
    parent_node.vso_n
    -. sum (view_size t) d.Delta.views_removed
    +. sum (view_size t) d.Delta.views_added
  in
  let vmc_n =
    parent_node.vmc_n
    -. sum (view_maintenance t) d.Delta.views_removed
    +. sum (view_maintenance t) d.Delta.views_added
  in
  let touched q = List.exists (String.equal q) d.Delta.rewritings_touched in
  let per_rw =
    List.map2
      (fun (q, cached) (q', r) ->
        if not (String.equal q q') then raise Delta_mismatch;
        if touched q then (q, weighted_rw t child r) else (q, cached))
      parent_node.per_rw child.State.rewritings
  in
  let rec_n = sum_per_rw per_rw in
  {
    rep = child.State.serial;
    total = total_of t ~vso_n ~rec_n ~vmc_n;
    vso_n;
    rec_n;
    vmc_n;
    per_rw;
    chain = parent_node.chain + 1;
  }

let node_of t s =
  match memo_find t s with
  | Some n -> n
  | None ->
    let n = node_full t s in
    State.Tbl.replace t.costs (State.key s) n;
    n

let state_cost_delta ?(memoize = true) ~strict t ~parent ~delta child =
  match memo_find t child with
  | Some n ->
    note_hit t;
    n.total
  | None ->
    note_miss t;
    let parent_node = node_of t parent in
    let n =
      if parent_node.chain >= max_chain then begin
        Obs.incr (obs_delta_full ());
        Obs.time (obs_state_eval ()) (fun () -> node_full t child)
      end
      else
        match node_delta t parent_node delta child with
        | n ->
          Obs.incr (obs_delta_incremental ());
          n
        | exception (Delta_mismatch | Invalid_argument _) ->
          (* the delta does not line up with the child's rewritings (a
             caller outside the transition pipeline); fall back to the
             reference path *)
          Obs.incr (obs_delta_full ());
          Obs.time (obs_state_eval ()) (fun () -> node_full t child)
    in
    if strict && n.chain > 0 then begin
      let reference = node_full t child in
      let scale =
        Float.max 1. (Float.max (Float.abs n.total) (Float.abs reference.total))
      in
      if Float.abs (n.total -. reference.total) > delta_tolerance *. scale then
        failwith
          (Printf.sprintf
             "Cost.state_cost_delta: incremental cost %.12g diverged from \
              full recompute %.12g on state %s"
             n.total reference.total (State.key_string child))
    end;
    if memoize then State.Tbl.replace t.costs (State.key child) n;
    n.total

let memo_consistent t s =
  match memo_find t s with
  | None -> true
  | Some memoized ->
    let fresh = (node_full t s).total in
    let scale =
      Float.max 1. (Float.max (Float.abs memoized.total) (Float.abs fresh))
    in
    Float.abs (memoized.total -. fresh) <= delta_tolerance *. scale
