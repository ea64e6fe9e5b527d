type which = Pruning | Greedy | Heuristic

let name = function
  | Pruning -> "Pruning"
  | Greedy -> "Greedy"
  | Heuristic -> "Heuristic"

exception Resources_exhausted of [ `Time | `Memory ]

type run_state = {
  estimator : Cost.t;
  options : Search.options;
  started : int;  (* [Obs.now_ns] *)
  mutable created : int;
  mutable duplicates : int;
  mutable discarded : int;
  mutable explored : int;
  mutable live_states : int;
}

let elapsed rs = float_of_int (Obs.now_ns () - rs.started) *. 1e-9

let check_resources rs =
  (match rs.options.Search.time_budget with
  | Some budget ->
    if elapsed rs > budget then raise (Resources_exhausted `Time)
  | None -> ());
  match rs.options.Search.max_states with
  | Some cap -> if rs.live_states > cap then raise (Resources_exhausted `Memory)
  | None -> ()

let cost rs s = Cost.state_cost rs.estimator s

(* Full closure of a one-query state under VB, SC and JC (stratified
   development, as in [21]: view breaks and edge removals on the isolated
   query).  Each developed state comes with its cost. *)
let develop_query rs state =
  let seen = State.Tbl.create 256 in
  let results = ref [] in
  let pending = Queue.create () in
  let push rank s =
    rs.created <- rs.created + 1;
    if Search.violates_stop rs.options s then
      rs.discarded <- rs.discarded + 1
    else
    let key = State.key s in
    if State.Tbl.mem seen key then rs.duplicates <- rs.duplicates + 1
    else begin
      State.Tbl.replace seen key ();
      rs.live_states <- rs.live_states + 1;
      check_resources rs;
      results := (s, cost rs s) :: !results;
      Queue.add (s, rank) pending
    end
  in
  push 0 state;
  while not (Queue.is_empty pending) do
    let s, rank = Queue.pop pending in
    rs.explored <- rs.explored + 1;
    check_resources rs;
    List.iter
      (fun kind ->
        let krank = Transition.kind_rank kind in
        if krank >= rank then
          List.iter (fun succ -> push krank succ) (Transition.successors s kind))
      [ Transition.VB; Transition.SC; Transition.JC ]
  done;
  !results

let merge_states a b =
  let merged =
    State.make
      ~views:(a.State.views @ b.State.views)
      ~rewritings:(a.State.rewritings @ b.State.rewritings)
  in
  Transition.fusion_closure merged

(* The cheapest (state, cost) pair, the first one on ties. *)
let best_of = function
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun ((_, c) as acc) ((_, c') as e) -> if c' < c then e else acc)
         first rest)

(* Pairwise-dominance pruning as in [21]: a combined partial state is
   dropped when another covers the same queries at lower cost AND offers
   a superset of fusable view shapes; we approximate by cost plus view
   count (cheaper with no more views dominates). *)
let prune_dominated rs states =
  let info =
    List.map (fun (s, c) -> (s, c, List.length s.State.views)) states
  in
  let dominated (s, c, n) =
    List.exists
      (fun (s', c', n') ->
        (* lint: allow phys-equal — self-exclusion among list elements *)
        (not (s == s')) && c' <= c && n' <= n && (c' < c || n' < n))
      info
  in
  let kept = List.filter (fun entry -> not (dominated entry)) info in
  rs.discarded <- rs.discarded + (List.length states - List.length kept);
  List.map (fun (s, c, _) -> (s, c)) kept

(* Heuristic selection of the per-query states to retain: the best one,
   plus any state sharing a fusable view body with some other query's
   developed states. *)
let heuristic_filter rs per_query =
  let body_keys states =
    List.concat_map
      (fun (s, _) -> List.map View.body_intern_id s.State.views)
      states
    |> List.sort_uniq Int.compare
  in
  List.mapi
    (fun i states ->
      let others =
        List.concat
          (List.filteri (fun j _ -> j <> i) per_query)
      in
      let other_keys = body_keys others in
      let best = best_of states in
      let fusable (s, _) =
        List.exists
          (fun v -> List.mem (View.body_intern_id v) other_keys)
          s.State.views
      in
      let is_best (s, _) =
        (* lint: allow phys-equal — identity of the already-chosen best *)
        match best with Some (b, _) -> s == b | None -> false
      in
      let kept = List.filter (fun s -> is_best s || fusable s) states in
      rs.discarded <- rs.discarded + (List.length states - List.length kept);
      (* fusable states are still pruned by dominance before combining *)
      prune_dominated rs kept)
    per_query

let combine rs which per_query =
  match per_query with
  | [] -> []
  | first :: rest ->
    List.fold_left
      (fun combos states ->
        let merged =
          List.concat_map
            (fun (c, _) ->
              List.map
                (fun (s, _) ->
                  rs.created <- rs.created + 1;
                  check_resources rs;
                  let m = merge_states c s in
                  (m, cost rs m))
                states)
            combos
        in
        (* only the kept combined states occupy memory; the transient
           merges above are accounted as created *)
        let kept =
          match which with
          | Greedy -> (
            match best_of merged with Some b -> [ b ] | None -> [])
          | Pruning | Heuristic -> prune_dominated rs merged
        in
        rs.live_states <- rs.live_states + List.length kept;
        check_resources rs;
        kept)
      first rest

let run estimator options which workload =
  let reference = State.initial workload in
  let initial_cost = Cost.state_cost estimator reference in
  let rs =
    {
      estimator;
      options;
      started = Obs.now_ns ();
      created = 0;
      duplicates = 0;
      discarded = 0;
      explored = 0;
      live_states = 0;
    }
  in
  let outcome =
    try
      let per_query =
        List.map
          (fun q -> develop_query rs (State.initial [ q ]))
          workload
      in
      let per_query =
        match which with
        | Heuristic -> heuristic_filter rs per_query
        | Pruning ->
          (* [21]: dominated partial (one-query) states are discarded
             before any combination *)
          List.map (prune_dominated rs) per_query
        | Greedy -> per_query
      in
      let combos = combine rs which per_query in
      `Finished (best_of combos)
    with Resources_exhausted reason -> `Exhausted reason
  in
  let (best, best_cost), completed, oom =
    match outcome with
    | `Finished (Some (b, c)) when c <= initial_cost -> ((b, c), true, false)
    | `Finished _ -> ((reference, initial_cost), true, false)
    | `Exhausted `Memory -> ((reference, initial_cost), false, true)
    | `Exhausted `Time -> ((reference, initial_cost), false, false)
  in
  {
    Search.best;
    best_cost;
    initial_cost;
    created = rs.created;
    duplicates = rs.duplicates;
    discarded = rs.discarded;
    explored = rs.explored;
    elapsed = elapsed rs;
    trajectory = [];
    completed;
    out_of_memory = oom;
  }
