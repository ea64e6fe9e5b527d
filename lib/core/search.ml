type strategy = Exnaive | Exstr | Dfs | Gstr

type options = {
  strategy : strategy;
  avf : bool;
  stop_tt : bool;
  stop_var : bool;
  time_budget : float option;
  max_states : int option;
  weights : Cost.weights;
  on_accept : (State.t -> unit) option;
}

let default_options =
  {
    strategy = Dfs;
    avf = true;
    stop_tt = true;
    stop_var = true;
    time_budget = None;
    max_states = None;
    weights = Cost.default_weights;
    on_accept = None;
  }

type report = {
  best : State.t;
  best_cost : float;
  initial_cost : float;
  created : int;
  duplicates : int;
  discarded : int;
  explored : int;
  elapsed : float;
  trajectory : (float * float) list;
  completed : bool;
  out_of_memory : bool;
}

let rcr r =
  if r.initial_cost = 0. then 0.
  else (r.initial_cost -. r.best_cost) /. r.initial_cost

let strategy_name = function
  | Exnaive -> "EXNAIVE"
  | Exstr -> "EXSTR"
  | Dfs -> "DFS"
  | Gstr -> "GSTR"

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "exnaive" -> Some Exnaive
  | "exstr" -> Some Exstr
  | "dfs" -> Some Dfs
  | "gstr" -> Some Gstr
  | _ -> None

(* An all-variable view (stopvar) necessarily has a single atom: views
   are connected, and two atoms sharing no constant would still share a
   variable — but any multi-atom all-variable view is still rejected as
   its space occupancy exceeds the full triple table. *)
let is_all_var_view v =
  Query.Cq.constant_count v.View.cq = 0

let is_triple_table_view v =
  View.atom_count v = 1 && Query.Cq.constant_count v.View.cq = 0

let view_violates options v =
  (options.stop_tt && is_triple_table_view v)
  || (options.stop_var && is_all_var_view v)

let violates_stop options state =
  List.exists (view_violates options) state.State.views

let stop_test options =
  if options.stop_tt || options.stop_var then Some (view_violates options)
  else None

(* Obs mirrors of the engine's accounting, plus what the report cannot
   carry: per-stratum outcomes and per-state expansion timings.  The
   stratum of an event is the rank of the transition kind that produced
   (resp. is expanding) the state.  A registry dump is the one record of
   a search that [rdfviews report] reads, and under [--jobs N] the
   per-domain registries are merged, so these cover every domain. *)
let obs_runs = Obs.cached_counter "search.runs"
let obs_created = Obs.cached_counter "search.created"
let obs_duplicates = Obs.cached_counter "search.duplicates"
let obs_discarded = Obs.cached_counter "search.discarded"
let obs_explored = Obs.cached_counter "search.explored"
let obs_reopened = Obs.cached_counter "search.reopened"
let obs_run_time = Obs.cached_histogram "search.run"
let obs_expand_hist = Obs.cached_histogram "search.expand.ns"
let obs_initial_cost = Obs.cached_gauge "search.initial_cost"
let obs_best_cost = Obs.cached_gauge "search.best_cost"
let obs_completed = Obs.cached_gauge "search.completed"
let obs_intern_size = Obs.cached_gauge "intern.size"

let obs_per_stratum make =
  let arr = Array.make (List.length Transition.all_kinds) (make "VB") in
  List.iter
    (fun k -> arr.(Transition.kind_rank k) <- make (Transition.kind_name k))
    Transition.all_kinds;
  arr

let obs_stratum what =
  obs_per_stratum (fun k ->
      Obs.cached_counter ("search.stratum." ^ k ^ "." ^ what))

let obs_stratum_created = obs_stratum "created"
let obs_stratum_duplicates = obs_stratum "duplicates"
let obs_stratum_reopened = obs_stratum "reopened"
let obs_stratum_discarded = obs_stratum "discarded"

type engine = {
  estimator : Cost.t;
  options : options;
  strict_reference : Invariant.reference option;
      (* Some under RDFVIEWS_STRICT: every accepted state is asserted
         equivalent to this reference *)
  stop : (View.t -> bool) option;  (* [stop_test options] *)
  seen : Shard_tbl.t;
      (* state key -> lowest stratum rank; shared by the forks of a
         parallel run *)
  mutable created : int;
  mutable duplicates : int;
  mutable discarded : int;
  mutable explored : int;
  mutable best : State.t;
  mutable best_cost : float;
  mutable trajectory : (float * float) list;
  mutable oom : bool;
  started : float;
}

let now () = Unix.gettimeofday ()

let elapsed engine = now () -. engine.started

let timed_out engine =
  match engine.options.time_budget with
  | Some budget -> elapsed engine > budget
  | None -> false

let memory_exceeded engine =
  match engine.options.max_states with
  | Some cap ->
    if Shard_tbl.population engine.seen > cap then begin
      engine.oom <- true;
      true
    end
    else false
  | None -> false

let note_best engine state cost =
  if cost < engine.best_cost then begin
    engine.best <- state;
    engine.best_cost <- cost;
    engine.trajectory <- (elapsed engine, cost) :: engine.trajectory
  end

(* The first half of successor admission: the AVF collapse, composing
   its fusion deltas on top of the transition's own change so the pair
   handed to {!Cost.state_cost_delta} always describes parent →
   collapsed state.  Every parent is itself collapsed, so only pairs
   with one of the views the transition added (placed first) can fuse. *)
let collapse options ~delta state =
  if options.avf then begin
    match
      Transition.fusion_closure_delta
        ~fresh:(List.length delta.Delta.views_added) state
    with
    (* no fusion fired (the common case): skip the compose allocation *)
    | state', { Delta.views_removed = []; views_added = []; rewritings_touched = [] }
      ->
      (state', delta)
    | state', fused -> (state', Delta.compose delta fused)
  end
  else (state, delta)

(* A key names a view set: a state reached again along another path
   has the same views but may carry other rewritings, hence another
   REC.  Every arrival is costed, so the incumbent is the cheapest state
   generated whichever path reaches a key first, an order a parallel
   run does not share.  Only a state that will be expanded ([memoize])
   replaces the key's memoized cost; one that becomes the incumbent is
   strict-checked like an accepted state. *)
let cost_arrival engine ~memoize ~parent ~delta state =
  let cost =
    Cost.state_cost_delta ~memoize engine.estimator ~parent ~delta state
  in
  if cost < engine.best_cost then begin
    (match engine.strict_reference with
    | Some reference ->
      Invariant.assert_valid ~estimator:engine.estimator reference state
    | None -> ());
    note_best engine state cost
  end;
  cost

(* Successors pruned by the stop conditions inside {!Transition}: created
   and discarded at once, never built. *)
let note_discarded engine ~rank n =
  if n > 0 then begin
    engine.created <- engine.created + n;
    engine.discarded <- engine.discarded + n;
    Obs.add (obs_created ()) n;
    Obs.add (obs_stratum_created.(rank) ()) n;
    Obs.add (obs_discarded ()) n;
    Obs.add (obs_stratum_discarded.(rank) ()) n
  end

(* The mutating half: account, dedup against the seen-table, cost,
   strict-check.  Expects an already-{!collapse}d state that passes the
   stop conditions.  Returns [Some (state, rank)] when the state is new
   (or re-opened at a lower stratum) and should be expanded further. *)
let register engine ~rank ~parent ~delta state =
  engine.created <- engine.created + 1;
  Obs.incr (obs_created ());
  Obs.incr (obs_stratum_created.(rank) ());
  match Shard_tbl.visit engine.seen (State.key state) rank with
  | Shard_tbl.Duplicate ->
    ignore (cost_arrival engine ~memoize:false ~parent ~delta state : float);
    engine.duplicates <- engine.duplicates + 1;
    Obs.incr (obs_duplicates ());
    Obs.incr (obs_stratum_duplicates.(rank) ());
    None
  | Shard_tbl.Reopened ->
    (* reached again, but at a lower stratum: re-open *)
    ignore (cost_arrival engine ~memoize:true ~parent ~delta state : float);
    engine.duplicates <- engine.duplicates + 1;
    Obs.incr (obs_duplicates ());
    Obs.incr (obs_reopened ());
    Obs.incr (obs_stratum_duplicates.(rank) ());
    Obs.incr (obs_stratum_reopened.(rank) ());
    Some (state, rank)
  | Shard_tbl.New ->
    (* cost first, then the strict assertion: the incremental result
       must be memoized before Invariant's memo_consistent check so
       that the check exercises the delta path, not a fresh full
       recompute of its own *)
    let cost =
      Cost.state_cost_delta engine.estimator ~parent ~delta state
    in
    (match engine.strict_reference with
    | Some reference ->
      Invariant.assert_valid ~estimator:engine.estimator reference state
    | None -> ());
    note_best engine state cost;
    (match engine.options.on_accept with
    | Some hook -> hook state
    | None -> ());
    Some (state, rank)

(* Generate the successors of [parent] by one transition kind and admit
   them: stop-violating ones are pruned before they are built, the rest
   are collapsed and registered. *)
let admit engine ~rank ~parent kind =
  let built, pruned =
    Transition.successors_with_delta ?stop:engine.stop parent kind
  in
  note_discarded engine ~rank pruned;
  List.filter_map
    (fun (succ, delta) ->
      let succ, delta = collapse engine.options ~delta succ in
      register engine ~rank ~parent ~delta succ)
    built

let allowed_kinds options rank =
  match options.strategy with
  | Exnaive -> Transition.all_kinds
  | Exstr | Dfs | Gstr ->
    List.filter (fun k -> Transition.kind_rank k >= rank) Transition.all_kinds

(* EXNAIVE is unstratified: every revisit is a plain duplicate *)
let rank_of options kind =
  match options.strategy with
  | Exnaive -> 0
  | Exstr | Dfs | Gstr -> Transition.kind_rank kind

let note_explored engine =
  engine.explored <- engine.explored + 1;
  Obs.incr (obs_explored ())

let expand engine state rank =
  note_explored engine;
  Obs.time (obs_expand_hist ()) @@ fun () ->
  List.concat_map
    (fun kind ->
      admit engine ~rank:(rank_of engine.options kind) ~parent:state kind)
    (allowed_kinds engine.options rank)

(* Worklist search; [lifo] makes it depth-first.  FIFO uses a Queue to
   stay linear on large frontiers. *)
let worklist_search engine ~lifo initial =
  let completed = ref true in
  if lifo then begin
    let pending = ref [ (initial, 0) ] in
    let rec loop () =
      match !pending with
      | [] -> ()
      | (state, rank) :: rest ->
        if timed_out engine || memory_exceeded engine then completed := false
        else begin
          pending := expand engine state rank @ rest;
          loop ()
        end
    in
    loop ()
  end
  else begin
    let pending = Queue.create () in
    Queue.add (initial, 0) pending;
    let rec loop () =
      if not (Queue.is_empty pending) then
        if timed_out engine || memory_exceeded engine then completed := false
        else begin
          let state, rank = Queue.pop pending in
          List.iter (fun item -> Queue.add item pending) (expand engine state rank);
          loop ()
        end
    in
    loop ()
  end;
  !completed

(* Greedy stratified: full closure of one kind from the current best,
   then restart from the best state found, next kind. *)
let gstr_search engine initial =
  let completed = ref true in
  let closure_of kind start =
    let stage_best = ref start in
    let stage_best_cost = ref (Cost.state_cost engine.estimator start) in
    let pending = ref [ start ] in
    let rec loop () =
      match !pending with
      | [] -> ()
      | state :: rest ->
        if timed_out engine || memory_exceeded engine then completed := false
        else begin
          note_explored engine;
          let fresh =
            admit engine ~rank:(Transition.kind_rank kind) ~parent:state kind
          in
          List.iter
            (fun (s, _) ->
              let c = Cost.state_cost engine.estimator s in
              if c < !stage_best_cost then begin
                stage_best := s;
                stage_best_cost := c
              end)
            fresh;
          pending := List.map fst fresh @ rest;
          loop ()
        end
    in
    loop ();
    !stage_best
  in
  let final =
    List.fold_left
      (fun current kind -> closure_of kind current)
      initial Transition.all_kinds
  in
  note_best engine final (Cost.state_cost engine.estimator final);
  !completed

let obs_strategy_runs =
  List.map
    (fun s -> (s, Obs.cached_counter ("search.strategy." ^ strategy_name s)))
    [ Exnaive; Exstr; Dfs; Gstr ]

let with_run_metrics f =
  Obs.incr (obs_runs ());
  Obs.time (obs_run_time ()) f

(* Everything a run does before the strategy loop starts: compute the
   initial cost, recover the strict reference, close the initial state
   under AVF, count the strategy, build the engine and seed the seen-table.
   Split out so {!Parallel_search} shares the exact same entry
   sequence. *)
type prologue = {
  p_engine : engine;
  p_initial : State.t;  (* after the AVF closure *)
  p_initial_cost : float;
}

let prologue estimator options initial =
  (* S0's cost is that of the raw query set (§5.1); the AVF collapse of
     the initial state, when enabled, counts as the first search gain *)
  let initial_cost = Cost.state_cost estimator initial in
  (* Under RDFVIEWS_STRICT the reference semantics is recovered from the
     initial state itself: unfolding S0's rewritings yields (a renaming
     of) the workload, so no extra plumbing is needed.  Every accepted
     state is then asserted equivalent to it. *)
  let strict_reference =
    if Invariant.strict_enabled () then
      match Invariant.reference_of_state initial with
      | Ok reference -> Some reference
      | Error detail ->
        raise
          (Invariant.Violation
             {
               Invariant.state_key = State.key_string initial;
               invariant = "rewriting";
               detail = "initial state does not unfold: " ^ detail;
             })
    else None
  in
  let initial =
    if options.avf then Transition.fusion_closure initial else initial
  in
  (match strict_reference with
  | Some reference -> Invariant.assert_valid ~estimator reference initial
  | None -> ());
  (match options.on_accept with Some hook -> hook initial | None -> ());
  Obs.incr (List.assoc options.strategy obs_strategy_runs ());
  let engine =
    {
      estimator;
      options;
      strict_reference;
      stop = stop_test options;
      seen = Shard_tbl.create ();
      created = 0;
      duplicates = 0;
      discarded = 0;
      explored = 0;
      best = initial;
      best_cost = Cost.state_cost estimator initial;
      trajectory = [ (0., initial_cost) ];
      oom = false;
      started = now ();
    }
  in
  if engine.best_cost < initial_cost then
    engine.trajectory <- (0., engine.best_cost) :: engine.trajectory;
  ignore (Shard_tbl.visit engine.seen (State.key initial) 0);
  { p_engine = engine; p_initial = initial; p_initial_cost = initial_cost }
[@@coordinator_only]

let epilogue { p_engine = engine; p_initial_cost = initial_cost; _ } ~completed
    =
  let completed = completed && not engine.oom in
  let trajectory = List.rev engine.trajectory in
  Obs.set_gauge (obs_initial_cost ()) initial_cost;
  Obs.set_gauge (obs_best_cost ()) engine.best_cost;
  Obs.set_gauge (obs_completed ()) (if completed then 1. else 0.);
  Obs.set_gauge (obs_intern_size ()) (float_of_int (Interning.size ()));
  Obs.set_series (Obs.series (Obs.global ()) "search.trajectory") trajectory;
  {
    best = engine.best;
    best_cost = engine.best_cost;
    initial_cost;
    created = engine.created;
    duplicates = engine.duplicates;
    discarded = engine.discarded;
    explored = engine.explored;
    elapsed = elapsed engine;
    trajectory;
    completed;
    out_of_memory = engine.oom;
  }
[@@coordinator_only]

let run_from estimator options initial =
  with_run_metrics @@ fun () ->
  let p = prologue estimator options initial in
  let engine = p.p_engine in
  let completed =
    match options.strategy with
    | Exnaive | Exstr -> worklist_search engine ~lifo:false p.p_initial
    | Dfs -> worklist_search engine ~lifo:true p.p_initial
    | Gstr -> gstr_search engine p.p_initial
  in
  epilogue p ~completed
[@@coordinator_only]

let run stats options workload =
  let estimator = Cost.create stats options.weights in
  run_from estimator options (State.initial workload)
[@@coordinator_only]

(* Two (elapsed, best-cost) trajectories, newest first, merged into
   one: every sample in time order, kept only where it improves on all
   earlier ones. *)
let merge_trajectories a b =
  List.stable_sort
    (fun (t, _) (t', _) -> Float.compare t t')
    (List.rev_append a (List.rev b))
  |> List.fold_left
       (fun acc (t, c) ->
         match acc with (_, best) :: _ when c >= best -> acc | _ -> (t, c) :: acc)
       []

(* Shared machinery for {!Parallel_search}.  Mirrored (with the engine
   record concrete) under [Internal] in the interface; not part of the
   stable API. *)
module Internal = struct
  type nonrec engine = engine

  type nonrec prologue = prologue = {
    p_engine : engine;
    p_initial : State.t;
    p_initial_cost : float;
  }

  let prologue = prologue
  let epilogue = epilogue
  let with_run_metrics = with_run_metrics
  let expand = expand
  let should_stop engine = timed_out engine || memory_exceeded engine

  let fork engine =
    {
      engine with
      estimator =
        Cost.create (Cost.stats engine.estimator) (Cost.weights engine.estimator);
      created = 0;
      duplicates = 0;
      discarded = 0;
      explored = 0;
      trajectory = [];
      oom = false;
    }

  (* Exact cost ties are broken on the state key, so the merged
     incumbent does not depend on which domain found it first. *)
  let merge ~into w =
    into.created <- into.created + w.created;
    into.duplicates <- into.duplicates + w.duplicates;
    into.discarded <- into.discarded + w.discarded;
    into.explored <- into.explored + w.explored;
    into.oom <- into.oom || w.oom;
    if
      w.best_cost < into.best_cost
      || w.best_cost = into.best_cost
         && String.compare (State.key_string w.best) (State.key_string into.best)
            < 0
    then begin
      into.best <- w.best;
      into.best_cost <- w.best_cost
    end;
    into.trajectory <- merge_trajectories into.trajectory w.trajectory
  [@@coordinator_only]
end
