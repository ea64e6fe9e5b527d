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
let is_all_var_view v = v.View.constants = 0

let is_triple_table_view v = v.View.constants = 0 && View.atom_count v = 1

let view_violates options v =
  (options.stop_tt && is_triple_table_view v)
  || (options.stop_var && is_all_var_view v)

let violates_stop options state =
  List.exists (view_violates options) state.State.views

let stop_test options =
  if options.stop_tt || options.stop_var then Some (view_violates options)
  else None

(* A run keeps all its books in its engine, and {!publish} hands them to
   the ambient sink once per run.  Counts are plain ints, on the engine
   and on its estimator; timings go to the engine's own registry [obs],
   which reads no clock when the run's sink is disabled. *)
type engine = {
  estimator : Cost.t;  (* {!Cost.for_run}, timing into [obs] *)
  obs : Obs.t;
  options : options;
  strict_reference : Invariant.reference option;
      (* Some in strict mode (read once per run): every accepted state
         is asserted equivalent to this reference *)
  stop : (View.t -> bool) option;  (* [stop_test options] *)
  seen : Shard_tbl.t;
      (* state key -> lowest stratum rank; shared by the forks of a
         parallel run *)
  created : int array;
  duplicates : int array;  (* reopened arrivals included *)
  reopened : int array;
  discarded : int array;
      (* the four indexed by the stratum rank of the transition kind
         that produced the state *)
  tried : int array;
      (* states whose successors by the kind were generated, or, VF
         under AVF, skipped *)
  applied : int array;  (* their successors, pruned ones included *)
  rejected : int array;  (* {!Transition.generated}'s [rejected] *)
      (* the three indexed by the transition kind's rank *)
  mutable explored : int;
  mutable best : State.t;
  mutable best_cost : float;
  mutable trajectory : (float * float) list;
  mutable oom : bool;
  started : int;  (* [Obs.now_ns] *)
}

let per_stratum () = Array.make (List.length Transition.all_kinds) 0

let bump counts rank n = counts.(rank) <- counts.(rank) + n

let total counts = Array.fold_left ( + ) 0 counts

let elapsed engine = float_of_int (Obs.now_ns () - engine.started) *. 1e-9

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
   handed to {!Cost.child} always describes parent →
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

(* Strict mode, read once per run by {!prologue}: it holds exactly when
   the run has a strict reference. *)
let strict engine = Option.is_some engine.strict_reference

(* A key names a view set: a state reached again along another path
   has the same views but may carry other rewritings, hence another
   REC.  Every arrival is costed from its parent's node, so the
   incumbent is the cheapest state generated whichever path reaches a
   key first, an order a parallel run does not share.  One that becomes
   the incumbent is strict-checked like an accepted state. *)
let cost_arrival engine ~parent ~delta state =
  let node =
    Cost.child ~strict:(strict engine) engine.estimator ~parent ~delta state
  in
  let cost = Cost.total node in
  if cost < engine.best_cost then begin
    (match engine.strict_reference with
    | Some reference ->
      Invariant.assert_valid ~estimator:engine.estimator reference state
    | None -> ());
    note_best engine state cost
  end;
  node

(* The mutating half: account, dedup against the seen-table, cost,
   strict-check.  Expects an already-{!collapse}d state that passes the
   stop conditions and the node of its [parent].  Returns
   [Some (state, rank, node)] when the state is new (or re-opened at a
   lower stratum) and should be expanded further. *)
let register engine ~rank ~parent ~delta state =
  bump engine.created rank 1;
  match Shard_tbl.visit engine.seen (State.key state) rank with
  | Shard_tbl.Duplicate ->
    ignore (cost_arrival engine ~parent ~delta state : Cost.node);
    bump engine.duplicates rank 1;
    None
  | Shard_tbl.Reopened ->
    (* reached again, but at a lower stratum: re-open *)
    let node = cost_arrival engine ~parent ~delta state in
    bump engine.duplicates rank 1;
    bump engine.reopened rank 1;
    Some (state, rank, node)
  | Shard_tbl.New ->
    let node =
      Cost.child ~strict:(strict engine) engine.estimator ~parent ~delta state
    in
    (match engine.strict_reference with
    | Some reference ->
      Invariant.assert_valid ~estimator:engine.estimator reference state
    | None -> ());
    note_best engine state (Cost.total node);
    (match engine.options.on_accept with
    | Some hook -> hook state
    | None -> ());
    Some (state, rank, node)

(* [transition.<K>.time], by kind rank *)
let time_names =
  Array.of_list
    (List.map
       (fun k -> "transition." ^ Transition.kind_name k ^ ".time")
       Transition.all_kinds)

(* Generate the successors of [parent] (of cost node [node]) by one
   transition kind and admit them: stop-violating ones are pruned before
   they are built, the rest are collapsed and registered.  Under AVF the
   parent is collapsed ({!run_from} collapses S0, and every successor is
   collapsed here before it is registered), so it has no VF successor. *)
let admit engine ~rank ~parent ~node kind =
  let k = Transition.kind_rank kind in
  bump engine.tried k 1;
  match kind with
  | Transition.VF when engine.options.avf ->
    Transition.skip_fusions ~strict:(strict engine) parent;
    []
  | VB | SC | JC | VF ->
    let { Transition.successors; pruned; rejected } =
      Obs.time (Obs.histogram engine.obs time_names.(k)) @@ fun () ->
      Transition.successors_with_delta ?stop:engine.stop
        ~strict:(strict engine) parent kind
    in
    bump engine.applied k (List.length successors + pruned);
    bump engine.rejected k rejected;
    (* pruned successors are created and discarded at once, never built *)
    bump engine.created rank pruned;
    bump engine.discarded rank pruned;
    List.filter_map
      (fun (succ, delta) ->
        let succ, delta = collapse engine.options ~delta succ in
        register engine ~rank ~parent:node ~delta succ)
      successors

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

let note_explored engine = engine.explored <- engine.explored + 1

let expand engine (state, rank, node) =
  note_explored engine;
  Obs.time (Obs.histogram engine.obs "search.expand.ns") @@ fun () ->
  List.concat_map
    (fun kind ->
      admit engine ~rank:(rank_of engine.options kind) ~parent:state ~node kind)
    (allowed_kinds engine.options rank)

(* ---------- the work-stealing worklist ------------------------------------ *)

(* EXNAIVE, EXSTR and DFS share one loop over [jobs] domains, slot 0
   being the coordinating domain; at [jobs = 1] it spawns nothing.
   Each domain owns a deque and pops its own items, DFS the newest and
   EXSTR/EXNAIVE the oldest; an idle domain steals the oldest item of
   another.  One expansion's successors are pushed so that their owner
   pops them in the order {!expand} returned them, so a single domain
   expands exactly in the paper's depth-first (resp. breadth-first)
   order.  An item is a state, its stratum rank and its cost node, so
   whichever domain expands it costs the successors from that node.  The
   other slots run on {!fork}s of the coordinator's engine, {!merge}d
   back after the join. *)

type item = State.t * int * Cost.node

(* A two-stack deque under a spinlock: [dq_old] oldest-first, [dq_young]
   newest-first; reversals move elements between them amortized O(1). *)
type dq = {
  dq_lock : Multicore.Spinlock.t;
  mutable dq_old : item list [@guarded_by "dq_lock"];
  mutable dq_young : item list [@guarded_by "dq_lock"];
}

let dq_create () =
  { dq_lock = Multicore.Spinlock.create (); dq_old = []; dq_young = [] }

(* Under LIFO the block goes on the young end as is, its first item
   newest; under FIFO its items go one by one, the first oldest. *)
let dq_push_successors dq ~lifo items =
  Multicore.Spinlock.with_lock dq.dq_lock (fun () ->
      dq.dq_young <-
        (if lifo then items @ dq.dq_young
         else List.rev_append items dq.dq_young))

let dq_take_newest dq =
  Multicore.Spinlock.with_lock dq.dq_lock (fun () ->
      match dq.dq_young with
      | x :: r ->
        dq.dq_young <- r;
        Some x
      | [] -> (
        match List.rev dq.dq_old with
        | x :: r ->
          dq.dq_old <- [];
          dq.dq_young <- r;
          Some x
        | [] -> None))

let dq_take_oldest dq =
  Multicore.Spinlock.with_lock dq.dq_lock (fun () ->
      match dq.dq_old with
      | x :: r ->
        dq.dq_old <- r;
        Some x
      | [] -> (
        match List.rev dq.dq_young with
        | x :: r ->
          dq.dq_young <- [];
          dq.dq_old <- r;
          Some x
        | [] -> None))

(* Everything the domains share.  [sh_outstanding] counts items pushed
   but not yet fully expanded (all deques empty is not enough: an
   in-flight expansion may still push).  [sh_stop] is set by the first
   domain that hits the time budget or the state cap, or raises;
   everyone else then drains. *)
type shared = {
  sh_lifo : bool;
  sh_deques : dq array;
  sh_outstanding : int Atomic.t;
  sh_stop : bool Atomic.t;
}

(* One domain's view of the run: its slot, its engine, and its time
   split for the utilization report. *)
type worker = {
  w_slot : int;
  w_engine : engine;
  mutable w_work_ns : int;
  mutable w_steal_ns : int;
}

let take_own sh w =
  let own = sh.sh_deques.(w.w_slot) in
  if sh.sh_lifo then dq_take_newest own else dq_take_oldest own

(* Victims in a fixed order: slot+1, slot+2, ... *)
let steal sh w =
  let jobs = Array.length sh.sh_deques in
  let rec try_victim k =
    if k >= jobs then None
    else
      match dq_take_oldest sh.sh_deques.((w.w_slot + k) mod jobs) with
      | Some _ as it -> it
      | None -> try_victim (k + 1)
  in
  let s0 = Obs.now_ns () in
  let stolen = try_victim 1 in
  w.w_steal_ns <- w.w_steal_ns + (Obs.now_ns () - s0);
  stolen

let expand_item sh w item =
  let s0 = Obs.now_ns () in
  let successors = expand w.w_engine item in
  ignore (Atomic.fetch_and_add sh.sh_outstanding (List.length successors) : int);
  dq_push_successors sh.sh_deques.(w.w_slot) ~lifo:sh.sh_lifo successors;
  Atomic.decr sh.sh_outstanding;
  w.w_work_ns <- w.w_work_ns + (Obs.now_ns () - s0)

let should_stop engine = timed_out engine || memory_exceeded engine

(* Take, else steal, then expand; false when there was nothing to do
   or the run must stop.  The budget is checked only when there is an
   item to expand, so a run that exhausts the space is complete. *)
let step sh w =
  let item = match take_own sh w with Some _ as it -> it | None -> steal sh w in
  match item with
  | None -> false
  | Some _ when should_stop w.w_engine ->
    Atomic.set sh.sh_stop true;
    false
  | Some it ->
    expand_item sh w it;
    true

(* Runs until the frontier is exhausted or some domain stops the run.
   A raising domain first sets the stop flag so its siblings drain and
   exit (its in-flight item never returns to the outstanding count);
   the exception is re-raised on the coordinating domain after the
   join.  Returns the domain's whole wall clock, in ns. *)
let work sh w =
  let t_begin = Obs.now_ns () in
  let rec loop () =
    if Atomic.get sh.sh_stop then ()
    else if step sh w then loop ()
    else if Atomic.get sh.sh_outstanding > 0 then begin
      Multicore.cpu_relax ();
      loop ()
    end
  in
  match loop () with
  | () -> Ok (Obs.now_ns () - t_begin)
  (* lint: allow catch-all — re-raised on the coordinating domain *)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Atomic.set sh.sh_stop true;
    Error (e, bt)
[@@domain_safe]

(* An engine for another domain: it shares the options, seen-table,
   start time and strict reference, and has its own estimator, books
   and incumbent. *)
let fork engine =
  let obs = if Obs.is_enabled engine.obs then Obs.create () else Obs.disabled in
  let e = engine.estimator in
  {
    engine with
    estimator = Cost.for_run (Cost.create (Cost.stats e) (Cost.weights e)) obs;
    obs;
    created = per_stratum ();
    duplicates = per_stratum ();
    reopened = per_stratum ();
    discarded = per_stratum ();
    tried = per_stratum ();
    applied = per_stratum ();
    rejected = per_stratum ();
    explored = 0;
    trajectory = [];
    oom = false;
  }

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

(* Fold a forked engine's books, out-of-memory flag, incumbent and
   trajectory into [into].  Exact cost ties are broken on the state
   key, so the merged incumbent does not depend on which domain found
   it first. *)
let merge ~into w =
  let add dst src = Array.iteri (bump dst) src in
  add into.created w.created;
  add into.duplicates w.duplicates;
  add into.reopened w.reopened;
  add into.discarded w.discarded;
  add into.tried w.tried;
  add into.applied w.applied;
  add into.rejected w.rejected;
  into.explored <- into.explored + w.explored;
  Cost.absorb ~into:into.estimator w.estimator;
  Obs.merge_into ~into:into.obs w.obs;
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

(* Per-domain utilization, folded into the coordinator's ambient sink
   after the join, so workers never touch the shared sink.  Each entry
   is [(slot, work_ns, steal_ns, total_ns)]: [work] is time inside
   expansions, [steal] time probing other domains' deques, [idle] the
   rest of the domain's wall clock (backoff, lock waits).  [rdfviews
   report] renders them as the per-domain utilization table. *)
let note_utilization entries =
  let sink = Obs.global () in
  if Obs.is_enabled sink then
    List.iter
      (fun (slot, work, steal, total) ->
        let dom name v =
          Obs.add
            (Obs.counter sink (Printf.sprintf "parallel.domain.%d.%s" slot name))
            v
        in
        dom "work_ns" work;
        dom "steal_ns" steal;
        dom "idle_ns" (max 0 (total - work - steal)))
      entries
[@@coordinator_only]

(* Whether the run completed.  Each spawned domain keeps its books on
   its own fork of the engine, merged into the coordinator's after the
   join, even when a domain failed: partial metrics beat silently
   dropped ones.  No worker touches a sink. *)
let worklist_search ~jobs ~lifo engine root =
  let sh =
    {
      sh_lifo = lifo;
      sh_deques = Array.init jobs (fun _ -> dq_create ());
      sh_outstanding = Atomic.make 1;
      sh_stop = Atomic.make false;
    }
  in
  let worker slot engine =
    { w_slot = slot; w_engine = engine; w_work_ns = 0; w_steal_ns = 0 }
  in
  let coordinator = worker 0 engine in
  dq_push_successors sh.sh_deques.(0) ~lifo [ root ];
  (* The coordinator expands the initial state before any worker
     exists, so the workers start with a frontier to steal from. *)
  ignore (step sh coordinator : bool);
  let workers = List.init (jobs - 1) (fun i -> worker (i + 1) (fork engine)) in
  let handles =
    List.map (fun w -> Multicore.spawn (fun () -> work sh w)) workers
  in
  (* let-bound: the coordinator must work before it joins *)
  let own = work sh coordinator in
  let outs = own :: List.map Multicore.join handles in
  List.iter (fun w -> merge ~into:engine w.w_engine) workers;
  let totals =
    List.map
      (function Ok t -> t | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      outs
  in
  if jobs > 1 then
    note_utilization
      (List.map2
         (fun w total -> (w.w_slot, w.w_work_ns, w.w_steal_ns, total))
         (coordinator :: workers) totals);
  not (Atomic.get sh.sh_stop)
[@@coordinator_only]

(* Greedy stratified: full closure of one kind from the current best,
   then restart from the best state found, next kind.  Each stage is
   seeded by the previous stage's single best item, so it runs on the
   coordinator alone. *)
let gstr_search engine root =
  let completed = ref true in
  let cost_of (_, _, node) = Cost.total node in
  let closure_of kind start =
    let stage_best = ref start in
    let pending = ref [ start ] in
    let rec loop () =
      match !pending with
      | [] -> ()
      | (state, _, node) :: rest ->
        if should_stop engine then completed := false
        else begin
          note_explored engine;
          let fresh =
            admit engine ~rank:(Transition.kind_rank kind) ~parent:state ~node
              kind
          in
          List.iter
            (fun item ->
              if cost_of item < cost_of !stage_best then stage_best := item)
            fresh;
          pending := fresh @ rest;
          loop ()
        end
    in
    loop ();
    !stage_best
  in
  let ((final, _, _) as best) =
    List.fold_left
      (fun current kind -> closure_of kind current)
      root Transition.all_kinds
  in
  note_best engine final (cost_of best);
  !completed

(* The engine's books, added to the sink once, after the join (also
   when the run raised).  A counter is registered only where its count
   is above zero, as a bump per event would have left it, except that a
   kind's [applied] is registered at zero too once the kind was tried,
   so a dump lists every kind the search tried. *)
let publish sink engine =
  let add n counter = if n > 0 then Obs.add (counter ()) n in
  add (total engine.created) (fun () -> Obs.counter sink "search.created");
  add (total engine.duplicates) (fun () -> Obs.counter sink "search.duplicates");
  add (total engine.reopened) (fun () -> Obs.counter sink "search.reopened");
  add (total engine.discarded) (fun () -> Obs.counter sink "search.discarded");
  add engine.explored (fun () -> Obs.counter sink "search.explored");
  List.iter
    (fun kind ->
      let r = Transition.kind_rank kind and k = Transition.kind_name kind in
      let counter name () = Obs.counter sink name in
      let stratum what counts =
        add counts.(r) (counter ("search.stratum." ^ k ^ "." ^ what))
      in
      stratum "created" engine.created;
      stratum "duplicates" engine.duplicates;
      stratum "reopened" engine.reopened;
      stratum "discarded" engine.discarded;
      if engine.tried.(r) > 0 then
        Obs.add (counter ("transition." ^ k ^ ".applied") ()) engine.applied.(r);
      add engine.rejected.(r) (counter ("transition." ^ k ^ ".rejected")))
    Transition.all_kinds;
  Cost.publish engine.estimator sink;
  Obs.merge_into ~into:sink engine.obs
[@@coordinator_only]

(* Under RDFVIEWS_STRICT the reference semantics is recovered from the
   initial state itself: unfolding S0's rewritings yields (a renaming of)
   the workload, so no extra plumbing is needed.  Every accepted state is
   then asserted equivalent to it. *)
let strict_reference_of initial =
  if Query.Evaluation.strict_enabled () then
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

let run_from ?(jobs = 1) estimator options initial =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Search.run_from: jobs = %d < 1" jobs);
  (* the forks share the estimator's statistics: fill the memo here, on
     the coordinator, so that the search only reads it *)
  Stats.Statistics.prewarm (Cost.stats estimator)
    (List.map (fun v -> v.View.cq) initial.State.views);
  let sink = Obs.global () in
  Obs.incr (Obs.counter sink "search.runs");
  Obs.time (Obs.histogram sink "search.run") @@ fun () ->
  let strict_reference = strict_reference_of initial in
  let obs = if Obs.is_enabled sink then Obs.create () else Obs.disabled in
  let engine =
    {
      estimator = Cost.for_run estimator obs;
      obs;
      options;
      strict_reference;
      stop = stop_test options;
      seen = Shard_tbl.create ();
      created = per_stratum ();
      duplicates = per_stratum ();
      reopened = per_stratum ();
      discarded = per_stratum ();
      tried = per_stratum ();
      applied = per_stratum ();
      rejected = per_stratum ();
      explored = 0;
      best = initial;
      best_cost = infinity;
      trajectory = [];
      oom = false;
      started = Obs.now_ns ();
    }
  in
  Fun.protect ~finally:(fun () -> publish sink engine) @@ fun () ->
  let estimator = engine.estimator in
  (* S0's cost is that of the raw query set (§5.1); the AVF collapse of
     the initial state, when enabled, counts as the first search gain *)
  let raw_node = Cost.root estimator initial in
  let initial_cost = Cost.total raw_node in
  let collapsed =
    if options.avf then Transition.fusion_closure initial else initial
  in
  let node =
    (* fusion_closure returns its argument when nothing fuses *)
    (* lint: allow phys-equal — S0 itself, costed above *)
    if collapsed == initial then raw_node else Cost.root estimator collapsed
  in
  let initial = collapsed in
  (match strict_reference with
  | Some reference -> Invariant.assert_valid ~estimator reference initial
  | None -> ());
  (match options.on_accept with Some hook -> hook initial | None -> ());
  Obs.incr (Obs.counter sink ("search.strategy." ^ strategy_name options.strategy));
  engine.best <- initial;
  engine.best_cost <- Cost.total node;
  engine.trajectory <- [ (0., initial_cost) ];
  if engine.best_cost < initial_cost then
    engine.trajectory <- (0., engine.best_cost) :: engine.trajectory;
  ignore (Shard_tbl.visit engine.seen (State.key initial) 0);
  (* OCaml 4.x cannot spawn domains: the loop runs on one *)
  let jobs = if Multicore.available then jobs else 1 in
  let root = (initial, 0, node) in
  let completed =
    match options.strategy with
    | Exnaive | Exstr -> worklist_search ~jobs ~lifo:false engine root
    | Dfs -> worklist_search ~jobs ~lifo:true engine root
    | Gstr -> gstr_search engine root
  in
  let completed = completed && not engine.oom in
  let trajectory = List.rev engine.trajectory in
  Obs.set_gauge (Obs.gauge sink "search.initial_cost") initial_cost;
  Obs.set_gauge (Obs.gauge sink "search.best_cost") engine.best_cost;
  Obs.set_gauge (Obs.gauge sink "search.completed")
    (if completed then 1. else 0.);
  Obs.set_series (Obs.series sink "search.trajectory") trajectory;
  {
    best = engine.best;
    best_cost = engine.best_cost;
    initial_cost;
    created = total engine.created;
    duplicates = total engine.duplicates;
    discarded = total engine.discarded;
    explored = engine.explored;
    elapsed = elapsed engine;
    trajectory;
    completed;
    out_of_memory = engine.oom;
  }
[@@coordinator_only]

let run ?jobs stats options workload =
  let estimator = Cost.create stats options.weights in
  run_from ?jobs estimator options (State.initial workload)
[@@coordinator_only]
