(* Parallel view-selection search over OCaml 5 domains.

   The frontier is sharded across per-domain work-stealing deques.
   Each domain runs the sequential engine's own expansion
   (Search.Internal.expand) on an engine forked from the coordinator's:
   the forks share the options, the seen-table (a Shard_tbl, so the
   rank-reopen rule stays atomic across domains), the start time and
   the strict reference, and keep their own estimator, counters,
   incumbent and Obs registry.  After the join every fork is merged
   into the coordinator's engine and the report comes from the
   sequential epilogue.  Counters and exploration order are
   schedule-dependent; on completed runs the accepted state set matches
   the sequential fixpoint.  The best cost does too because every
   arrival of a key is costed (Search.register), not only the first,
   whose path depends on the schedule.

   GSTR is inherently sequential (each stage is a closure from the
   single best state of the previous one) and falls back, as does
   anything on OCaml 4.x or with jobs = 1. *)

module I = Search.Internal

(* Per-domain utilization, folded into the coordinator's ambient sink
   after the join — same post-join discipline as the per-domain Obs
   registries, so workers never touch the shared sink.  Each entry is
   [(slot, work_ns, steal_ns, total_ns)]: [work] is time inside
   expansions, [steal] time probing other domains' deques, [idle] the
   rest of the domain's wall clock (backoff, lock waits).  Slots are
   this run's worker indices — slot 0 is the coordinating domain — not
   runtime domain ids.  [rdfviews report] renders them as the
   per-domain utilization table. *)
let note_utilization entries =
  let sink = Obs.global () in
  if Obs.is_enabled sink then begin
    List.iter
      (fun (slot, work, steal, total) ->
        let idle =
          let i = total - work - steal in
          if i < 0 then 0 else i
        in
        let dom name v =
          Obs.add
            (Obs.counter sink (Printf.sprintf "parallel.domain.%d.%s" slot name))
            v
        in
        dom "work_ns" work;
        dom "steal_ns" steal;
        dom "idle_ns" idle)
      entries
  end
[@@coordinator_only]

(* ---------- the work-stealing deque --------------------------------------- *)

(* A two-stack deque under a spinlock: [dq_old] oldest-first, [dq_young]
   newest-first; reversals move elements between them amortized O(1).
   The owner pushes at the young end and pops young (DFS) or old (BFS);
   thieves take the opposite end. *)
type dq = {
  dq_lock : Multicore.Spinlock.t;
  mutable dq_old : (State.t * int) list [@guarded_by "dq_lock"];
  mutable dq_young : (State.t * int) list [@guarded_by "dq_lock"];
}

let dq_create () =
  { dq_lock = Multicore.Spinlock.create (); dq_old = []; dq_young = [] }

let dq_push dq item =
  Multicore.Spinlock.with_lock dq.dq_lock (fun () ->
      dq.dq_young <- item :: dq.dq_young)

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

(* ---------- workers -------------------------------------------------------- *)

(* Everything the worker domains share.  [sh_outstanding] counts items
   pushed but not yet fully expanded (all deques empty is not enough:
   an in-flight expansion may still push).  [sh_stop] is set by the
   first domain that hits the time budget or the state cap, or
   raises; everyone else then drains. *)
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
  w_engine : I.engine;
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
      let v = sh.sh_deques.((w.w_slot + k) mod jobs) in
      match if sh.sh_lifo then dq_take_oldest v else dq_take_newest v with
      | Some _ as it -> it
      | None -> try_victim (k + 1)
  in
  let s0 = Obs.now_ns () in
  let stolen = try_victim 1 in
  w.w_steal_ns <- w.w_steal_ns + (Obs.now_ns () - s0);
  stolen

let expand sh w (state, rank) =
  let s0 = Obs.now_ns () in
  List.iter
    (fun item ->
      Atomic.incr sh.sh_outstanding;
      dq_push sh.sh_deques.(w.w_slot) item)
    (I.expand w.w_engine state rank);
  Atomic.decr sh.sh_outstanding;
  w.w_work_ns <- w.w_work_ns + (Obs.now_ns () - s0)

(* Take, else steal, then expand; false when there was nothing to do
   or the run must stop.  As in the sequential loop, the budget is
   checked only when there is an item to expand, so a run that
   exhausts the space is complete. *)
let step sh w =
  let item = match take_own sh w with Some _ as it -> it | None -> steal sh w in
  match item with
  | None -> false
  | Some _ when I.should_stop w.w_engine ->
    Atomic.set sh.sh_stop true;
    false
  | Some it ->
    expand sh w it;
    true

(* Runs until the frontier is exhausted or some domain stops the run.
   A raising worker first sets the stop flag so its siblings drain and
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
    Atomic.set sh.sh_stop true;
    Error e
[@@domain_safe]

let free_run ~jobs ~lifo p =
  let engine = p.I.p_engine in
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
  dq_push sh.sh_deques.(0) (p.I.p_initial, 0);
  (* The coordinator expands the initial state before any worker
     exists, so the workers start with a frontier to steal from. *)
  ignore (step sh coordinator);
  let obs_enabled = Obs.is_enabled (Obs.global ()) in
  let workers = List.init (jobs - 1) (fun i -> worker (i + 1) (I.fork engine)) in
  let handles =
    List.map
      (fun w ->
        Multicore.spawn (fun () ->
            let registry =
              if obs_enabled then begin
                let r = Obs.create () in
                Obs.set_global r;
                Some r
              end
              else None
            in
            (work sh w, registry)))
      workers
  in
  (* let-bound: the coordinator must work before it joins *)
  let own = work sh coordinator in
  let outs = (own, None) :: List.map Multicore.join handles in
  (* merge the per-domain registries even when a worker failed: partial
     metrics beat silently dropped ones *)
  List.iter
    (function
      | _, Some reg -> Obs.merge_into ~into:(Obs.global ()) reg | _, None -> ())
    outs;
  let totals = List.map (function Ok t, _ -> t | Error e, _ -> raise e) outs in
  List.iter (fun w -> I.merge ~into:engine w.w_engine) workers;
  note_utilization
    (List.map2
       (fun w total -> (w.w_slot, w.w_work_ns, w.w_steal_ns, total))
       (coordinator :: workers) totals);
  I.epilogue p ~completed:(not (Atomic.get sh.sh_stop))
[@@coordinator_only]

(* ---------- entry points -------------------------------------------------- *)

let run_from ?(jobs = 1) estimator options initial =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Parallel_search.run_from: jobs = %d < 1" jobs);
  (* the forks share the estimator's statistics: fill the memo here, on
     the coordinator, so that the search only reads it *)
  Stats.Statistics.prewarm (Cost.stats estimator)
    (List.map (fun v -> v.View.cq) initial.State.views);
  match options.Search.strategy with
  | (Search.Exnaive | Search.Exstr | Search.Dfs) as strategy
    when jobs > 1 && Multicore.available ->
    I.with_run_metrics @@ fun () ->
    free_run ~jobs ~lifo:(strategy = Search.Dfs)
      (I.prologue estimator options initial)
  | Search.Exnaive | Search.Exstr | Search.Dfs | Search.Gstr ->
    Search.run_from estimator options initial
[@@coordinator_only]

let run ?jobs stats options workload =
  let estimator = Cost.create stats options.Search.weights in
  run_from ?jobs estimator options (State.initial workload)
[@@coordinator_only]
