(* The pipeline ledger: the paper's whole pipeline on one seeded
   workload — store load and statistics, view selection (§5),
   materialization and answering through rewritings (§6.6), direct
   evaluation (cold and warm), and view maintenance under an
   insert/delete stream (the VMC term of §3.3).

   One client in one process on one domain, closed loop: each operation
   starts when the previous one has returned.  A run is a number of
   identical rounds, each the whole pipeline from an empty store; each
   sample position keeps its fastest round, and every time is scaled by
   the host's speed as a reference computation measures it ([Host]).
   [--trace 0] prints the end-to-end metrics.  [--trace 1] follows every
   round with a traced one, with the [Obs] registry on and every call
   this file makes into a layer's public functions wrapped in a span,
   and prints per-layer metrics, each layer's self time, the tracing
   overhead and the unscaled figures.  Answers are checked outside the
   timed regions; every mismatch counts as a failed operation.  The last
   line of standard output is one JSON object. *)

let now = Obs.now_ns
let seconds_of ns = float_of_int ns /. 1e9
let ratio a b = if b > 0. then a /. b else 0.
let per a b = ratio (float_of_int a) (float_of_int b)

(* ---------- workloads -------------------------------------------------- *)

type workload = {
  name : string;
  backend : Rdf.Backend.kind;
  entities : int;
  reasoning : bool;
  groups : int;  (* walks, three queries each *)
  max_states : int;
  rounds : int;  (* identical passes of the whole pipeline *)
  materialize_reps : int;  (* per round *)
  answers : int;  (* per round, and so are the counts below *)
  eval_pairs : int;  (* cold+warm evaluations before the update stream *)
  updates : int;
  base_share : float;  (* share of deletes that remove base triples *)
  read_every : int;  (* a cold+warm evaluation after every this many updates *)
}

(* Operation counts are per round; a round takes about six seconds on a
   2-core host, and --seconds sets the number of rounds. *)
let workloads =
  let serve =
    {
      name = "serve";
      backend = Rdf.Backend.Hash;
      entities = 12_000;
      reasoning = false;
      groups = 7;
      max_states = 6000;
      rounds = 5;
      materialize_reps = 10;
      answers = 4200;
      eval_pairs = 525;
      updates = 2400;
      base_share = 0.5;
      read_every = 0;
    }
  in
  [
    serve;
    (* the compact memtable flushes at 16384 pending rows; with 90% of
       deletes tombstoning base triples, the stream flushes once, on top
       of the flush/merge cycles of every load *)
    {
      serve with
      name = "churn";
      backend = Rdf.Backend.Compact;
      entities = 3_000;
      max_states = 3000;
      answers = 4200;
      eval_pairs = 0;
      updates = 24_000;
      base_share = 0.9;
      read_every = 96;
    };
    {
      serve with
      name = "rdfs";
      entities = 3_000;
      reasoning = true;
      max_states = 2000;
      materialize_reps = 5;
      answers = 2100;
    };
  ]

let scale ~seconds ~tiny w =
  if tiny then
    {
      w with
      entities = w.entities / 20;
      max_states = 100;
      rounds = 2;
      materialize_reps = 2;
      answers = 42;
      eval_pairs = (if w.eval_pairs = 0 then 0 else 21);
      updates = min w.updates 480;
    }
  else { w with rounds = max 2 (seconds / 6) }

(* The fewest samples behind any p99 the run reports: inserts or
   deletes. *)
let p99_samples w = w.updates / 2

(* ---------- host speed ------------------------------------------------- *)

(* A shared host changes speed for tens of seconds at a time, by up to
   half.  A fixed reference computation of the benchmark's own — integer
   arithmetic and branches over an array in L2, no allocation, nothing of
   the program under test — is timed next to the measurements, and every
   time is scaled by [reference_ns / kernel], the time it would have
   taken on a host where the reference computation takes
   [reference_ns].  The unscaled times are reported with --trace 1. *)
module Host = struct
  let reference_ns = 330_000.
  let cells = Array.make 32768 0

  let kernel () =
    let x = ref 1 in
    for i = 1 to 150_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let j = !x land 32767 in
      if cells.(j) land 1 = 0 then cells.(j) <- cells.(j) + i
      else cells.(j) <- cells.(j) lxor !x
    done;
    !x

  let kernels = ref []  (* every calibration, for the traced run *)
  let factor = ref 1.
  let last = ref 0

  (* The fastest of three runs of the reference computation. *)
  let calibrate () =
    let best = ref max_int in
    for _ = 1 to 3 do
      let t0 = Obs.now_ns () in
      ignore (Sys.opaque_identity (kernel ()) : int);
      best := min !best (Obs.now_ns () - t0)
    done;
    kernels := float_of_int !best :: !kernels;
    factor := reference_ns /. float_of_int !best;
    last := Obs.now_ns ()

  (* Recalibrates when the last calibration is 50 ms old. *)
  let refresh () = if Obs.now_ns () - !last > 50_000_000 then calibrate ()
end

(* ---------- samples ---------------------------------------------------- *)

(* Every round repeats the same operations in the same order, so the
   i-th sample of a round measures the same work as the i-th of any
   other.  After [next_round], a sample replaces the value at its
   position when it is smaller: the per-position minimum over rounds
   discards the seconds in which a shared host runs slowly, as long as
   one round ran that operation at full speed.  Without [next_round],
   samples accumulate. *)
module Samples = struct
  type t = {
    mutable data : float array;  (* scaled to the reference host *)
    mutable raw : float array;  (* as measured *)
    mutable n : int;
    mutable pos : int;
  }

  let create () = { data = Array.make 256 0.; raw = Array.make 256 0.; n = 0; pos = 0 }
  let next_round t = t.pos <- 0

  (* [x] as measured, at the host's current speed *)
  let add t x =
    let scaled = x *. !Host.factor in
    if t.pos < t.n then begin
      t.data.(t.pos) <- Float.min t.data.(t.pos) scaled;
      t.raw.(t.pos) <- Float.min t.raw.(t.pos) x
    end
    else begin
      if t.n = Array.length t.data then begin
        let grow a =
          let grown = Array.make (2 * t.n) 0. in
          Array.blit a 0 grown 0 t.n;
          grown
        in
        t.data <- grow t.data;
        t.raw <- grow t.raw
      end;
      t.data.(t.n) <- scaled;
      t.raw.(t.n) <- x;
      t.n <- t.n + 1
    end;
    t.pos <- t.pos + 1

  (* Nearest-rank quantile; 0 when empty. *)
  let quantile_of a n q =
    if n = 0 then 0.
    else begin
      let sorted = Array.sub a 0 n in
      Array.sort Float.compare sorted;
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))
    end

  let quantile t q = quantile_of t.data t.n q
  let quantile_raw t q = quantile_of t.raw t.n q

  (* Geometric mean; 0 when empty. *)
  let geomean_of a n =
    let logs = ref 0. in
    for i = 0 to n - 1 do
      logs := !logs +. Float.log (Float.max a.(i) 1e-3)
    done;
    if n = 0 then 0. else Float.exp (!logs /. float_of_int n)

  let geomean t = geomean_of t.data t.n
  let geomean_raw t = geomean_of t.raw t.n
end

(* ---------- correctness bookkeeping ------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let fail msg =
  incr failed;
  if !failed <= 10 then prerr_endline ("ledger: " ^ msg)

(* A check made outside the clock. *)
let check ok msg =
  incr attempted;
  if not ok then fail msg

(* One timed operation: its latency in microseconds goes to [samples];
   an exception or a result [ok] rejects is a failure. *)
let timed samples label f ok =
  incr attempted;
  Host.refresh ();
  let t0 = now () in
  match f () with
  | v ->
    Samples.add samples (float_of_int (now () - t0) /. 1e3);
    if not (ok v) then fail (label ^ ": wrong result");
    Some v
  | exception e ->
    fail (label ^ ": " ^ Printexc.to_string e);
    None

(* ---------- spans (traced run) ----------------------------------------- *)

(* Spans are kept in memory and written out when the run ends.  A
   request — one query, one update, or one phase — opens a request id
   that the spans below it share. *)
module Span = struct
  type span = {
    layer : string;
    name : string;
    parent : int;
    request : int;
    start : int;
    mutable stop : int;
  }

  let on = ref false
  let spans = ref [||]
  let count = ref 0
  let open_spans = ref []
  let requests = ref 0

  let enter ~request layer name =
    let parent, inherited =
      match !open_spans with
      | i :: _ -> (i, !spans.(i).request)
      | [] -> (-1, 0)
    in
    let request =
      if request then begin
        incr requests;
        !requests
      end
      else inherited
    in
    let s = { layer; name; parent; request; start = now (); stop = 0 } in
    if !count = Array.length !spans then begin
      let grown = Array.make (max 1024 (2 * !count)) s in
      Array.blit !spans 0 grown 0 !count;
      spans := grown
    end;
    !spans.(!count) <- s;
    open_spans := !count :: !open_spans;
    incr count

  let leave () =
    match !open_spans with
    | i :: rest ->
      !spans.(i).stop <- now ();
      open_spans := rest
    | [] -> ()

  let reset () =
    count := 0;
    open_spans := [];
    requests := 0

  let wrap ~request layer name f =
    if not !on then f ()
    else begin
      enter ~request layer name;
      Fun.protect ~finally:leave f
    end

  let request name f = wrap ~request:true "bench" name f
  let call layer name f = wrap ~request:false layer name f

  (* Calls and total nanoseconds of the spans with this name. *)
  let total name =
    let calls = ref 0 and ns = ref 0 in
    for i = 0 to !count - 1 do
      let s = !spans.(i) in
      if String.equal s.name name then begin
        incr calls;
        ns := !ns + (s.stop - s.start)
      end
    done;
    (!calls, !ns)

  let mean_ns name =
    let calls, ns = total name in
    per ns calls

  (* A layer's self time: its spans' durations minus what their child
     spans cover. *)
  let self_ns () =
    let children = Array.make !count 0 in
    for i = 0 to !count - 1 do
      let s = !spans.(i) in
      if s.parent >= 0 then
        children.(s.parent) <- children.(s.parent) + (s.stop - s.start)
    done;
    let by_layer = Hashtbl.create 8 in
    for i = 0 to !count - 1 do
      let s = !spans.(i) in
      let before = Option.value ~default:0 (Hashtbl.find_opt by_layer s.layer) in
      Hashtbl.replace by_layer s.layer (before + (s.stop - s.start) - children.(i))
    done;
    fun layer -> Option.value ~default:0 (Hashtbl.find_opt by_layer layer)

  let write path =
    (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
    let oc = open_out path in
    output_string oc "id\tparent\trequest\tlayer\tname\tstart_ns\tend_ns\n";
    for i = 0 to !count - 1 do
      let s = !spans.(i) in
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%d\t%d\n" i s.parent s.request
        s.layer s.name s.start s.stop
    done;
    close_out oc
end

(* ---------- GC work per phase ------------------------------------------ *)

type gc_work = { mutable minor_words : float; mutable majors : int; mutable ops : int }

let gc_work : (string * gc_work) list ref = ref []

let gc_entry phase =
  match List.assoc_opt phase !gc_work with
  | Some g -> g
  | None ->
    let g = { minor_words = 0.; majors = 0; ops = 0 } in
    gc_work := (phase, g) :: !gc_work;
    g

let charge ?(sign = 1) phase (s0 : Gc.stat) (s1 : Gc.stat) =
  let g = gc_entry phase in
  g.minor_words <- g.minor_words +. (float_of_int sign *. (s1.minor_words -. s0.minor_words));
  g.majors <- g.majors + (sign * (s1.major_collections - s0.major_collections))

let ops phase n =
  let g = gc_entry phase in
  g.ops <- g.ops + n

(* A timed region on a freshly compacted heap, as one request span, its
   GC work charged to the phase; the result and the elapsed ns. *)
let measured phase f =
  Gc.compact ();
  Host.calibrate ();
  let s0 = Gc.quick_stat () in
  let t0 = now () in
  let v = Span.request phase f in
  let dt = now () - t0 in
  charge phase s0 (Gc.quick_stat ());
  (v, dt)

(* A timed phase whose seconds go to [samples]. *)
let phase samples name f =
  let v, dt = measured name f in
  (* a long phase: the host's speed over it, from both ends *)
  let before = !Host.factor in
  Host.calibrate ();
  Host.factor := (before +. !Host.factor) /. 2.;
  Samples.add samples (seconds_of dt);
  v

(* ---------- inputs and stores ------------------------------------------ *)

type inputs = {
  w : workload;
  schema : Rdf.Schema.t;
  base : Gen.triple array;
  rdf : Rdf.Triple.t array;
  queries : Query.Cq.t array;
  updates : Gen.update array;
  digest : string;
}

let make_inputs w ~seed =
  let schema = Workload.Barton.schema () in
  let base = Gen.triples ~seed ~entities:w.entities in
  let queries =
    Gen.queries
      ?schema:(if w.reasoning then Some schema else None)
      ~seed ~groups:w.groups ~entities:w.entities base
  in
  let updates =
    Gen.updates ~seed ~entities:w.entities ~base_share:w.base_share ~n:w.updates base
  in
  {
    w;
    schema;
    base;
    rdf = Array.map Gen.to_rdf base;
    queries = Array.of_list queries;
    updates;
    digest = Gen.digest base queries updates;
  }

let load backend triples =
  let store = Rdf.Store.create ~backend () in
  Array.iter (fun t -> ignore (Rdf.Store.add store t : bool)) triples;
  (* fold the memtable in, as a bulk load leaves it *)
  Rdf.Store.compact store;
  store

(* Triples are rebuilt as records, not through [Triple.make]: range
   typing puts literals in subject position in a saturation. *)
let decode store (s, p, o) =
  {
    Rdf.Triple.s = Rdf.Store.decode_term store s;
    p = Rdf.Store.decode_term store p;
    o = Rdf.Store.decode_term store o;
  }

(* Order-independent: the triple count and the sum of triple hashes. *)
let store_digest store =
  let sum =
    Rdf.Store.fold_all store
      (fun enc acc -> (acc + Rdf.Triple.hash (decode store enc)) land max_int)
      0
  in
  Printf.sprintf "%d:%x" (Rdf.Store.size store) sum

type db = {
  store : Rdf.Store.t;  (* explicit triples: selection, views, direct evaluation *)
  inc : Rdf.Incremental.t option;  (* rdfs: the DRed-maintained saturation *)
}

(* The statistics are a probe in the selector's own mode (reformulated
   counts on rdfs): [Core.Selector.select] builds statistics of its own,
   so select_s pays for them again. *)
let setup inp =
  let store =
    Span.call "rdf" "Store.add/load" (fun () -> load inp.w.backend inp.rdf)
  in
  let inc =
    if inp.w.reasoning then
      Some
        (Span.call "rdf" "Incremental.create" (fun () ->
             Rdf.Incremental.create inp.schema (Rdf.Store.copy store)))
    else None
  in
  let mode =
    if inp.w.reasoning then Stats.Statistics.Reformulated inp.schema
    else Stats.Statistics.Plain
  in
  let stats = Stats.Statistics.create ~mode store in
  Span.call "stats" "Statistics.prewarm" (fun () ->
      Stats.Statistics.prewarm stats (Array.to_list inp.queries));
  { store; inc }

let reset_caches () =
  Query.Plan.reset_cache ();
  Query.Mqo.reset ()

(* ---------- layer probes (traced run only) ----------------------------- *)

let timed_call layer name f =
  let t0 = now () in
  let v = Span.call layer name f in
  (v, now () - t0)

(* Every atom's constant pattern and its relaxations (§3.3). *)
let atom_patterns store atoms =
  let code = function
    | Query.Qterm.Cst c -> Rdf.Store.find_term store c
    | Query.Qterm.Var _ -> None
  in
  let keep bit mask v = if mask land bit <> 0 then v else None in
  List.sort_uniq compare
    (List.concat_map
       (fun (a : Query.Atom.t) ->
         let s = code a.s and p = code a.p and o = code a.o in
         List.init 8 (fun m ->
             { Rdf.Store.ps = keep 1 m s; pp = keep 2 m p; po = keep 4 m o }))
       atoms)

let scan store (pat : Rdf.Store.pattern) =
  match (pat.ps, pat.pp, pat.po) with
  | Some s, None, None -> Some (Rdf.Store.scan1 store `S s)
  | None, Some p, None -> Some (Rdf.Store.scan1 store `P p)
  | None, None, Some o -> Some (Rdf.Store.scan1 store `O o)
  | Some s, Some p, None -> Some (Rdf.Store.scan2 store `SP s p)
  | Some s, None, Some o -> Some (Rdf.Store.scan2 store `SO s o)
  | None, Some p, Some o -> Some (Rdf.Store.scan2 store `PO p o)
  | _ -> None

(* Layer probes on the workload's own data, for the layers a timed
   phase does not isolate.  [cqs] are the conjunctive queries direct
   evaluation runs (the reformulation disjuncts on rdfs). *)
let probes inp db ~cqs layer =
  let store = db.store in
  let pats =
    atom_patterns store (List.concat_map (fun (q : Query.Cq.t) -> q.Query.Cq.body) cqs)
  in
  let reps = 50 in
  let (), ns =
    timed_call "rdf" "Store.count_matching" (fun () ->
        for _ = 1 to reps do
          List.iter (fun p -> ignore (Rdf.Store.count_matching store p : int)) pats
        done)
  in
  layer "store.count_ns" "ns" (per ns (reps * List.length pats));
  let rows = ref 0 in
  let (), ns =
    timed_call "rdf" "Store.scan" (fun () ->
        for _ = 1 to 5 do
          List.iter
            (fun p -> match scan store p with Some (_, n) -> rows := !rows + n | None -> ())
            pats
        done)
  in
  layer "store.scan_ns_per_row" "ns" (per ns !rows);
  (* saturation of (a prefix of) the explicit triples *)
  let prefix = Array.sub inp.rdf 0 (min (Array.length inp.rdf) 40_000) in
  let small = load inp.w.backend prefix in
  let _, ns =
    timed_call "rdf" "Entailment.saturated_copy" (fun () ->
        Rdf.Entailment.saturated_copy small inp.schema)
  in
  layer "entailment.saturate_s" "s" (seconds_of ns);
  (* DRed on that prefix: delete and re-insert spread-out base triples
     (rdfs times its real update stream instead) *)
  if not inp.w.reasoning then begin
    let inc = Rdf.Incremental.create inp.schema small in
    let n = 300 and stride = max 1 (Array.length prefix / 300) in
    let del_ns = ref 0 and ins_ns = ref 0 and removed = ref 0 in
    for i = 0 to n - 1 do
      let tr = prefix.(i * stride mod Array.length prefix) in
      let r, dt =
        timed_call "rdf" "Incremental.delete" (fun () -> Rdf.Incremental.delete inc tr)
      in
      removed := !removed + r;
      del_ns := !del_ns + dt;
      let _, dt =
        timed_call "rdf" "Incremental.insert" (fun () -> Rdf.Incremental.insert inc tr)
      in
      ins_ns := !ins_ns + dt
    done;
    layer "incremental.insert_ns" "ns" (per !ins_ns n);
    layer "incremental.delete_ns" "ns" (per !del_ns n);
    layer "incremental.removed_per_delete" "count" (per !removed n)
  end;
  let reps = 5 in
  let queries = Array.to_list inp.queries in
  let disjuncts = ref 0 in
  let (), ns =
    timed_call "query" "Reformulation.reformulate" (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun q ->
              disjuncts :=
                !disjuncts + Query.Ucq.cardinal (Query.Reformulation.reformulate q inp.schema))
            queries
        done)
  in
  layer "reformulation.ns_per_query" "ns" (per ns (reps * List.length queries));
  layer "reformulation.disjuncts_per_query" "count"
    (per !disjuncts (reps * List.length queries));
  let (), ns =
    timed_call "query" "Plan.compile" (fun () ->
        for _ = 1 to reps do
          List.iter (fun q -> ignore (Query.Plan.compile store q : Query.Plan.t)) cqs
        done)
  in
  layer "plan.compile_ns" "ns" (per ns (reps * List.length cqs));
  Query.Mqo.set_enabled false;
  let bindings = ref 0 and exec_ns = ref 0 in
  List.iter
    (fun q ->
      let plan = Query.Plan.compile store q in
      for _ = 1 to 5 do
        let rows = Query.Rowset.create 64 in
        let (), dt =
          timed_call "query" "Plan.exec_into" (fun () -> Query.Plan.exec_into plan store rows)
        in
        exec_ns := !exec_ns + dt;
        bindings := !bindings + Query.Plan.last_bindings plan
      done)
    cqs;
  Query.Mqo.set_enabled true;
  layer "plan.exec_ns_per_binding" "ns" (per !exec_ns !bindings)

(* A histogram quantile interpolated inside its log bucket ([Obs]
   itself reports bucket representatives only). *)
let hist_quantile reg name q =
  match List.assoc_opt name (Obs.Export.snapshot reg).Obs.Export.snap_histograms with
  | None -> 0.
  | Some h ->
    let target = q *. float_of_int h.Obs.Export.hsn_count in
    let rec go i cum =
      if i >= Array.length h.hsn_buckets then 0.
      else
        let c = h.hsn_buckets.(i) in
        if c > 0 && float_of_int (cum + c) >= target then
          if i = 0 then 0.
          else
            let lo = Float.ldexp 1. (i - 1) in
            lo +. (lo *. (target -. float_of_int cum) /. float_of_int c)
        else go (i + 1) (cum + c)
    in
    go 0 0

(* ---------- one pass of the pipeline ----------------------------------- *)

(* The samples of every round of a run. *)
type acc = {
  setup : Samples.t;  (* one a round, never folded: the median is reported *)
  select : Samples.t;
  materialize : Samples.t;
  answer : Samples.t;
  cold : Samples.t;
  warm : Samples.t;
  inserts : Samples.t;
  deletes : Samples.t;
}

let new_acc () =
  let s = Samples.create in
  {
    setup = s ();
    select = s ();
    materialize = s ();
    answer = s ();
    cold = s ();
    warm = s ();
    inserts = s ();
    deletes = s ();
  }

let next_round acc =
  List.iter Samples.next_round
    [ acc.select; acc.materialize; acc.answer; acc.cold; acc.warm; acc.inserts; acc.deletes ]

(* The end-to-end metrics: name, value, unit and sample count.  Each
   quantile or mean is taken over the per-position minima of the rounds.
   Answers report a geometric mean, as TPC-H's power metric does over
   its queries: some queries are a scan of one view and others join, so
   a quantile would jump between the two with the seed, and a plain mean
   would follow the one slowest query. *)
let summarize ?(raw = false) acc =
  let q name unit (s : Samples.t) p =
    (name, (if raw then Samples.quantile_raw s p else Samples.quantile s p), unit, s.n)
  in
  let geomean name unit (s : Samples.t) =
    (name, (if raw then Samples.geomean_raw s else Samples.geomean s), unit, s.n)
  in
  [
    q "setup_s" "s" acc.setup 0.5;
    q "select_s" "s" acc.select 0.5;
    q "materialize_s" "s" acc.materialize 0.5;
    geomean "answer_geomean_us" "us" acc.answer;
    q "eval_cold_p50_us" "us" acc.cold 0.5;
    q "eval_warm_p50_us" "us" acc.warm 0.5;
    q "insert_p50_us" "us" acc.inserts 0.5;
    q "insert_p99_us" "us" acc.inserts 0.99;
    q "delete_p50_us" "us" acc.deletes 0.5;
    q "delete_p99_us" "us" acc.deletes 0.99;
    ( "peak_heap_mb",
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.,
      "MB",
      1 );
  ]

type pass = {
  layers : (string * float * string) list;
  gc : (string * gc_work) list;
}

(* Each query's answer count, from the first round's oracle. *)
let expected = ref [||]

(* One round: the whole pipeline from an empty store, its samples added
   to [acc].  The oracles run in the [first] round; later rounds repeat
   its work exactly and check their answer counts against it. *)
let run_pass inp acc ~first ~traced =
  let w = inp.w in
  let queries = inp.queries in
  let nq = Array.length queries in
  gc_work := [];
  reset_caches ();
  let layers = ref [] in
  let layer name unit v = layers := (name, v, unit) :: !layers in

  (* 1. set-up: load, saturate (rdfs), statistics *)
  let db = phase acc.setup "setup" (fun () -> setup inp) in
  ops "setup" (Array.length inp.rdf);
  let resident = per (Rdf.Store.resident_bytes db.store) (Rdf.Store.size db.store) in

  (* 2. view selection: DFS-AVF-STV, no time budget, a state cap; the
     fresh-variable counter restarts so every round does the same work *)
  let reasoning =
    if w.reasoning then Core.Selector.Post_reformulation inp.schema
    else Core.Selector.No_reasoning
  in
  let options = { Core.Search.default_options with max_states = Some w.max_states } in
  Query.Qterm.reset_fresh_counter ();
  let sel =
    phase acc.select "select" (fun () ->
        Span.call "core" "Selector.select" (fun () ->
            Core.Selector.select ~jobs:1 ~store:db.store ~reasoning ~options
              (Array.to_list queries)))
  in
  let search = sel.Core.Selector.report in
  ops "select" search.Core.Search.created;

  (* 3. materialization, each repetition from cold plan and MQO caches *)
  let materialize () =
    reset_caches ();
    phase acc.materialize "materialize" (fun () ->
        Span.call "engine" "Materialize.materialize_views" (fun () ->
            Engine.Materialize.materialize_views db.store sel.Core.Selector.recommended))
  in
  for _ = 2 to w.materialize_reps do
    ignore (materialize () : Engine.Materialize.env)
  done;
  let views = materialize () in
  let view_rows = Engine.Materialize.total_cardinality views in
  let view_bytes = if traced then Engine.Materialize.total_size_bytes db.store views else 0 in
  ops "materialize" (w.materialize_reps * view_rows);

  (* the oracle, outside the clock: answers through the views, direct
     evaluation and Reference (on the saturation under rdfs) agree *)
  let rewriting =
    Array.map
      (fun (q : Query.Cq.t) -> List.assoc q.Query.Cq.name sel.Core.Selector.rewritings)
      queries
  in
  let reformulated =
    Array.map
      (fun q ->
        if w.reasoning then Some (Query.Reformulation.reformulate q inp.schema) else None)
      queries
  in
  let oracle_store =
    match db.inc with Some i -> Rdf.Incremental.store i | None -> db.store
  in
  if first then
    expected :=
      Array.mapi
        (fun k (q : Query.Cq.t) ->
          let name = q.Query.Cq.name in
          match
            let reference = Query.Evaluation.Reference.eval_cq oracle_store q in
            let direct =
              match reformulated.(k) with
              | Some u -> Query.Evaluation.eval_ucq db.store u
              | None -> Query.Evaluation.eval_cq db.store q
            in
            let via_views = Engine.Executor.execute_query db.store views rewriting.(k) in
            (reference, direct, via_views)
          with
          | reference, direct, via_views ->
            check
              (Query.Evaluation.same_answers direct reference
              && Query.Evaluation.same_answers via_views reference)
              (name ^ ": views, direct evaluation and Reference disagree");
            List.length reference
          | exception e ->
            check false (name ^ ": " ^ Printexc.to_string e);
            -1)
        queries;
  let expected = !expected in

  (* 4. answering through the rewritings *)
  let answer = acc.answer and rows_out = ref 0 in
  ignore
    (measured "answer" (fun () ->
         for i = 0 to w.answers - 1 do
           let k = i mod nq in
           let name = queries.(k).Query.Cq.name in
           ignore
             (timed answer name
                (fun () ->
                  Span.request name (fun () ->
                      Span.call "engine" "Executor.execute" (fun () ->
                          Engine.Executor.execute db.store views rewriting.(k))))
                (fun rel ->
                  let n = Engine.Relation.cardinality rel in
                  rows_out := !rows_out + n;
                  n = expected.(k)))
         done));
  ops "answer" w.answers;

  (* 5. direct evaluation: the first execution with empty plan and MQO
     caches, then the same query again at the same store version *)
  let eval k =
    match reformulated.(k) with
    | Some u ->
      Span.call "query" "Evaluation.eval_ucq_codes" (fun () ->
          Query.Evaluation.eval_ucq_codes db.store u)
    | None ->
      Span.call "query" "Evaluation.eval_cq_codes" (fun () ->
          Query.Evaluation.eval_cq_codes db.store queries.(k))
  in
  let cold = acc.cold and warm = acc.warm in
  let eval_pair k ok =
    reset_caches ();
    let name = queries.(k).Query.Cq.name in
    let run () = Span.request name (fun () -> eval k) in
    let first = timed cold name run ok in
    let again = timed warm name run ok in
    (first, again)
  in
  if w.eval_pairs > 0 then begin
    ignore
      (measured "eval" (fun () ->
           for i = 0 to w.eval_pairs - 1 do
             let k = i mod nq in
             ignore (eval_pair k (fun rows -> List.length rows = expected.(k)))
           done));
    ops "eval" (2 * w.eval_pairs)
  end;
  let mqo_words = snd (Query.Mqo.stats ()) in

  (* 6. the update stream *)
  let maintained =
    if w.reasoning then []
    else
      List.map
        (fun u ->
          (List.hd (Query.Ucq.disjuncts u), Hashtbl.find views (Query.Ucq.name u)))
        sel.Core.Selector.recommended
  in
  let encode store (tr : Rdf.Triple.t) =
    let code t =
      match Rdf.Store.find_term store t with
      | Some c -> c
      | None -> invalid_arg "ledger: term missing from the store"
    in
    (code tr.Rdf.Triple.s, code tr.Rdf.Triple.p, code tr.Rdf.Triple.o)
  in
  let changed = ref 0 and removed = ref 0 in
  let insert tr =
    match db.inc with
    | Some inc ->
      ignore
        (Span.call "rdf" "Incremental.insert" (fun () -> Rdf.Incremental.insert inc tr)
          : int);
      0
    | None ->
      Span.call "engine" "Maintenance.insert_triple" (fun () ->
          Engine.Maintenance.insert_triple db.store maintained tr)
  in
  let delete tr =
    match db.inc with
    | Some inc ->
      removed :=
        !removed
        + Span.call "rdf" "Incremental.delete" (fun () -> Rdf.Incremental.delete inc tr);
      0
    | None ->
      Span.call "engine" "Maintenance.delete_triple" (fun () ->
          Engine.Maintenance.delete_triple db.store maintained tr)
  in
  (* traced, after each insert and outside the clock: every view's delta
     for the inserted triple, timed apart from the store write.  On rdfs
     these are the best state's views over the saturation, the
     maintenance the VMC term charges for. *)
  let delta_store, delta_views =
    match db.inc with
    | Some inc ->
      ( Rdf.Incremental.store inc,
        List.map
          (fun (v : Core.View.t) -> v.Core.View.cq)
          search.Core.Search.best.Core.State.views )
    | None -> (db.store, List.map fst maintained)
  in
  let delta_ns = ref 0 and delta_calls = ref 0 in
  let probe_deltas tr =
    if traced then
      Span.request "delta" (fun () ->
          let enc = encode delta_store tr in
          List.iter
            (fun cq ->
              let d, dt =
                timed_call "engine" "Maintenance.delta_insert" (fun () ->
                    Engine.Maintenance.delta_insert delta_store cq enc)
              in
              delta_ns := !delta_ns + dt;
              incr delta_calls;
              (* elsewhere the maintained views' own counts are summed *)
              if Option.is_some db.inc then changed := !changed + List.length d)
            delta_views)
  in
  let inserts = acc.inserts and deletes = acc.deletes in
  let reads = ref 0 in
  (* churn: a read after writes, cold then warm, checked outside the
     clock against the answer through the maintained views *)
  let read_after_writes () =
    let s0 = Gc.quick_stat () in
    let k = !reads mod nq in
    incr reads;
    let name = queries.(k).Query.Cq.name in
    (match eval_pair k (fun _ -> true) with
     | Some rows, Some again -> (
       match Engine.Executor.execute db.store views rewriting.(k) with
       | rel ->
         let n = Engine.Relation.cardinality rel in
         check
           (List.length rows = n && List.length again = n
           && List.for_all (Engine.Relation.mem rel) rows)
           (Printf.sprintf "%s, read %d: direct evaluation and the maintained views disagree"
              name !reads)
       | exception e -> check false (name ^ ": " ^ Printexc.to_string e))
     | _ -> ());
    let s1 = Gc.quick_stat () in
    charge "eval" s0 s1;
    charge ~sign:(-1) "update" s0 s1;
    ops "eval" 2
  in
  ignore
    (measured "update" (fun () ->
         Array.iteri
           (fun i u ->
             (match u with
              | Gen.Insert t -> (
                let tr = Gen.to_rdf t in
                (match
                   timed inserts "insert"
                     (fun () -> Span.request "insert" (fun () -> insert tr))
                     (fun _ -> true)
                 with
                 | Some n -> changed := !changed + n
                 | None -> ());
                probe_deltas tr)
              | Gen.Delete t -> (
                let tr = Gen.to_rdf t in
                match
                  timed deletes "delete"
                    (fun () -> Span.request "delete" (fun () -> delete tr))
                    (fun _ -> true)
                with
                | Some n -> changed := !changed + n
                | None -> ()));
             if w.read_every > 0 && (i + 1) mod w.read_every = 0 then read_after_writes ())
           inp.updates));
  ops "update" (Array.length inp.updates);

  (* the oracle after the stream, outside the clock *)
  (match db.inc with
   | _ when not first -> ()
   | None ->
     List.iter
       (fun ((cq : Query.Cq.t), rel) ->
         match Engine.Materialize.materialize_cq db.store cq with
         | fresh ->
           check
             (Engine.Relation.cardinality fresh = Engine.Relation.cardinality rel
             && Engine.Relation.fold_rows (fun row ok -> ok && Engine.Relation.mem rel row) fresh true)
             (cq.Query.Cq.name ^ ": the maintained view differs from a fresh materialization")
         | exception e -> check false (cq.Query.Cq.name ^ ": " ^ Printexc.to_string e))
       maintained
   | Some inc ->
     let explicit = Hashtbl.create (Array.length inp.base) in
     Array.iter (fun t -> Hashtbl.replace explicit (Gen.key t) t) inp.base;
     Array.iter
       (function
         | Gen.Insert t -> Hashtbl.replace explicit (Gen.key t) t
         | Gen.Delete t -> Hashtbl.remove explicit (Gen.key t))
       inp.updates;
     let fresh = Rdf.Store.create ~backend:w.backend () in
     Hashtbl.iter (fun _ t -> ignore (Rdf.Store.add fresh (Gen.to_rdf t) : bool)) explicit;
     let saturated = Rdf.Entailment.saturated_copy fresh inp.schema in
     let dred = Rdf.Incremental.store inc in
     check
       (Rdf.Incremental.explicit_count inc = Hashtbl.length explicit
       && Rdf.Store.size saturated = Rdf.Store.size dred
       && Rdf.Store.fold_all saturated
            (fun enc ok -> ok && Rdf.Store.mem dred (decode saturated enc))
            true)
       "the DRed-maintained store differs from the saturation of the explicit triples");

  if traced then begin
    let reg = Obs.global () in
    let count name = float_of_int (Option.value ~default:0 (Obs.find_counter reg name)) in
    let created = float_of_int search.Core.Search.created in
    let decodes = count "store.block_decodes" and hits = count "store.block_cache_hits" in
    (* counters first: the probes below add work of their own *)
    layer "store.load_ns_per_triple" "ns"
      (let calls, ns = Span.total "Store.add/load" in
       per ns (calls * Array.length inp.rdf));
    layer "store.resident_bytes_per_triple" "bytes" resident;
    layer "store.scanned_triples" "count" (count "store.scanned_triples");
    layer "store.block_decodes" "count" decodes;
    layer "store.block_cache_hit_ratio" "ratio" (ratio hits (hits +. decodes));
    layer "store.memtable_flushes" "count" (count "store.memtable_flushes");
    layer "store.merges" "count" (count "store.merges");
    layer "store.merge_rows" "count" (count "store.merge_rows");
    layer "stats.prewarm_s" "s" (Span.mean_ns "Statistics.prewarm" /. 1e9);
    layer "stats.atoms_counted" "count"
      (float_of_int (Stats.Statistics.cache_size sel.Core.Selector.stats));
    layer "search.states_created" "count" created;
    layer "search.states_per_s" "1/s" (ratio created (Span.mean_ns "Selector.select" /. 1e9));
    layer "search.expand_p50_ns" "ns" (hist_quantile reg "search.expand.ns" 0.5);
    layer "search.expand_p99_ns" "ns" (hist_quantile reg "search.expand.ns" 0.99);
    layer "search.best_cost" "cost" search.Core.Search.best_cost;
    layer "cost.state_memo_hit_ratio" "ratio"
      (ratio (count "cost.state.hits") (count "cost.state.hits" +. count "cost.state.misses"));
    layer "cost.delta_incremental_ratio" "ratio"
      (ratio (count "cost.delta.incremental")
         (count "cost.delta.incremental" +. count "cost.delta.full"));
    layer "cost.estimate_nodes_per_state" "count"
      (ratio (count "cost.estimate.nodes") (count "search.created"));
    layer "plan.cache_miss_ratio" "ratio"
      (ratio (count "eval.plan.cache_misses")
         (count "eval.plan.cache_hits" +. count "eval.plan.cache_misses"));
    layer "plan.bindings" "count" (count "eval.bindings");
    layer "plan.reorders" "count" (count "eval.plan.reorders");
    layer "mqo.result_hit_ratio" "ratio" (ratio (count "mqo.result.hits") (count "eval.queries"));
    layer "mqo.prefix_hit_ratio" "ratio" (ratio (count "mqo.prefix.hits") (count "eval.queries"));
    layer "mqo.cache_words" "words" (float_of_int mqo_words);
    layer "materialize.rows" "count" (float_of_int view_rows);
    layer "materialize.ns_per_row" "ns"
      (ratio (Span.mean_ns "Materialize.materialize_views") (float_of_int view_rows));
    layer "materialize.view_bytes" "bytes" (float_of_int view_bytes);
    layer "executor.rows_out" "count" (float_of_int !rows_out);
    layer "executor.ns_per_row_out" "ns" (per (snd (Span.total "Executor.execute")) !rows_out);
    layer "maintenance.delta_ns" "ns" (per !delta_ns !delta_calls);
    layer "maintenance.tuples_changed_per_update" "count"
      (per !changed (Array.length inp.updates));
    if w.reasoning then begin
      layer "incremental.insert_ns" "ns" (Span.mean_ns "Incremental.insert");
      layer "incremental.delete_ns" "ns" (Span.mean_ns "Incremental.delete");
      layer "incremental.removed_per_delete" "count"
        (per !removed (fst (Span.total "Incremental.delete")))
    end;
    let cqs =
      List.concat_map
        (fun k ->
          match reformulated.(k) with
          | Some u -> Query.Ucq.disjuncts u
          | None -> [ queries.(k) ])
        (List.init nq Fun.id)
    in
    Span.request "probes" (fun () -> probes inp db ~cqs layer)
  end;
  { layers = List.rev !layers; gc = !gc_work }

(* ---------- output ----------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  List.iter
    (fun (name, v, unit, n) -> Printf.printf "  %-44s %18.4f %-6s n=%d\n" name v unit n)
    metrics;
  Printf.printf "  %-44s %18.6f %-6s n=%d\n" "error_rate" (per !failed !attempted) "ratio"
    !attempted;
  let fields =
    List.map
      (fun (name, v, unit, _) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed (String.concat ", " fields)

let fingerprint =
  [
    "search.states_created";
    "search.best_cost";
    "plan.bindings";
    "materialize.rows";
    "executor.rows_out";
    "store.block_decodes";
    "maintenance.tuples_changed_per_update";
  ]

let phases = [ "setup"; "select"; "materialize"; "answer"; "eval"; "update" ]
let layer_names = [ "bench"; "rdf"; "stats"; "core"; "query"; "engine" ]

let overhead_of =
  [
    ("select_s", "s");
    ("materialize_s", "s");
    ("answer_geomean_us", "us");
    ("eval_cold_p50_us", "us");
    ("insert_p50_us", "us");
    ("delete_p50_us", "us");
  ]

let value_of name metrics =
  match List.find_opt (fun (n, _, _, _) -> String.equal n name) metrics with
  | Some (_, v, _, _) -> v
  | None -> 0.

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let tiny = ref false in
  let usage =
    "ledger.exe --workload serve|churn|rdfs [--seed N] [--seconds S] [--trace 0|1] [--tiny]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve, churn or rdfs");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "S run length; operation counts scale with it");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
      ("--tiny", Arg.Set tiny, " a small scale, for the self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | Some w when !seconds > 0 && (!trace = 0 || !trace = 1) ->
      scale ~seconds:!seconds ~tiny:!tiny w
    | Some _ | None ->
      prerr_endline usage;
      exit 2
  in
  (* a p99 is reported only with at least ten samples beyond it *)
  if (not !tiny) && p99_samples w < 1000 then begin
    Printf.eprintf "ledger: --seconds %d leaves %d samples for a p99, fewer than 1000\n"
      !seconds (p99_samples w);
    exit 2
  end;
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 18; space_overhead = 120 };
  let inp = make_inputs w ~seed:!seed in
  let on_hash = store_digest (load Rdf.Backend.Hash inp.rdf) in
  let on_compact = store_digest (load Rdf.Backend.Compact inp.rdf) in
  check (String.equal on_hash on_compact) "the hash and compact stores hold different triples";
  Printf.printf "ledger %s, seed %d: %d triples, %d queries, %d updates\n" w.name !seed
    (Array.length inp.rdf) (Array.length inp.queries) (Array.length inp.updates);
  Printf.printf "inputs digest %s; stores: hash %s, compact %s\n%!" inp.digest on_hash
    on_compact;
  (* rounds alternate with traced rounds, so both meet the same host *)
  let plain_acc = new_acc () and traced_acc = new_acc () in
  let plain = ref None and traced = ref None in
  for r = 1 to w.rounds do
    next_round plain_acc;
    plain := Some (run_pass inp plain_acc ~first:(r = 1) ~traced:false);
    if !trace = 1 then begin
      (* counters and spans describe the last traced round *)
      next_round traced_acc;
      Obs.set_global (Obs.create ());
      Span.reset ();
      Span.on := true;
      traced := Some (run_pass inp traced_acc ~first:false ~traced:true);
      Span.on := false;
      Obs.set_global Obs.disabled
    end
  done;
  let e2e = summarize plain_acc in
  let unscaled =
    List.filter_map
      (fun (n, v, u, _) ->
        if String.equal u "MB" then None else Some ("unscaled." ^ n, v, u))
      (summarize ~raw:true plain_acc)
  in
  let kernel_us =
    let k = Array.of_list !Host.kernels in
    Samples.quantile_of k (Array.length k) 0.5 /. 1e3
  in
  Printf.printf "host: the reference computation took %.1f us (median), %.1f us scaled\n%!"
    kernel_us (Host.reference_ns /. 1e3);
  List.iter (fun (n, v, u) -> Printf.printf "  %-44s %18.4f %-6s\n" n v u) unscaled;
  let metrics =
    match (!plain, !traced) with
    | _, None | None, _ -> e2e
    | Some plain, Some traced ->
      Span.write (Printf.sprintf ".ledger/spans-%s-%d.tsv" w.name !seed);
      let gc =
        List.concat_map
          (fun phase ->
            let g =
              match List.assoc_opt phase plain.gc with
              | Some g -> g
              | None -> { minor_words = 0.; majors = 0; ops = 0 }
            in
            [
              ("gc." ^ phase ^ ".minor_words_per_op", ratio g.minor_words (float_of_int g.ops), "words");
              ("gc." ^ phase ^ ".major_collections", float_of_int g.majors, "count");
            ])
          phases
      in
      let self = Span.self_ns () in
      let spans =
        List.map (fun l -> ("span." ^ l ^ ".self_s", seconds_of (self l), "s")) layer_names
      in
      let overhead =
        List.map
          (fun (m, unit) ->
            ( "trace.overhead." ^ m,
              value_of m (summarize traced_acc) -. value_of m e2e,
              unit ))
          overhead_of
      in
      let layers =
        traced.layers @ gc @ spans
        @ [ ("trace.spans", float_of_int !Span.count, "count") ]
        @ overhead
        @ (("host.kernel_us", kernel_us, "us") :: unscaled)
      in
      Printf.printf "fingerprint %s seed %d:%s\n" w.name !seed
        (String.concat ""
           (List.map
              (fun k ->
                match List.find_opt (fun (n, _, _) -> String.equal n k) layers with
                | Some (_, v, _) -> Printf.sprintf " %s=%.17g" k v
                | None -> "")
              fingerprint));
      List.map (fun (n, v, u) -> (n, v, u, 1)) layers
  in
  print_result metrics
