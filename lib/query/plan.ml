(* Compiled query plans.

   The reference evaluator ([Evaluation.Reference]) re-plans at every
   binding step: it re-costs every remaining atom (O(n²) probes per
   complete binding), threads per-extension string-keyed maps, and
   allocates a tuple per scanned triple.  This module compiles a CQ
   once per (store, canonical form):

   - variables are numbered into dense {e int slots}; execution runs
     against one mutable [int array] frame, with no map and no closure
     allocation on the per-triple path;
   - the body becomes an ordered array of {e steps}; each step records,
     per position, whether it is a constant (resolved to its code at
     compile time), binds a slot first seen here, or tests a slot bound
     by an earlier step — so the executor never checks boundness at
     runtime;
   - the join order is fixed at compile time, greedily most-selective
     first from the store's O(1) pattern counts, and never changes;
   - plans are cached on their store, keyed by the canonical form of
     the query, so repeated evaluation — view materialization across
     search states, workload answering — compiles once, and the plans
     die with the store;
   - a plan may be compiled with some variables as {e parameters}: they
     take the first slots, the planner treats them as bound before the
     first step, and each execution writes its arguments' codes into
     those slots.  Maintenance compiles a view's delta and re-check
     plans this way once and runs them with every update's codes. *)

module SMap = Map.Make (String)

let obs_cache_hits = Obs.cached_counter "eval.plan.cache_hits"
let obs_cache_misses = Obs.cached_counter "eval.plan.cache_misses"
let obs_extensions = Obs.cached_counter "eval.frame.extensions"
let obs_bindings = Obs.cached_counter "eval.bindings"

(* A value known before the step's bucket is scanned: a code resolved at
   compile time, or a slot bound by an earlier step. *)
type src = Kconst of int | Kslot of int

(* What to do with a scanned position that the access path did not
   already constrain. *)
type post = Skip | Bind of int | Test of int

type access =
  | All                                     (* full scan *)
  | One of [ `S | `P | `O ] * src           (* one-column index *)
  | Two of [ `SP | `SO | `PO ] * src * src  (* two-column index *)
  | Mem of src * src * src                  (* membership test *)

type step = {
  access : access;
  post_s : post;
  post_p : post;
  post_o : post;
}

type head_src = Hconst of int | Hslot of int

type t = {
  store_id : int;
  steps : step array;
  nparams : int;       (* slots [0 .. nparams - 1] are the parameters *)
  nslots : int;
  head : head_src array;
  impossible : bool;   (* a body constant is absent from the dictionary *)
  dict_size : int;     (* dictionary size at compile time *)
  mutable last_bindings : int;
      (* complete assignments (duplicates included) counted by the
         last execution *)
  mutable result_hint : int;
      (* cardinality of the last result set produced from this plan;
         pre-sizes the next execution's row table so steady-state
         re-evaluation never pays hash-table growth *)
}

let is_impossible t = t.impossible
let last_bindings t = t.last_bindings

(* ---------- compilation -------------------------------------------------- *)

(* A body atom with its constants resolved against the dictionary. *)
type rterm = Rconst of int | Rvar of string | Rabsent

let resolve store = function
  | Qterm.Cst c -> (
    match Rdf.Store.find_term store c with
    | Some code -> Rconst code
    | None -> Rabsent)
  | Qterm.Var x -> Rvar x

(* Cardinality estimate of an atom given the compile-time constants and
   the set of variables bound by the parameters and the steps already
   ordered.  The store can count any constant pattern in O(1); bound
   variables have unknown values at compile time, so each bound-variable
   position divides the count by the column's distinct-code population
   (uniformity assumption).  A parameter is one of them: its code is
   written at execution time, so the order cannot depend on it. *)
let estimate store slots (s, p, o) =
  let const = function Rconst c -> Some c | Rvar _ | Rabsent -> None in
  let base =
    Rdf.Store.count_matching store
      { Rdf.Store.ps = const s; pp = const p; po = const o }
  in
  let shrink est col term =
    match term with
    | Rvar x when SMap.mem x slots ->
      let d = Rdf.Store.distinct_in_column store col in
      if d > 1 then est /. float_of_int d else est
    | Rvar _ | Rconst _ | Rabsent -> est
  in
  shrink (shrink (shrink (float_of_int base) `S s) `P p) `O o

(* Where each head term's value comes from: a constant's code or a slot.
   Written as a plain recursion, head terms left to right, so that
   compiling allocates no closure for it. *)
let rec head_sources store slots = function
  | [] -> []
  | t :: rest ->
    let src =
      match t with
      | Qterm.Cst c -> Hconst (Rdf.Store.encode_term store c)
      | Qterm.Var x -> (
        match SMap.find_opt x slots with
        | Some sl -> Hslot sl
        | None -> invalid_arg "Plan.compile: unsafe head variable")
    in
    src :: head_sources store slots rest

let compile ?(params = []) store (q : Cq.t) =
  let atoms =
    Array.of_list
      (List.map
         (fun (a : Atom.t) ->
           (resolve store a.s, resolve store a.p, resolve store a.o))
         q.body)
  in
  let nparams = List.length params in
  let n = Array.length atoms in
  let impossible =
    Array.exists
      (fun (s, p, o) -> s = Rabsent || p = Rabsent || o = Rabsent)
      atoms
  in
  if impossible then
    {
      store_id = Rdf.Store.id store;
      steps = [||];
      nparams;
      nslots = 0;
      head = [||];
      impossible = true;
      dict_size = Rdf.Store.dict_size store;
      last_bindings = 0;
      result_hint = 0;
    }
  else begin
    let used = Array.make n false in
    let slots = ref SMap.empty in
    let nslots = ref 0 in
    let slot_of x =
      match SMap.find_opt x !slots with
      | Some s -> s
      | None ->
        let s = !nslots in
        slots := SMap.add x s !slots;
        incr nslots;
        s
    in
    (* the parameters take the first slots, bound before the first step *)
    List.iter
      (fun x ->
        if SMap.mem x !slots then invalid_arg "Plan.compile: repeated parameter";
        ignore (slot_of x : int))
      params;
    let known_count (s, p, o) =
      let k t =
        match t with
        | Rconst _ -> 1
        | Rvar x -> if SMap.mem x !slots then 1 else 0
        | Rabsent -> assert false
      in
      k s + k p + k o
    in
    (* Greedy order: cheapest estimated atom next; ties prefer the atom
       with more known positions, then source order (determinism). *)
    let steps = ref [] in
    for _ = 0 to n - 1 do
      let best = ref (-1) in
      let best_est = ref infinity in
      let best_known = ref (-1) in
      for i = 0 to n - 1 do
        if not used.(i) then begin
          let est = estimate store !slots atoms.(i) in
          let known = known_count atoms.(i) in
          if
            est < !best_est
            || (est = !best_est && known > !best_known)
          then begin
            best := i;
            best_est := est;
            best_known := known
          end
        end
      done;
      let i = !best in
      used.(i) <- true;
      let (s, p, o) = atoms.(i) in
      (* Known positions feed the access path; the rest become binds
         (first occurrence) or tests (repeats), assigned in s, p, o
         order so a test always follows its bind. *)
      let src_opt t =
        match t with
        | Rconst c -> Some (Kconst c)
        | Rvar x -> (
          match SMap.find_opt x !slots with
          | Some sl -> Some (Kslot sl)
          | None -> None)
        | Rabsent -> assert false
      in
      let ks = src_opt s and kp = src_opt p and ko = src_opt o in
      let access =
        match (ks, kp, ko) with
        | Some a, Some b, Some c -> Mem (a, b, c)
        | Some a, Some b, None -> Two (`SP, a, b)
        | Some a, None, Some c -> Two (`SO, a, c)
        | None, Some b, Some c -> Two (`PO, b, c)
        | Some a, None, None -> One (`S, a)
        | None, Some b, None -> One (`P, b)
        | None, None, Some c -> One (`O, c)
        | None, None, None -> All
      in
      (* Residual roles, allocated after the access decision so a slot
         first seen here binds on its first unconstrained position. *)
      let post known t =
        match (known, t) with
        | Some _, _ -> Skip
        | None, Rvar x -> (
          match SMap.find_opt x !slots with
          | Some sl -> Test sl
          | None -> Bind (slot_of x))
        | None, (Rconst _ | Rabsent) -> assert false
      in
      let post_s = post ks s in
      let post_p = post kp p in
      let post_o = post ko o in
      steps := { access; post_s; post_p; post_o } :: !steps
    done;
    let head = Array.of_list (head_sources store !slots q.head) in
    {
      store_id = Rdf.Store.id store;
      steps = Array.of_list (List.rev !steps);
      nparams;
      nslots = !nslots;
      head;
      impossible = false;
      dict_size = Rdf.Store.dict_size store;
      last_bindings = 0;
      result_hint = 0;
    }
  end

(* ---------- execution ---------------------------------------------------- *)

(* Depth-first walk over a single mutable frame: step [d] scans its
   bucket (or probes membership) with the values bound by steps
   [0 .. d - 1], and every surviving triple extends the frame and
   recurses into step [d + 1]. *)
let exec ?(args = [||]) plan store emit =
  if plan.store_id <> Rdf.Store.id store then
    invalid_arg "Plan.exec: plan compiled against a different store";
  if Array.length args <> plan.nparams then
    invalid_arg "Plan.exec: one argument per parameter expected";
  if not plan.impossible then begin
    let frame = Array.make (max plan.nslots 1) (-1) in
    Array.blit args 0 frame 0 plan.nparams;
    let steps = plan.steps in
    let nsteps = Array.length steps in
    let head = plan.head in
    let arity = Array.length head in
    (* extension / binding counts are accumulated locally and flushed
       with two [Obs.add]s on completion: the per-triple path must not
       pay a cross-module call per event *)
    let n_ext = ref 0 in
    let n_bind = ref 0 in
    (* one scratch row reused for every emission; exec_into copies it
       only when the row enters the result set *)
    let row = Array.make arity 0 in
    let value = function Kconst c -> c | Kslot s -> frame.(s) in
    (* the inner loop reads buckets and the frame unchecked: [base + 2]
       is within the scan's [3 * n] cells and slots are dense by
       construction, so the bounds checks would be pure overhead *)
    let rec run d =
      if d = nsteps then begin
        incr n_bind;
        for i = 0 to arity - 1 do
          Array.unsafe_set row i
            (match Array.unsafe_get head i with
            | Hconst c -> c
            | Hslot s -> Array.unsafe_get frame s)
        done;
        emit row
      end
      else begin
        let st = Array.unsafe_get steps d in
        match st.access with
        | Mem (a, b, c) ->
          if Rdf.Store.mem_encoded store (value a, value b, value c) then begin
            incr n_ext;
            run (d + 1)
          end
        | _ ->
          let data, n =
            match st.access with
            | All -> Rdf.Store.scan_all store
            | One (col, a) -> Rdf.Store.scan1 store col (value a)
            | Two (cols, a, b) -> Rdf.Store.scan2 store cols (value a) (value b)
            | Mem _ -> assert false
          in
          let post_s = st.post_s and post_p = st.post_p and post_o = st.post_o in
          for i = 0 to n - 1 do
            let base = 3 * i in
            if
              (match post_s with
              | Skip -> true
              | Bind s ->
                Array.unsafe_set frame s (Array.unsafe_get data base);
                true
              | Test s ->
                Array.unsafe_get frame s = Array.unsafe_get data base)
              && (match post_p with
                 | Skip -> true
                 | Bind s ->
                   Array.unsafe_set frame s (Array.unsafe_get data (base + 1));
                   true
                 | Test s ->
                   Array.unsafe_get frame s = Array.unsafe_get data (base + 1))
              && (match post_o with
                 | Skip -> true
                 | Bind s ->
                   Array.unsafe_set frame s (Array.unsafe_get data (base + 2));
                   true
                 | Test s ->
                   Array.unsafe_get frame s = Array.unsafe_get data (base + 2))
            then begin
              incr n_ext;
              run (d + 1)
            end
          done
      end
    in
    run 0;
    Obs.add (obs_extensions ()) !n_ext;
    Obs.add (obs_bindings ()) !n_bind;
    plan.last_bindings <- !n_bind
  end

(* The hint is the plan's own contribution (cardinality delta), so
   disjuncts accumulating into a shared table don't inflate each
   other's estimates. *)
let exec_into ?args plan store rows =
  let before = Rowset.cardinal rows in
  exec ?args plan store (fun row -> ignore (Rowset.add rows row));
  plan.result_hint <- Rowset.cardinal rows - before

let size_hint plan = plan.result_hint

(* ---------- the plan cache ----------------------------------------------- *)

(* Each store keeps its own table, keyed by the query value but
   compared and hashed by its memoized canonical form, so every
   isomorphic spelling of a query shares one compiled plan and a warm
   lookup labels nothing.  A table counts as empty unless it was filled
   at the current [generation], which {!reset_cache} bumps.  Only the
   coordinating domain reaches a table ([@@coordinator_only]), so it
   has no lock. *)
module Forms = Hashtbl.Make (struct
  type t = Cq.t

  let equal a b = String.equal (Cq.canonical_string a) (Cq.canonical_string b)
  let hash = Cq.canonical_hash
end)

type table = { mutable generation : int; plans : t Forms.t }
type Rdf.Store.cache += Plans of table

let generation = Atomic.make 0

let current_plans store =
  let now = Atomic.get generation in
  match Rdf.Store.find_cache store (function Plans tbl -> Some tbl | _ -> None) with
  | Some tbl ->
    if tbl.generation <> now then begin
      Forms.reset tbl.plans;
      tbl.generation <- now
    end;
    tbl.plans
  | None ->
    let tbl = { generation = now; plans = Forms.create 64 } in
    Rdf.Store.add_cache store (Plans tbl);
    tbl.plans

let cached store q =
  let plans = current_plans store in
  match Forms.find_opt plans q with
  | Some plan
    when not (plan.impossible && Rdf.Store.dict_size store <> plan.dict_size) ->
    Obs.incr (obs_cache_hits ());
    plan
  | Some _ | None ->
    (* missing, or stale: a constant the plan proved absent may now
       exist *)
    Obs.incr (obs_cache_misses ());
    let plan = compile store q in
    Forms.replace plans q plan;
    plan
[@@coordinator_only]

let reset_cache () = Atomic.incr generation

let cached_plan_count store = Forms.length (current_plans store)
