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
     plans this way once and runs them with every update's codes;
   - a restricted CQ ({!Rcq}, a reformulation shape) compiles into one
     plan: each restricted variable's constants resolve to sorted codes
     (absent ones dropped), the first step that mentions the variable
     writes each code into its slot in turn before probing, and every
     later step sees it bound.  The order estimate of an atom with such
     a variable sums the counts over its codes. *)

module SMap = Map.Make (String)

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
  iters : (int * int array) array;
      (* restricted slots first bound at this step, with their codes:
         the step probes once per combination *)
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
  partial : bool;      (* a set constant was absent, and dropped *)
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

let code_in env = function
  | Rconst c -> Some c
  | Rvar x -> List.assoc_opt x env
  | Rabsent -> None

(* The store's count of an atom, with [env] fixing restricted variables
   to codes.  [probes] counts the lookups, added to the sink once per
   compilation. *)
let count_with store probes env (s, p, o) =
  incr probes;
  float_of_int
    (Rdf.Store.count_matching store
       { Rdf.Store.ps = code_in env s; pp = code_in env p; po = code_in env o })

(* Cardinality estimate of an atom given the compile-time constants and
   the set of variables bound by the parameters and the steps already
   ordered.  The store can count any constant pattern in O(1); bound
   variables have unknown values at compile time, so each bound-variable
   position divides the count by the column's distinct-code population
   (uniformity assumption).  A parameter is one of them: its code is
   written at execution time, so the order cannot depend on it.  An
   atom whose restricted variable is not bound yet sums its counts over
   the variable's codes, as the step will probe once per code. *)
let estimate store probes sets slots ((s, p, o) as atom) =
  let base =
    if SMap.is_empty sets then count_with store probes [] atom
    else
      (* an unbound restricted variable takes each of its codes in turn *)
      let unbound =
        List.sort_uniq String.compare
          (List.filter_map
             (function
               | Rvar x when SMap.mem x sets && not (SMap.mem x slots) -> Some x
               | Rvar _ | Rconst _ | Rabsent -> None)
             [ s; p; o ])
      in
      let rec sum env = function
        | [] -> count_with store probes env atom
        | x :: rest ->
          Array.fold_left (fun acc c -> acc +. sum ((x, c) :: env) rest) 0. (SMap.find x sets)
      in
      sum [] unbound
  in
  let shrink est col term =
    match term with
    | Rvar x when SMap.mem x slots ->
      let d = Rdf.Store.distinct_in_column store col in
      if d > 1 then est /. float_of_int d else est
    | Rvar _ | Rconst _ | Rabsent -> est
  in
  shrink (shrink (shrink base `S s) `P p) `O o

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

(* A restricted variable's codes: its constants found in the
   dictionary, sorted. *)
let resolve_set store partial members =
  let codes =
    Array.of_list
      (List.filter_map
         (fun c ->
           let code = Rdf.Store.find_term store c in
           if Option.is_none code then partial := true;
           code)
         (Array.to_list members))
  in
  Array.sort Int.compare codes;
  codes

let compile_rcq ?(params = []) store (r : Rcq.t) =
  let q = Rcq.cq r in
  let atoms =
    Array.of_list
      (List.map
         (fun (a : Atom.t) ->
           (resolve store a.s, resolve store a.p, resolve store a.o))
         q.body)
  in
  let partial = ref false in
  let sets =
    List.fold_left
      (fun acc (x, members) ->
        if List.mem x params then invalid_arg "Plan.compile: restricted parameter";
        SMap.add x (resolve_set store partial members) acc)
      SMap.empty (Rcq.sets r)
  in
  let nparams = List.length params in
  let n = Array.length atoms in
  let impossible =
    Array.exists
      (fun (s, p, o) -> s = Rabsent || p = Rabsent || o = Rabsent)
      atoms
    || SMap.exists (fun _ codes -> Array.length codes = 0) sets
  in
  if impossible then
    {
      store_id = Rdf.Store.id store;
      steps = [||];
      nparams;
      nslots = 0;
      head = [||];
      impossible = true;
      partial = !partial;
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
        | Rvar x -> if SMap.mem x !slots || SMap.mem x sets then 1 else 0
        | Rabsent -> assert false
      in
      k s + k p + k o
    in
    (* Greedy order: cheapest estimated atom next; ties prefer the atom
       with more known positions, then source order (determinism). *)
    let steps = ref [] in
    let probes = ref 0 in
    for _ = 0 to n - 1 do
      let best = ref (-1) in
      let best_est = ref infinity in
      let best_known = ref (-1) in
      for i = 0 to n - 1 do
        if not used.(i) then begin
          let est = estimate store probes sets !slots atoms.(i) in
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
      (* Restricted variables first seen here take their slots now, so
         the access path below reads them as bound. *)
      let iters =
        if SMap.is_empty sets then [||]
        else
          Array.of_list
            (List.filter_map
               (function
                 | Rvar x when SMap.mem x sets && not (SMap.mem x !slots) ->
                   Some (slot_of x, SMap.find x sets)
                 | Rvar _ | Rconst _ | Rabsent -> None)
               [ s; p; o ])
      in
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
      steps := { iters; access; post_s; post_p; post_o } :: !steps
    done;
    if !probes > 0 then begin
      let sink = Obs.global () in
      Obs.add (Obs.counter sink "store.count_probes") !probes
    end;
    let head = Array.of_list (head_sources store !slots q.head) in
    {
      store_id = Rdf.Store.id store;
      steps = Array.of_list (List.rev !steps);
      nparams;
      nslots = !nslots;
      head;
      impossible = false;
      partial = !partial;
      dict_size = Rdf.Store.dict_size store;
      last_bindings = 0;
      result_hint = 0;
    }
  end

let compile ?params store q = compile_rcq ?params store (Rcq.of_cq q)

(* ---------- execution ---------------------------------------------------- *)

(* One execution's counts: frame extensions, complete bindings, and the
   rows and number of its scans. *)
type tally = {
  mutable ext : int;
  mutable bind : int;
  mutable rows : int;
  mutable scans : int;
}

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
    (* extension, binding and scanned-row counts are accumulated
       locally and added by name on completion, after one sink read: a
       sink read per scan would cost more than reading a short bucket.
       The scanned rows are added only if a step scanned, so a walk of
       membership tests alone registers no scan count. *)
    let tally = { ext = 0; bind = 0; rows = 0; scans = 0 } in
    (* one scratch row reused for every emission; exec_into copies it
       only when the row enters the result set *)
    let row = Array.make arity 0 in
    let value = function Kconst c -> c | Kslot s -> frame.(s) in
    (* the inner loop reads buckets and the frame unchecked: [base + 2]
       is within the scan's [3 * len] cells and slots are dense by
       construction, so the bounds checks would be pure overhead *)
    let rec run d =
      if d = nsteps then begin
        tally.bind <- tally.bind + 1;
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
        if Array.length st.iters = 0 then probe st d else iterate st 0 d
      end
    (* write each code of the [k]-th restricted slot, then the next *)
    and iterate st k d =
      if k = Array.length st.iters then probe st d
      else begin
        let slot, codes = Array.unsafe_get st.iters k in
        for j = 0 to Array.length codes - 1 do
          Array.unsafe_set frame slot (Array.unsafe_get codes j);
          iterate st (k + 1) d
        done
      end
    and probe st d =
      match st.access with
      | Mem (a, b, c) ->
        if Rdf.Store.mem_encoded store (value a, value b, value c) then begin
          tally.ext <- tally.ext + 1;
          run (d + 1)
        end
      | _ ->
        let data, len =
          match st.access with
          | All -> Rdf.Store.scan_all store
          | One (col, a) -> Rdf.Store.scan1 store col (value a)
          | Two (cols, a, b) ->
            Rdf.Store.scan2 store cols (value a) (value b)
          | Mem _ -> assert false
        in
        tally.rows <- tally.rows + len;
        tally.scans <- tally.scans + 1;
        let post_s = st.post_s and post_p = st.post_p and post_o = st.post_o in
        for i = 0 to len - 1 do
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
            tally.ext <- tally.ext + 1;
            run (d + 1)
          end
        done
    in
    run 0;
    let sink = Obs.global () in
    if tally.scans > 0 then
      Obs.add (Obs.counter sink "store.scanned_triples") tally.rows;
    Obs.add (Obs.counter sink "eval.frame.extensions") tally.ext;
    Obs.add (Obs.counter sink "eval.bindings") tally.bind;
    plan.last_bindings <- tally.bind
  end

(* The hint is the plan's own contribution (cardinality delta), so
   disjuncts accumulating into a shared table don't inflate each
   other's estimates. *)
let exec_into ?args plan store rows =
  let before = Rdf.Rowset.cardinal rows in
  exec ?args plan store (fun row -> ignore (Rdf.Rowset.add rows row));
  plan.result_hint <- Rdf.Rowset.cardinal rows - before

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
  type t = Rcq.t

  let equal a b = String.equal (Rcq.canonical_string a) (Rcq.canonical_string b)
  let hash = Rcq.canonical_hash
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

let cached_rcq store r =
  let plans = current_plans store in
  match Forms.find_opt plans r with
  | Some plan
    when not
           ((plan.impossible || plan.partial)
           && Rdf.Store.dict_size store <> plan.dict_size) ->
    let sink = Obs.global () in
    Obs.incr (Obs.counter sink "eval.plan.cache_hits");
    plan
  | Some _ | None ->
    (* missing, or stale: a constant the plan found absent (and proved
       the query empty, or dropped from a set) may now exist *)
    let sink = Obs.global () in
    Obs.incr (Obs.counter sink "eval.plan.cache_misses");
    let plan = compile_rcq store r in
    Forms.replace plans r plan;
    plan
[@@coordinator_only]

let cached store q = cached_rcq store (Rcq.of_cq q) [@@coordinator_only]

let reset_cache () = Atomic.incr generation

let cached_plan_count store = Forms.length (current_plans store)
