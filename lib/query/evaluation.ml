(* Public query evaluation, routed through compiled plans.

   Every entry point fetches a cached plan ({!Plan.cached}) and
   executes it against an int-array frame (an evaluation with bound
   variables compiles an uncached plan instead); the
   former interpretive backtracking joiner survives as {!Reference} for
   differential testing.  Under RDFVIEWS_STRICT=1 every evaluated
   query is run through both engines and the answer sets are compared
   — a mismatch raises, naming the query. *)

let obs_evals = Obs.cached_counter "eval.queries"

let same_answers a b =
  let norm l =
    List.sort (List.compare Rdf.Term.compare) (List.map Array.to_list l)
  in
  List.equal (List.equal Rdf.Term.equal) (norm a) (norm b)

(* Every answer set is computed as code rows, deduplicated on codes, and
   decoded only on the way out: distinct code rows decode to distinct
   term rows (the dictionary is a bijection). *)
let decode_rows store rows =
  List.map (Array.map (Rdf.Store.decode_term store)) rows

(* ---------- the reference evaluator -------------------------------------- *)

module Reference = struct
  (* The pre-plan interpretive joiner: per-extension string-keyed maps,
     dynamic cheapest-atom-next ordering re-probed at every binding
     step.  Kept verbatim (modulo the row sets) as the semantic
     oracle: Plan must agree with it on every query. *)

  module SMap = Map.Make (String)

  (* Join telemetry: bindings are complete assignments reaching the
     head projection. *)
  let obs_bindings = Obs.cached_counter "eval.bindings"

  type slot =
    | Bound of int
    | Unbound of string
    | Impossible  (* the atom mentions a constant absent from the store *)

  let slot_of store bindings = function
    | Qterm.Cst c -> (
      match Rdf.Store.find_term store c with
      | Some code -> Bound code
      | None -> Impossible)
    | Qterm.Var x -> (
      match SMap.find_opt x bindings with
      | Some code -> Bound code
      | None -> Unbound x)

  let slots_of store bindings (a : Atom.t) =
    (slot_of store bindings a.s, slot_of store bindings a.p, slot_of store bindings a.o)

  let pattern_of (s, p, o) =
    let bound = function Bound c -> Some c | Unbound _ | Impossible -> None in
    { Rdf.Store.ps = bound s; pp = bound p; po = bound o }

  let has_impossible (s, p, o) =
    s = Impossible || p = Impossible || o = Impossible

  (* Estimated result count of an atom under the current bindings: used to
     pick the cheapest next atom (most selective first). *)
  let atom_cost store slots =
    if has_impossible slots then 0
    else Rdf.Store.count_matching store (pattern_of slots)

  let extend_bindings bindings slots (ts, tp, to_) =
    let extend acc slot code =
      match acc with
      | None -> None
      | Some bindings -> (
        match slot with
        | Impossible -> None
        | Bound c -> if c = code then Some bindings else None
        | Unbound x -> (
          match SMap.find_opt x bindings with
          | Some c -> if c = code then Some bindings else None
          | None -> Some (SMap.add x code bindings)))
    in
    let (s, p, o) = slots in
    extend (extend (extend (Some bindings) s ts) p tp) o to_

  let eval_bindings ?(bound = []) store (q : Cq.t) emit =
    Obs.incr (obs_evals ());
    let rec go bindings remaining =
      match remaining with
      | [] ->
        Obs.incr (obs_bindings ());
        emit bindings
      | _ ->
        (* dynamic ordering: cheapest atom first *)
        let with_cost =
          List.map
            (fun a ->
              let slots = slots_of store bindings a in
              (a, slots, atom_cost store slots))
            remaining
        in
        let best =
          List.fold_left
            (fun acc item ->
              let _, _, c = item in
              match acc with
              | Some (_, _, cbest) when cbest <= c -> acc
              | Some _ | None -> Some item)
            None with_cost
        in
        (match best with
        | None -> ()
        | Some (atom, slots, _) ->
          if not (has_impossible slots) then begin
            (* lint: allow phys-equal — removes this one occurrence, not its structural duplicates *)
            let rest = List.filter (fun a -> not (a == atom)) remaining in
            Rdf.Store.iter_matching store (pattern_of slots) (fun triple ->
                match extend_bindings bindings slots triple with
                | Some bindings' -> go bindings' rest
                | None -> ())
          end)
    in
    go (List.fold_left (fun env (x, code) -> SMap.add x code env) SMap.empty bound) q.body

  let eval_codes_into ?bound store (q : Cq.t) results =
    let project bindings =
      let code_of = function
        | Qterm.Cst c -> Rdf.Store.encode_term store c
        | Qterm.Var x -> SMap.find x bindings
      in
      Array.of_list (List.map code_of q.head)
    in
    eval_bindings ?bound store q (fun bindings ->
        ignore (Rowset.add results (project bindings)))

  let eval_cq_codes ?bound store q =
    let results = Rowset.create 64 in
    eval_codes_into ?bound store q results;
    Rowset.elements results

  let eval_ucq_codes store u =
    let results = Rowset.create 64 in
    List.iter (fun q -> eval_codes_into store q results) (Ucq.disjuncts u);
    Rowset.elements results

  let eval_cq store q = decode_rows store (eval_cq_codes store q)
  let eval_ucq store u = decode_rows store (eval_ucq_codes store u)
  let count_cq store q = List.length (eval_cq_codes store q)
  let count_ucq store u = List.length (eval_ucq_codes store u)
end

(* ---------- strict-mode differential check ------------------------------- *)

(* The one reader of the variable.  Evaluation reads it per call (tests
   toggle it mid-process; one getenv per evaluated query is noise next
   to the join itself); a search reads it once per run. *)
let strict_enabled () =
  match Sys.getenv_opt "RDFVIEWS_STRICT" with
  | None | Some "" | Some "0" | Some "false" -> false
  | Some _ -> true

exception Differential_mismatch of string

let compare_rows (a : int array) (b : int array) =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length a then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let sorted_rows rows = List.sort compare_rows rows

let check_codes name compiled reference =
  let c = sorted_rows compiled and r = sorted_rows reference in
  if not (List.equal Rowset.Key.equal c r) then
    raise
      (Differential_mismatch
         (Printf.sprintf
            "Evaluation: compiled plan disagrees with Reference on %s (%d vs %d rows)"
            name (List.length compiled) (List.length reference)))

(* ---------- compiled entry points ---------------------------------------- *)

let eval_cq_rowset store (q : Cq.t) =
  Obs.incr (obs_evals ());
  let plan = Plan.cached store q in
  let rows = Rowset.create (max 64 (Plan.size_hint plan)) in
  Plan.exec_into plan store rows;
  rows

(* A bound evaluation compiles its own plan, the bound variables
   resolved like constants: the codes change from call to call
   (maintenance binds each update's terms), so caching it would only
   grow the cache. *)
let bound_rowset store (q : Cq.t) bound =
  Obs.incr (obs_evals ());
  let rows = Rowset.create 16 in
  Plan.exec_into (Plan.compile ~bound store q) store rows;
  rows

(* Disjuncts accumulate into one shared row table sized from the sum
   of the disjunct plans' last cardinalities (an upper bound when the
   disjuncts overlap, which only lowers the load factor). *)
let ucq_rowset ~cache store u =
  let plans =
    List.map
      (fun q ->
        Obs.incr (obs_evals ());
        if cache then Plan.cached store q else Plan.compile store q)
      (Ucq.disjuncts u)
  in
  let hint = List.fold_left (fun n p -> n + Plan.size_hint p) 0 plans in
  let rows = Rowset.create (max 64 hint) in
  List.iter (fun p -> Plan.exec_into p store rows) plans;
  rows

(* The one answer path: every entry point below reads the distinct
   answer rows of one of these two, checked against Reference in strict
   mode. *)
let cq_rows ?(bound = []) store q =
  let rows =
    if bound = [] then eval_cq_rowset store q else bound_rowset store q bound
  in
  if strict_enabled () then
    check_codes q.Cq.name (Rowset.elements rows)
      (Reference.eval_cq_codes ~bound store q);
  rows

let ucq_rows ~cache store u =
  let rows = ucq_rowset ~cache store u in
  if strict_enabled () then
    check_codes (Ucq.name u) (Rowset.elements rows)
      (Reference.eval_ucq_codes store u);
  rows

let eval_cq_codes ?bound store q = Rowset.elements (cq_rows ?bound store q)

let eval_ucq_codes ?(cache = true) store u =
  Rowset.elements (ucq_rows ~cache store u)

let eval_cq store q = decode_rows store (eval_cq_codes store q)
let eval_ucq store u = decode_rows store (eval_ucq_codes store u)
let count_cq store q = Rowset.cardinal (cq_rows store q)
let count_ucq store u = Rowset.cardinal (ucq_rows ~cache:false store u)
