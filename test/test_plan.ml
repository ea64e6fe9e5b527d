(* Compiled query plans (Query.Plan): differential testing against the
   interpretive Reference evaluator on adversarial random queries —
   repeated variables, constants absent from the store, genuine
   cross-products — on both storage backends, plus the plan cache's
   hit/staleness behaviour. *)

open Support

let sort_rows rows = List.sort compare (List.map Array.to_list rows)

let agree store q =
  sort_rows (Query.Evaluation.eval_cq_codes store q)
  = sort_rows (Query.Evaluation.Reference.eval_cq_codes store q)

(* ---------- adversarial CQ generator ------------------------------------- *)

(* Unlike Support.gen_cq (always connected, constants drawn from the
   store's vocabulary), positions here are independent: a tiny variable
   pool forces repeated variables, unconnected atoms force
   cross-products, and a reserved URI exercises the absent-constant
   (impossible-plan) path. *)
let gen_plan_cq =
  let open QCheck.Gen in
  let absent = Query.Qterm.Cst (uri "absent:z") in
  let gen_var = map (fun i -> v (Printf.sprintf "V%d" i)) (int_range 0 3) in
  let gen_subject =
    frequency
      [ (5, gen_var); (3, map (fun t -> Query.Qterm.Cst t) gen_entity); (1, return absent) ]
  in
  let gen_pred =
    frequency
      [
        (1, gen_var);
        (5, map (fun t -> Query.Qterm.Cst t) gen_prop);
        (1, return (Query.Qterm.Cst rdf_type));
        (1, return absent);
      ]
  in
  let gen_obj =
    frequency
      [ (5, gen_var); (3, map (fun t -> Query.Qterm.Cst t) gen_object); (1, return absent) ]
  in
  let gen_atom =
    map3 (fun s p o -> atom s p o) gen_subject gen_pred gen_obj
  in
  let* body = list_size (int_range 1 3) gen_atom in
  let vars =
    List.sort_uniq String.compare (List.concat_map Query.Atom.var_set body)
  in
  let* head =
    if vars = [] then return [ Query.Qterm.Cst (uri "u0") ]
    else
      let* k = int_range 1 (min 2 (List.length vars)) in
      let* shuffled = shuffle_l vars in
      let head = List.map v (List.filteri (fun i _ -> i < k) shuffled) in
      let* with_cst = bool in
      return (if with_cst then head @ [ Query.Qterm.Cst (uri "u1") ] else head)
  in
  return (cq head body)

let arb_plan_cq = QCheck.make ~print:Query.Cq.to_string gen_plan_cq

let gen_plan_ucq =
  let open QCheck.Gen in
  let unary q =
    Query.Cq.make ~name:q.Query.Cq.name
      ~head:[ List.hd q.Query.Cq.head ]
      ~body:q.Query.Cq.body
  in
  map
    (fun qs -> Query.Ucq.make ~name:"u" (List.map unary qs))
    (list_size (int_range 1 3) gen_plan_cq)

let arb_plan_ucq =
  QCheck.make
    ~print:(fun u -> String.concat "\n" (List.map Query.Cq.to_string (Query.Ucq.disjuncts u)))
    gen_plan_ucq

(* ---------- differential properties -------------------------------------- *)

let prop_cq_differential =
  QCheck.Test.make ~name:"compiled CQ evaluation = Reference" ~count:400
    (QCheck.pair arb_backend_store arb_plan_cq)
    (fun (store, q) ->
      agree store q)

let prop_cq_cached_differential =
  QCheck.Test.make ~name:"cached plan stays correct across re-evaluation"
    ~count:200
    (QCheck.pair arb_store arb_plan_cq)
    (fun (store, q) ->
      (* first call compiles, second must reuse the cached plan *)
      agree store q && agree store q)

let prop_ucq_differential =
  QCheck.Test.make ~name:"compiled UCQ evaluation = Reference" ~count:200
    (QCheck.pair arb_backend_store arb_plan_ucq)
    (fun (store, u) ->
      sort_rows (Query.Evaluation.eval_ucq_codes store u)
      = sort_rows (Query.Evaluation.Reference.eval_ucq_codes store u))

let prop_counts_agree =
  QCheck.Test.make ~name:"compiled counts = Reference counts" ~count:200
    (QCheck.pair arb_store arb_plan_cq)
    (fun (store, q) ->
      Rdf.Rowset.cardinal (Query.Evaluation.eval_cq_rowset store q)
      = Query.Evaluation.Reference.count_cq store q)

let prop_mutation_differential =
  QCheck.Test.make
    ~name:"cached plan correct after store mutation (incl. new constants)"
    ~count:200
    (QCheck.triple arb_backend_store arb_plan_cq
       (QCheck.make Support.gen_data_triple))
    (fun (store, q, extra) ->
      let before = agree store q in
      (* growing the store (and possibly its dictionary — [extra] or the
         reserved absent constant may introduce fresh terms) must not
         leave a stale plan behind *)
      ignore (Rdf.Store.add store extra);
      ignore
        (Rdf.Store.add store
           (triple (uri "absent:z") (uri "absent:z") (uri "absent:z")));
      before && agree store q)

(* A plan compiled once with parameter slots gives, for every argument
   vector, the rows Reference gives from the same bound environment.
   The parameters are a random subset of the body's variables in a
   random order; each takes a fixed column of a stored triple, and each
   of three argument vectors draws its own triple, so some vectors hit
   and some clash. *)
let gen_bound_case =
  let open QCheck.Gen in
  let* store = arb_backend_store.QCheck.gen in
  let* q = gen_plan_cq in
  let triples = Rdf.Store.fold_all store List.cons [] in
  let* picks =
    flatten_l
      (List.map (fun x -> map (fun k -> (x, k)) (int_range 0 3)) (Query.Cq.body_vars q))
  in
  let* picks = shuffle_l (List.filter (fun (_, k) -> k < 3) picks) in
  let* drawn = list_repeat 3 (oneofl triples) in
  let args_of (s, p, o) = Array.of_list (List.map (fun (_, k) -> [| s; p; o |].(k)) picks) in
  return (store, q, List.map fst picks, List.map args_of drawn)

let prop_bound_plan =
  QCheck.Test.make ~name:"bound plan = Reference with bound vars" ~count:300
    (QCheck.make
       ~print:(fun (_, q, params, args) ->
         Printf.sprintf "%s with (%s) = %s" (Query.Cq.to_string q)
           (String.concat ", " params)
           (String.concat " | "
              (List.map
                 (fun a -> String.concat ", " (List.map string_of_int (Array.to_list a)))
                 args)))
       gen_bound_case)
    (fun (store, q, params, args) ->
      let plan = Query.Plan.compile ~params store q in
      List.for_all
        (fun args ->
          let rows = Rdf.Rowset.create 16 in
          Query.Plan.exec ~args plan store (fun row -> ignore (Rdf.Rowset.add rows row));
          let bound = List.combine params (Array.to_list args) in
          sort_rows (Rdf.Rowset.elements rows)
          = sort_rows (Query.Evaluation.Reference.eval_cq_codes ~bound store q))
        args)

(* ---------- the executor itself ---------------------------------------- *)

(* [Plan.exec_into] straight into a fresh row set, twice (compile, then
   the cached plan), must give the Reference rows and leave the
   deduplicated cardinality as the plan's size_hint.  Each store also
   runs two fixed shapes: a type chain no generated store satisfies
   (empty result) and two unconnected atoms (a cross product). *)
let prop_executor_reference =
  let empty =
    cq [ v "X" ]
      [
        atom (v "X") (Query.Qterm.Cst rdf_type) (v "Y");
        atom (v "Y") (Query.Qterm.Cst rdf_type) (v "Z");
      ]
  in
  let cross =
    cq [ v "X"; v "Z" ]
      [
        atom (v "X") (v "P") (v "Y");
        atom (v "Z") (Query.Qterm.Cst rdf_type) (v "W");
      ]
  in
  QCheck.Test.make ~name:"executor = Reference (rows and size_hint)"
    ~count:200
    (QCheck.pair arb_store arb_plan_cq)
    (fun (store, q) ->
      let matches q =
        let reference =
          sort_rows (Query.Evaluation.Reference.eval_cq_codes store q)
        in
        let run () =
          let plan = Query.Plan.cached store q in
          let rs = Rdf.Rowset.create 16 in
          Query.Plan.exec_into plan store rs;
          sort_rows (Rdf.Rowset.elements rs) = reference
          && Query.Plan.size_hint plan = List.length reference
        in
        run () && run ()
      in
      matches q && matches empty && matches cross)

(* ---------- the row set ---------------------------------------------------- *)

(* Interleaved [Rowset.add], [add_rows], [mem] and [remove] against
   an array of the rows in row order, which models [remove] exactly:
   the last row moves into the freed index.  Each set draws one width
   from 0 to 9, with codes up to 2^40 from a small pool so that rows
   repeat; batches of up to 40 rows from a 16-row hint force the slot
   array and the packed rows to grow, and removals force backward shifts.
   A row one code wider must raise [Invalid_argument] once the set has
   a width. *)
type rowset_op =
  | Add of int array
  | Add_rows of int array list
  | Remove of int array
  | Mem of int array
  | Misfit

let gen_rowset_ops =
  let open QCheck.Gen in
  let code =
    frequency
      [
        (4, int_range 0 3);
        (1, oneofl [ 1 lsl 20; (1 lsl 31) + 5; 1 lsl 40 ]);
      ]
  in
  let* w = int_range 0 9 in
  let row = array_repeat w code in
  let op =
    frequency
      [
        (3, map (fun r -> Add r) row);
        (2, map (fun rows -> Add_rows rows) (list_size (int_range 0 40) row));
        (3, map (fun r -> Remove r) row);
        (2, map (fun r -> Mem r) row);
        (1, return Misfit);
      ]
  in
  pair (return w) (list_size (int_range 1 60) op)

let print_rowset_ops (w, ops) =
  let row r = "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int r)) ^ "]" in
  String.concat "\n"
    (Printf.sprintf "width %d" w
    :: List.map
         (function
           | Add r -> "add " ^ row r
           | Add_rows rows -> "add_rows " ^ String.concat " " (List.map row rows)
           | Remove r -> "remove " ^ row r
           | Mem r -> "mem " ^ row r
           | Misfit -> "misfit")
         ops)

let prop_rowset_reference =
  QCheck.Test.make ~name:"add/add_rows = reference set" ~count:300
    (QCheck.make ~print:print_rowset_ops gen_rowset_ops)
    (fun (w, ops) ->
      let set = Rdf.Rowset.create 16 in
      let model = ref [||] and fixed = ref false in
      let index r =
        let rec go i =
          if i = Array.length !model then -1 else if !model.(i) = r then i else go (i + 1)
        in
        go 0
      in
      let ref_add r =
        fixed := true;
        index r < 0 && (model := Array.append !model [| Array.copy r |]; true)
      in
      let raises f =
        match f () with _ -> false | exception Invalid_argument _ -> true
      in
      let step = function
        | Add r -> Rdf.Rowset.add set r = ref_add r
        | Add_rows rows ->
          let expected = List.fold_left (fun n r -> if ref_add r then n + 1 else n) 0 rows in
          Rdf.Rowset.add_rows set ~width:w (Array.concat rows) (List.length rows) = expected
        | Remove r ->
          let i = index r in
          if i >= 0 then begin
            let last = Array.length !model - 1 in
            !model.(i) <- !model.(last);
            model := Array.sub !model 0 last
          end;
          Rdf.Rowset.remove set r = (i >= 0)
        | Mem r -> Rdf.Rowset.mem set r = (index r >= 0) && Rdf.Rowset.find set r = index r
        | Misfit ->
          let r = Array.make (w + 1) 0 in
          if !fixed then
            raises (fun () -> Rdf.Rowset.add set r)
            && raises (fun () -> Rdf.Rowset.mem set r)
            && raises (fun () -> Rdf.Rowset.remove set r)
          else (not (Rdf.Rowset.mem set r)) && not (Rdf.Rowset.remove set r)
      in
      List.for_all step ops
      &&
      let rows = Array.to_list !model in
      let data = Rdf.Rowset.data set in
      Rdf.Rowset.cardinal set = List.length rows
      && Rdf.Rowset.elements set = rows
      && Rdf.Rowset.fold (fun r acc -> r :: acc) set [] = List.rev rows
      && List.for_all Fun.id (List.mapi (fun i r -> Array.sub data (w * i) w = r) rows))

(* A row-set probe hashes the row and compares codes in place: [mem],
   [find], adding a present row and removing a row (added back
   straight after, which stays within capacity) allocate nothing. *)
let test_rowset_probes_do_not_allocate () =
  let set = Rdf.Rowset.create 16 in
  let rows = Array.init 400 (fun k -> [| k; k mod 13; 3 * k |]) in
  Array.iteri (fun k row -> if k < 200 then ignore (Rdf.Rowset.add set row : bool)) rows;
  let hits = ref 0 in
  let probes () =
    for i = 0 to 9_999 do
      let row = rows.(i mod 400) in
      if Rdf.Rowset.mem set row then incr hits;
      if Rdf.Rowset.find set row >= 0 then incr hits;
      if i mod 400 < 200 then begin
        if not (Rdf.Rowset.add set row) then incr hits;
        if Rdf.Rowset.remove set row && Rdf.Rowset.add set row then incr hits
      end
    done
  in
  probes ();
  hits := 0;
  let (), allocated = words_allocated probes in
  check_int "every probe of a present row hits" 20_000 !hits;
  check_int "the set is unchanged" 200 (Rdf.Rowset.cardinal set);
  check_bool
    (Printf.sprintf "the probes allocate nothing (saw %d words)" allocated)
    true (allocated = 0)

(* ---------- directed plan tests ------------------------------------------ *)

let small_store () =
  store_of
    [
      triple (uri "e1") (uri "P0") (uri "e2");
      triple (uri "e2") (uri "P0") (uri "e3");
      triple (uri "e1") (uri "P1") (uri "e1");
      triple (uri "e3") rdf_type (uri "C0");
    ]

let test_impossible_constant () =
  let store = small_store () in
  let q =
    cq [ v "X" ] [ atom (v "X") (c "nope:p") (v "Y") ]
  in
  let plan = Query.Plan.cached store q in
  check_bool "impossible" true (Query.Plan.is_impossible plan);
  check_bool "no rows" true (Query.Evaluation.eval_cq_codes store q = [])

let test_impossible_plan_invalidated () =
  let store = small_store () in
  let q = cq [ v "X" ] [ atom (v "X") (c "late:p") (v "Y") ] in
  check_bool "empty before" true (Query.Evaluation.eval_cq_codes store q = []);
  ignore (Rdf.Store.add store (triple (uri "e1") (uri "late:p") (uri "e2")));
  check_int "one row after the constant appears" 1
    (List.length (Query.Evaluation.eval_cq_codes store q));
  check_bool "agrees with reference" true (agree store q)

(* A shape's plan drops a set constant absent from the dictionary; it is
   compiled again once the dictionary grows, so a triple of that
   constant inserted later is answered.  The Barton band property 46 is
   one of the sub-properties of property 1. *)
let test_partial_plan_recompiled () =
  let schema = Workload.Barton.schema () in
  let props = Array.of_list (Workload.Barton.properties ()) in
  let q = cq [ v "X"; v "Y" ] [ atom (v "X") (Query.Qterm.Cst props.(1)) (v "Y") ] in
  let u = Query.Reformulation.reformulate q schema in
  check_int "one shape" 1 (List.length (Query.Ucq.shapes u));
  List.iter
    (fun kind ->
      let name = Rdf.Backend.kind_name kind ^ ": " in
      let store = store_on kind [ triple (uri "e1") props.(51) (uri "e2") ] in
      check_int (name ^ "one row before") 1 (List.length (Query.Evaluation.eval_ucq store u));
      check_bool (name ^ "property 46 absent") true
        (Option.is_none (Rdf.Store.find_term store props.(46)));
      ignore (Rdf.Store.add store (triple (uri "e3") props.(46) (uri "e4")) : bool);
      let after = Query.Evaluation.eval_ucq store u in
      check_bool (name ^ "the new triple answers") true
        (List.exists (Array.for_all2 Rdf.Term.equal [| uri "e3"; uri "e4" |]) after);
      check_bool (name ^ "as Reference on the saturation") true
        (same_answers after
           (Query.Evaluation.Reference.eval_cq (Rdf.Entailment.saturated_copy store schema) q)))
    [ Rdf.Backend.Hash; Rdf.Backend.Compact ]

let test_repeated_variable () =
  let store = small_store () in
  (* self-loop: X appears twice in one atom *)
  let q = cq [ v "X" ] [ atom (v "X") (c "P1") (v "X") ] in
  check_int "only the self-loop" 1
    (List.length (Query.Evaluation.eval_cq_codes store q));
  check_bool "agrees with reference" true (agree store q)

let test_cross_product () =
  let store = small_store () in
  let q =
    cq
      [ v "X"; v "Z" ]
      [
        atom (v "X") (c "P0") (v "Y");
        atom (v "Z") (Query.Qterm.Cst rdf_type) (c "C0");
      ]
  in
  check_int "2 x 1 product" 2
    (List.length (Query.Evaluation.eval_cq_codes store q));
  check_bool "agrees with reference" true (agree store q)

let test_exec_wrong_store_raises () =
  let store = small_store () in
  let other = small_store () in
  let q = cq [ v "X" ] [ atom (v "X") (c "P0") (v "Y") ] in
  let plan = Query.Plan.cached store q in
  check_bool "raises on foreign store" true
    (try
       Query.Plan.exec plan other (fun _ -> ());
       false
     with Invalid_argument _ -> true)

(* ---------- plan cache --------------------------------------------------- *)

let with_registry f =
  let reg = Obs.create () in
  Obs.set_global reg;
  Fun.protect ~finally:(fun () -> Obs.set_global Obs.disabled) (fun () -> f reg)

let counter_value reg name =
  match Obs.find_counter reg name with Some n -> n | None -> 0

let test_cache_hits_on_reuse () =
  with_registry (fun reg ->
      let store = small_store () in
      let q = cq [ v "X" ] [ atom (v "X") (c "P0") (v "Y") ] in
      ignore (Query.Evaluation.eval_cq_codes store q);
      let misses = counter_value reg "eval.plan.cache_misses" in
      check_bool "first evaluation compiles" true (misses >= 1);
      ignore (Query.Evaluation.eval_cq_codes store q);
      check_int "second evaluation does not recompile" misses
        (counter_value reg "eval.plan.cache_misses");
      check_bool "and hits the cache" true
        (counter_value reg "eval.plan.cache_hits" >= 1);
      check_int "one plan cached" 1 (Query.Plan.cached_plan_count store))

let test_isomorphic_queries_share_plan () =
  let store = small_store () in
  let q1 = cq ~name:"a" [ v "X" ] [ atom (v "X") (c "P0") (v "Y") ] in
  let q2 = cq ~name:"b" [ v "U" ] [ atom (v "U") (c "P0") (v "W") ] in
  ignore (Query.Evaluation.eval_cq_codes store q1);
  ignore (Query.Evaluation.eval_cq_codes store q2);
  check_int "isomorphic queries share one plan" 1
    (Query.Plan.cached_plan_count store)

(* The literal "k" and the URI <"k"> share a label; canonical forms
   spell constants by Term.key, so the two queries get
   two forms and two plans, and each its own answer. *)
let test_quoted_uri_own_plan () =
  let store =
    store_of
      (Query.Parser.parse_triples
         "<ex:s1> <ex:p> \"k\" .\n<ex:s2> <ex:p> <\"k\"> .\n")
  in
  match
    Query.Parser.parse_workload
      "qc(?x) :- t(?x, <ex:p>, \"k\").\nqd(?x) :- t(?x, <ex:p>, <\"k\">).\n"
  with
  | [ qc; qd ] ->
    List.iter
      (fun form ->
        check_bool "distinct forms" true (form qc <> form qd))
      [ Query.Cq.canonical_string; Query.Cq.canonical_head_set_string;
        Query.Cq.canonical_body_string ];
    let answers q = List.map Array.to_list (Query.Evaluation.eval_cq store q) in
    check_bool "qc reads s1" true (answers qc = [ [ uri "ex:s1" ] ]);
    check_bool "qd reads s2" true (answers qd = [ [ uri "ex:s2" ] ]);
    check_int "two plans" 2 (Query.Plan.cached_plan_count store)
  | _ -> Alcotest.fail "expected two queries"

(* Statistics read the store's triples, not the answers of queries:
   gathering property distincts probes no index count, compiles no plan
   and caches none, for the first statistics value as for the next. *)
let test_stats_gathering_plans_nothing () =
  with_registry (fun reg ->
      let store = small_store () in
      let prop = uri "P0" in
      let footprint () =
        ( counter_value reg "store.count_probes",
          counter_value reg "eval.plan.cache_misses",
          Query.Plan.cached_plan_count store )
      in
      let before = footprint () in
      List.iter
        (fun _ ->
          let stats = Stats.Statistics.create store in
          ignore (Stats.Statistics.property_distinct stats prop `S);
          ignore (Stats.Statistics.property_distinct stats prop `O))
        [ 1; 2 ];
      check_bool "no probe, and no plan compiled or cached" true
        (footprint () = before))

(* ---------- plan lifetimes ----------------------------------------------- *)

(* A small Barton store and the five satisfiable star queries the
   default spec draws from it. *)
let barton_workload seed =
  let store = Workload.Barton.store ~n_entities:40 ~seed () in
  let queries =
    Workload.Generator.generate_satisfiable store
      { Workload.Generator.default_spec with seed }
  in
  (store, queries)

let evaluate_all store queries =
  List.iter
    (fun q -> ignore (Query.Evaluation.eval_cq_codes store q : int array list))
    queries

(* Plans live on their store: 64 other stores, each compiling a plan of
   its own, leave a live store's plans alone. *)
let test_plans_outlive_other_stores () =
  let store, queries = barton_workload 1 in
  evaluate_all store queries;
  let plans = Query.Plan.cached_plan_count store in
  check_bool "plans cached" true (plans > 0);
  for _ = 1 to 64 do
    let other = small_store () in
    evaluate_all other [ cq [ v "X" ] [ atom (v "X") (c "P0") (v "Y") ] ]
  done;
  check_int "plans kept" plans (Query.Plan.cached_plan_count store)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* A dropped store takes its plans with it: after 20 and after 60
   stores, each answering its own workload and then dropped, the live
   heap is the same up to noise, under 100 words a store. *)
let test_dropped_stores_retain_nothing () =
  let stores first count =
    for seed = first to first + count - 1 do
      let store, queries = barton_workload seed in
      evaluate_all store queries
    done
  in
  stores 100 20;
  let after_20 = live_words () in
  stores 120 40;
  let after_60 = live_words () in
  check_bool
    (Printf.sprintf "live words %d after 20 stores, %d after 60" after_20 after_60)
    true
    (after_60 - after_20 < 4_000)

(* A store's table holds at most [cache_cap] plans: a new form past the
   cap empties it first, so the plans of ever more distinct queries do
   not pile up on a store that lives on. *)
let test_plan_table_bounded () =
  with_registry (fun reg ->
      let store = small_store () in
      let cap = Query.Plan.cache_cap in
      let compile first count =
        for i = first to first + count - 1 do
          let q = cq [ v "X" ] [ atom (v "X") (c "P0") (c (Printf.sprintf "k%06d" i)) ] in
          ignore (Query.Plan.cached store q : Query.Plan.t)
        done
      in
      compile 0 cap;
      let after_cap = live_words () in
      compile cap (2 * cap);
      let after_3cap = live_words () in
      check_bool "at most cap plans" true (Query.Plan.cached_plan_count store <= cap);
      check_int "one clear per cap new forms" 2 (counter_value reg "eval.plan.cache_clears");
      check_bool
        (Printf.sprintf "live words %d after %d queries, %d after %d" after_cap cap
           after_3cap (3 * cap))
        true
        (after_3cap - after_cap < cap))

(* A plan is keyed by its query's canonical form on the store: the
   store holds the plans of the queries it evaluates. *)
let test_evaluation_interns_nothing () =
  let store, queries = barton_workload 200 in
  evaluate_all store queries;
  check_bool "plans cached" true (Query.Plan.cached_plan_count store > 0)

let () =
  Alcotest.run "plan"
    [
      ( "differential",
        [
          to_alcotest prop_cq_differential;
          to_alcotest prop_cq_cached_differential;
          to_alcotest prop_ucq_differential;
          to_alcotest prop_counts_agree;
          to_alcotest prop_mutation_differential;
          to_alcotest prop_executor_reference;
          to_alcotest prop_bound_plan;
        ] );
      ( "rowset",
        [
          to_alcotest prop_rowset_reference;
          Alcotest.test_case "probes allocate nothing" `Quick
            test_rowset_probes_do_not_allocate;
        ] );
      ( "plans",
        [
          Alcotest.test_case "impossible constant" `Quick
            test_impossible_constant;
          Alcotest.test_case "impossible plan invalidated by dict growth"
            `Quick test_impossible_plan_invalidated;
          Alcotest.test_case "plan with a dropped set constant recompiled" `Quick
            test_partial_plan_recompiled;
          Alcotest.test_case "repeated variable in one atom" `Quick
            test_repeated_variable;
          Alcotest.test_case "cross product" `Quick test_cross_product;
          Alcotest.test_case "exec on foreign store raises" `Quick
            test_exec_wrong_store_raises;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits on reuse" `Quick test_cache_hits_on_reuse;
          Alcotest.test_case "the plan table is bounded" `Quick test_plan_table_bounded;
          Alcotest.test_case "isomorphic queries share a plan" `Quick
            test_isomorphic_queries_share_plan;
          Alcotest.test_case "a quoted URI has its own plan" `Quick
            test_quoted_uri_own_plan;
          Alcotest.test_case "stats gathering plans nothing" `Quick
            test_stats_gathering_plans_nothing;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "plans outlive other stores" `Quick
            test_plans_outlive_other_stores;
          Alcotest.test_case "dropped stores retain nothing" `Quick
            test_dropped_stores_retain_nothing;
          Alcotest.test_case "evaluation interns nothing" `Quick
            test_evaluation_interns_nothing;
        ] );
    ]
