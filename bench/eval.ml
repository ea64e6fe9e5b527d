(* Query-evaluation micro-benchmark: compiled plans (Query.Plan) against
   the interpretive Reference evaluator on one fixed-seed Barton store
   and generated workload.

   The two engines must produce identical per-query answer counts (the
   run aborts otherwise); the BENCH json's eval section then records the
   deterministic work counts (queries, answers, bindings, probes) for
   the exact baseline compare, plus bindings/sec and the per-query
   latency percentiles of the cold pass (every repetition on a fresh
   copy of the store, so with no plan cached) for the threshold
   compare.  The warm rate (plans cached) sits beside it in
   [eval_modes]. *)

let reps = match Harness.scale with Harness.Quick -> 30 | Harness.Full -> 200

(* Constant-free chains and stars over the popular property band
   (prop46..prop60 carry half the links): thousands of bindings per
   query, so the per-binding join machinery — not per-query setup —
   dominates the measurement. *)
let heavy_queries =
  let v x = Query.Qterm.Var x in
  let props = Array.of_list (Workload.Barton.properties ()) in
  let p i = Query.Qterm.Cst props.(i) in
  let atom s pr o = Query.Atom.make s pr o in
  let cq name head body = Query.Cq.make ~name ~head ~body in
  [
    cq "chain2" [ v "X"; v "Z" ]
      [ atom (v "X") (p 46) (v "Y"); atom (v "Y") (p 47) (v "Z") ];
    cq "chain3"
      [ v "X"; v "W" ]
      [
        atom (v "X") (p 48) (v "Y");
        atom (v "Y") (p 49) (v "Z");
        atom (v "Z") (p 50) (v "W");
      ];
    cq "star3"
      [ v "A"; v "B"; v "C" ]
      [
        atom (v "X") (p 51) (v "A");
        atom (v "X") (p 52) (v "B");
        atom (v "X") (p 53) (v "C");
      ];
    cq "selfjoin" [ v "X"; v "Y"; v "Z" ]
      [ atom (v "X") (p 54) (v "Y"); atom (v "Z") (p 54) (v "Y") ];
    (* variable-property hops enumerate whole buckets: the all-triples
       scan joined on its object, the evaluator's worst fan-out case *)
    cq "hop2" [ v "X"; v "Z" ]
      [ atom (v "X") (v "P1") (v "Y"); atom (v "Y") (v "P2") (v "Z") ];
    cq "hop3" [ v "X"; v "W" ]
      [
        atom (v "X") (v "P1") (v "Y");
        atom (v "Y") (v "P2") (v "Z");
        atom (v "Z") (v "P3") (v "W");
      ];
    (* a genuine cross-product: every pair of same-class instances *)
    (let c19 = Query.Qterm.Cst (List.nth (Workload.Barton.classes ()) 19) in
     let ty = Query.Qterm.Cst Rdf.Vocabulary.rdf_type in
     cq "typed_pair" [ v "X"; v "Y" ]
       [ atom (v "X") ty c19; atom (v "Y") ty c19 ]);
  ]

(* A mixed-shape generated workload on top: stars stress the join
   ordering, chains the frame-extension fast path.  All satisfiable on
   the store, so every query does real binding work. *)
let workload store =
  heavy_queries
  @ List.concat_map
      (fun (shape, n, atoms, seed) ->
        Workload.Generator.generate_satisfiable store
          (Harness.spec shape n atoms Workload.Generator.High seed))
      [
        (Workload.Generator.Star, 4, 5, 13);
        (Workload.Generator.Chain, 4, 6, 17);
        (Workload.Generator.Mixed, 4, 4, 23);
      ]

(* The passes count into a registry of their own, installed for the
   whole experiment: the binding checks read real counts whatever sink
   is in effect (the disabled one under --no-bench-json, or the one
   registry of --metrics, which the passes must not reset).  The cold
   pass alone is then added to the sink in effect, for the BENCH json's
   eval section. *)
let run () =
  Harness.section "Eval: compiled plans vs the reference evaluator";
  let outer = Obs.global () in
  let reg = Obs.create () in
  Obs.set_global reg;
  Fun.protect ~finally:(fun () -> Obs.set_global outer) @@ fun () ->
  let barton = Lazy.force Harness.barton_store in
  let queries = workload barton in
  (* A copy of a store caches no plan: the gate below compiles every
     query on its own copy, whatever earlier experiments in the same
     process compiled on the shared store. *)
  let fresh_copy () =
    let copy = Rdf.Store.copy barton in
    Rdf.Store.compact copy;
    copy
  in
  let store = fresh_copy () in
  (* correctness gate (and warm-up): identical answer counts per query *)
  let counts evaluate =
    List.map (fun q -> List.length (evaluate store q)) queries
  in
  let compiled_counts = counts Query.Evaluation.eval_cq_codes in
  let reference_counts = counts Query.Evaluation.Reference.eval_cq_codes in
  if not (List.equal Int.equal compiled_counts reference_counts) then
    failwith "eval bench: compiled and reference answer counts differ";
  let bindings_of () =
    Option.value ~default:0 (Obs.find_counter reg "eval.bindings")
  in
  let rate bindings secs =
    if secs > 0. then float_of_int bindings /. secs else 0.
  in
  (* reference pass, then the warm pass (plans compiled by the gate
     above stay cached): both are wiped from the registry afterwards so
     that it holds the cold pass alone *)
  let timed_pass evaluate =
    Obs.reset reg;
    let (), secs =
      Harness.time_once (fun () ->
          for _ = 1 to reps do
            List.iter (fun q -> ignore (evaluate store q)) queries
          done)
    in
    (bindings_of (), secs)
  in
  let ref_bindings, ref_secs =
    timed_pass Query.Evaluation.Reference.eval_cq_codes
  in
  let ref_rate = rate ref_bindings ref_secs in
  let warm_bindings, warm_secs = timed_pass Query.Evaluation.eval_cq_codes in
  let warm_rate = rate warm_bindings warm_secs in
  Obs.reset reg;
  (* cold pass (the headline): every repetition runs on a fresh copy,
     copied and laid out before its timed region and dropped after it,
     so compilation is inside the timed region on every query *)
  let run_hist = Obs.histogram reg "eval.run" in
  let qhist = Obs.histogram reg "eval.query.ns" in
  let answers = Obs.counter reg "eval.answers" in
  for _ = 1 to reps do
    let cold = fresh_copy () in
    Obs.time run_hist (fun () ->
        List.iter
          (fun q ->
            let t0 = Obs.now_ns () in
            let rows = Query.Evaluation.eval_cq_codes cold q in
            Obs.observe qhist (Obs.now_ns () - t0);
            Obs.add answers (List.length rows))
          queries)
  done;
  let bindings = bindings_of () in
  let cold_ns = Obs.histogram_sum run_hist in
  let cold_rate = rate bindings (float_of_int cold_ns /. 1e9) in
  let speedup = if ref_rate > 0. then cold_rate /. ref_rate else 0. in
  Obs.merge_into ~into:outer reg;
  Obs.set_gauge (Obs.gauge outer "eval.reference.bindings_per_sec") ref_rate;
  Obs.set_gauge (Obs.gauge outer "eval.reference.speedup") speedup;
  Harness.add_bench_field "eval_modes"
    (Obs.Json.Obj
       [
         ("cold_bindings_per_sec", Obs.Json.Float cold_rate);
         ("warm_bindings_per_sec", Obs.Json.Float warm_rate);
       ]);
  Harness.print_table
    ~header:
      [
        "queries"; "reps"; "bindings"; "cold b/s"; "warm b/s"; "reference b/s";
        "cold speedup";
      ]
    [
      [
        string_of_int (List.length queries);
        string_of_int reps;
        string_of_int bindings;
        Harness.fmt_float cold_rate;
        Harness.fmt_float warm_rate;
        Harness.fmt_float ref_rate;
        Printf.sprintf "%.1fx" speedup;
      ];
    ];
  (* the number of complete assignments is join-order independent, so
     all three passes must agree on it exactly; under RDFVIEWS_STRICT=1
     each compiled evaluation also runs Reference, whose bindings count
     too *)
  let expected =
    if Query.Evaluation.strict_enabled () then 2 * ref_bindings else ref_bindings
  in
  if ref_bindings = 0 || bindings <> expected || warm_bindings <> expected then
    failwith
      (Printf.sprintf
         "eval bench: binding counts differ (cold %d, warm %d, reference %d)"
         bindings warm_bindings ref_bindings)
