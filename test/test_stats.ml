open Support

let sample_store =
  store_of
    [
      triple (uri "a") (uri "ex:p") (uri "x");
      triple (uri "a") (uri "ex:p") (uri "y");
      triple (uri "b") (uri "ex:p") (uri "x");
      triple (uri "b") (uri "ex:q") (uri "z");
      triple (uri "c") rdf_type (uri "ex:painting");
      triple (uri "d") rdf_type (uri "ex:picture");
    ]

let schema_sub =
  Rdf.Schema.of_statements
    [ Rdf.Schema.Subclass (uri "ex:painting", uri "ex:picture") ]

(* ---------- plain statistics -------------------------------------------- *)

let test_atom_counts_exact () =
  let stats = Stats.Statistics.create sample_store in
  let count a = int_of_float (Stats.Statistics.atom_count stats a) in
  check_int "p atoms" 3 (count (atom (v "S") (c "ex:p") (v "O")));
  check_int "2-constant" 2 (count (atom (c "a") (c "ex:p") (v "O")));
  check_int "all wildcard" 6 (count (atom (v "S") (v "P") (v "O")));
  check_int "absent constant" 0 (count (atom (v "S") (c "ex:zzz") (v "O")))

let test_atom_count_ignores_var_names () =
  let stats = Stats.Statistics.create sample_store in
  let a1 = atom (v "S") (c "ex:p") (v "O") in
  let a2 = atom (v "Foo") (c "ex:p") (v "Bar") in
  check_bool "same count" true
    (Stats.Statistics.atom_count stats a1 = Stats.Statistics.atom_count stats a2);
  check_int "single cache entry" 1 (Stats.Statistics.cache_size stats)

let test_column_distincts () =
  let stats = Stats.Statistics.create sample_store in
  check_bool "s distinct" true (Stats.Statistics.column_distinct stats `S = 4.);
  check_bool "p distinct" true (Stats.Statistics.column_distinct stats `P = 3.)

let test_property_distincts () =
  let stats = Stats.Statistics.create sample_store in
  (match Stats.Statistics.property_distinct stats (uri "ex:p") `S with
  | Some d -> check_bool "distinct s of p" true (d = 2.)
  | None -> Alcotest.fail "expected Some");
  (match Stats.Statistics.property_distinct stats (uri "ex:p") `O with
  | Some d -> check_bool "distinct o of p" true (d = 2.)
  | None -> Alcotest.fail "expected Some");
  check_bool "unknown property" true
    (Stats.Statistics.property_distinct stats (uri "ex:zzz") `S = None)

let test_prewarm () =
  let stats = Stats.Statistics.create sample_store in
  let q =
    cq [ v "X" ]
      [ atom (v "X") (c "ex:p") (v "Y"); atom (v "X") (c "ex:q") (c "z") ]
  in
  Stats.Statistics.prewarm stats [ q ];
  (* atom1: 2 relaxations; atom2: 4 relaxations; minus shared all-var *)
  check_bool "cache populated" true (Stats.Statistics.cache_size stats >= 5)

(* Plain statistics against brute force over the store's own
   interface, on both backends: every count and distinct of a random
   atom and of each of its relaxations, and each column's average term
   size as the mean size of its distinct terms. *)
let gen_atom =
  let open QCheck.Gen in
  let pos g = oneof [ return None; map Option.some g ] in
  map3
    (fun s p o ->
      let term name = function
        | Some t -> Query.Qterm.Cst t
        | None -> v name
      in
      atom (term "S" s) (term "P" p) (term "O" o))
    (pos gen_entity)
    (pos (oneof [ gen_prop; return rdf_type ]))
    (pos gen_object)

let arb_atoms =
  QCheck.make
    ~print:(fun atoms -> String.concat ", " (List.map Query.Atom.to_string atoms))
    QCheck.Gen.(list_size (int_range 1 4) gen_atom)

let all_relaxations (a : Query.Atom.t) =
  List.fold_left
    (fun atoms pos ->
      match Query.Atom.term_at a pos with
      | Query.Qterm.Cst _ ->
        atoms
        @ List.map
            (fun r -> Query.Atom.set_at r pos (v ("_r" ^ Query.Atom.position_name pos)))
            atoms
      | Query.Qterm.Var _ -> atoms)
    [ a ] Query.Atom.positions

let prop_plain_equals_brute_force =
  QCheck.Test.make ~name:"plain statistics = brute force" ~count:100
    QCheck.(pair arb_backend_store arb_atoms)
    (fun (store, atoms) ->
      let stats = Stats.Statistics.create store in
      let triples = Rdf.Store.to_triples store in
      let column col (tr : Rdf.Triple.t) =
        match col with `S -> tr.s | `P -> tr.p | `O -> tr.o
      in
      let count (a : Query.Atom.t) =
        let code = function
          | Query.Qterm.Cst t -> Option.map Option.some (Rdf.Store.find_term store t)
          | Query.Qterm.Var _ -> Some None
        in
        match (code a.s, code a.p, code a.o) with
        | Some ps, Some pp, Some po -> Rdf.Store.count_matching store { ps; pp; po }
        | _ -> 0
      in
      let property_distinct prop col =
        let values =
          List.filter_map
            (fun (tr : Rdf.Triple.t) ->
              if Rdf.Term.equal tr.p prop then Some (column col tr) else None)
            triples
        in
        match List.sort_uniq Rdf.Term.compare values with
        | [] -> None
        | distinct -> Some (float_of_int (List.length distinct))
      in
      let avg_term_size col =
        match List.sort_uniq Rdf.Term.compare (List.map (column col) triples) with
        | [] -> 0.
        | terms ->
          float_of_int (List.fold_left (fun n t -> n + Rdf.Term.size t) 0 terms)
          /. float_of_int (List.length terms)
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun (r : Query.Atom.t) ->
              Stats.Statistics.atom_count stats r = float_of_int (count r)
              &&
              match r.p with
              | Query.Qterm.Cst prop ->
                List.for_all
                  (fun col ->
                    Stats.Statistics.property_distinct stats prop col
                    = property_distinct prop (col :> [ `S | `P | `O ]))
                  [ `S; `O ]
              | Query.Qterm.Var _ -> true)
            (all_relaxations a))
        atoms
      && Stats.Statistics.total_triples stats = float_of_int (Rdf.Store.size store)
      && List.for_all
           (fun col ->
             Stats.Statistics.column_distinct stats col
             = float_of_int (Rdf.Store.distinct_in_column store col)
             && Stats.Statistics.avg_term_size stats col = avg_term_size col)
           [ `S; `P; `O ])

(* ---------- reformulated statistics -------------------------------------- *)

let test_reformulated_counts () =
  let stats =
    Stats.Statistics.create ~mode:(Stats.Statistics.Reformulated schema_sub)
      sample_store
  in
  (* picture instances: explicit d + implicit c *)
  check_bool "implicit typing counted" true
    (Stats.Statistics.atom_count stats (atom (v "S") (Query.Qterm.Cst rdf_type) (c "ex:picture"))
    = 2.);
  check_bool "painting unchanged" true
    (Stats.Statistics.atom_count stats (atom (v "S") (Query.Qterm.Cst rdf_type) (c "ex:painting"))
    = 1.)

(* The saturated copy is the oracle: Reformulated statistics, counted on
   the explicit store, equal Plain statistics on the saturation, to the
   last bit (Theorem 4.2). *)
let same_statistics reform saturated =
  let props = [ uri "P0"; uri "P1"; uri "P2"; rdf_type ] in
  let shapes =
    [
      atom (v "S") (Query.Qterm.Cst rdf_type) (c "C0");
      atom (v "S") (c "P0") (v "O");
      atom (v "S") (c "P1") (c "e3");
      atom (v "S") (v "P") (v "O");
      atom (v "S") (Query.Qterm.Cst rdf_type) (v "O");
    ]
  in
  List.for_all
    (fun a ->
      Stats.Statistics.atom_count reform a
      = Stats.Statistics.atom_count saturated a)
    shapes
  && Stats.Statistics.total_triples reform
     = Stats.Statistics.total_triples saturated
  && List.for_all
       (fun col ->
         Stats.Statistics.column_distinct reform col
         = Stats.Statistics.column_distinct saturated col
         && Stats.Statistics.avg_term_size reform col
            = Stats.Statistics.avg_term_size saturated col)
       [ `S; `P; `O ]
  && List.for_all
       (fun p ->
         List.for_all
           (fun col ->
             Stats.Statistics.property_distinct reform p col
             = Stats.Statistics.property_distinct saturated p col)
           [ `S; `O ])
       props

let prop_reformulated_equals_saturated =
  QCheck.Test.make
    ~name:"post-reformulation statistics = saturated-database statistics"
    ~count:100
    QCheck.(pair arb_backend_store arb_schema)
    (fun (store, schema) ->
      let reform =
        Stats.Statistics.create ~mode:(Stats.Statistics.Reformulated schema) store
      in
      let saturated =
        Stats.Statistics.create (Rdf.Entailment.saturated_copy store schema)
      in
      same_statistics reform saturated)

(* range(p) = C types the objects of p, literals included: the
   saturation has the literal in subject position, and so must the
   subject column's statistics. *)
let test_range_types_literal_subject () =
  let store =
    store_of
      [
        triple (uri "a") (uri "p") (lit "a long literal value");
        triple (uri "b") (uri "q") (uri "x");
      ]
  in
  let schema = Rdf.Schema.of_statements [ Rdf.Schema.Range (uri "p", uri "C") ] in
  let reform =
    Stats.Statistics.create ~mode:(Stats.Statistics.Reformulated schema) store
  in
  let saturated =
    Stats.Statistics.create (Rdf.Entailment.saturated_copy store schema)
  in
  (* subjects a, b and the typed literal *)
  check_bool "literal subject counted" true
    (Stats.Statistics.column_distinct reform `S = 3.);
  check_bool "literal subject weighed" true
    (Stats.Statistics.avg_term_size reform `S
    = Stats.Statistics.avg_term_size saturated `S);
  check_bool "every statistic as on the saturation" true
    (same_statistics reform saturated)

(* Post-reformulation never writes the database: counting adds no
   triple and leaves the store's version alone.  Each count is one-shot,
   so it caches no plan either. *)
let prop_reformulated_leaves_store =
  QCheck.Test.make ~name:"post-reformulation statistics write no triple"
    ~count:50
    QCheck.(triple arb_backend_store arb_schema arb_cq)
    (fun (store, schema, q) ->
      let footprint () =
        ( Rdf.Store.size store,
          Rdf.Store.version store,
          Query.Plan.cached_plan_count store )
      in
      let before = footprint () in
      let stats =
        Stats.Statistics.create ~mode:(Stats.Statistics.Reformulated schema) store
      in
      Stats.Statistics.prewarm stats [ q ];
      footprint () = before)

(* With no rdf:type triple in the store, rdf:type and the class C get
   their codes only when the evaluation of the saturation interns them
   as head constants of the reformulation.  Asked first on a fresh
   statistics value, the typed count and rdf:type's distincts must still
   see the typed subjects: a constant resolved before that evaluation
   would be found absent and count 0. *)
let test_constants_resolved_after_evaluation () =
  let schema = Rdf.Schema.of_statements [ Rdf.Schema.Domain (uri "p", uri "C") ] in
  List.iter
    (fun backend ->
      let store =
        store_on backend
          [
            triple (uri "a") (uri "p") (uri "x");
            triple (uri "b") (uri "p") (uri "y");
            triple (uri "b") (uri "q") (uri "z");
          ]
      in
      let name what = Rdf.Backend.kind_name backend ^ ": " ^ what in
      check_bool (name "rdf:type not yet encoded") true
        (Option.is_none (Rdf.Store.find_term store rdf_type));
      let reform =
        Stats.Statistics.create ~mode:(Stats.Statistics.Reformulated schema) store
      in
      let typed = atom (v "S") (Query.Qterm.Cst rdf_type) (c "C") in
      let count = Stats.Statistics.atom_count reform typed in
      let subjects = Stats.Statistics.property_distinct reform rdf_type `S in
      let objects = Stats.Statistics.property_distinct reform rdf_type `O in
      let saturated =
        Stats.Statistics.create (Rdf.Entailment.saturated_copy store schema)
      in
      check_bool (name "typed count") true (count = 2.);
      check_bool (name "typed count as on the saturation") true
        (count = Stats.Statistics.atom_count saturated typed);
      check_bool (name "typed subjects as on the saturation") true
        (subjects = Stats.Statistics.property_distinct saturated rdf_type `S);
      check_bool (name "typed objects as on the saturation") true
        (objects = Stats.Statistics.property_distinct saturated rdf_type `O))
    [ Rdf.Backend.Hash; Rdf.Backend.Compact ]

(* Every post-reformulation statistic is read off one evaluation of the
   reformulated triple query: [create] evaluates each of its shapes
   once (and under RDFVIEWS_STRICT=1 each disjunct once more, through
   the Reference evaluator), and nothing after it evaluates again.  The
   evaluation caches no plan. *)
let test_saturation_evaluated_once () =
  let schema =
    Rdf.Schema.of_statements
      [
        Rdf.Schema.Subclass (uri "ex:painting", uri "ex:picture");
        Rdf.Schema.Subproperty (uri "ex:q", uri "ex:p");
        Rdf.Schema.Domain (uri "ex:p", uri "ex:painting");
        Rdf.Schema.Range (uri "ex:q", uri "ex:picture");
      ]
  in
  let triple_query =
    cq [ v "S"; v "P"; v "O" ] [ atom (v "S") (v "P") (v "O") ]
  in
  let reformulated = Query.Reformulation.reformulate triple_query schema in
  let disjuncts = Query.Ucq.cardinal reformulated in
  let shapes = List.length (Query.Ucq.shapes reformulated) in
  let workload =
    [
      cq [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y"); atom (v "Y") (c "ex:q") (c "z") ];
      cq [ v "X" ] [ atom (v "X") (Query.Qterm.Cst rdf_type) (c "ex:picture") ];
      cq [ v "X"; v "Y" ] [ atom (v "X") (v "P") (v "Y") ];
    ]
  in
  let footprint () =
    ( Rdf.Store.size sample_store,
      Rdf.Store.version sample_store,
      Query.Plan.cached_plan_count sample_store )
  in
  let before = footprint () in
  let registry = Obs.create () in
  let evals () = Option.value ~default:0 (Obs.find_counter registry "eval.queries") in
  Obs.set_global registry;
  Fun.protect
    ~finally:(fun () -> Obs.set_global Obs.disabled)
    (fun () ->
      let stats =
        Stats.Statistics.create ~mode:(Stats.Statistics.Reformulated schema)
          sample_store
      in
      let evaluation =
        shapes + if Query.Evaluation.strict_enabled () then disjuncts else 0
      in
      check_bool "fewer shapes than disjuncts" true (1 < shapes && shapes < disjuncts);
      Stats.Statistics.prewarm stats workload;
      check_int "one evaluation" evaluation (evals ());
      ignore (Stats.Statistics.atom_count stats (atom (c "b") (v "P") (c "z")) : float);
      ignore (Stats.Statistics.property_distinct stats (uri "ex:zzz") `O : float option);
      ignore (Stats.Statistics.total_triples stats : float);
      Stats.Statistics.prewarm stats workload;
      check_int "no evaluation after it" evaluation (evals ()));
  check_bool "no triple or plan" true (footprint () = before)

(* ---------- cardinality estimation ---------------------------------------- *)

let test_single_atom_exact () =
  let stats = Stats.Statistics.create sample_store in
  let q = cq [ v "X"; v "Y" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  check_bool "1-atom views are exact" true
    (Stats.Cardinality.estimate_cq stats q = 3.)

let test_zero_when_empty () =
  let stats = Stats.Statistics.create sample_store in
  let q =
    cq [ v "X" ]
      [ atom (v "X") (c "ex:nothing") (v "Y"); atom (v "Y") (c "ex:p") (v "Z") ]
  in
  check_bool "empty estimate" true (Stats.Cardinality.estimate_cq stats q = 0.)

let test_join_estimate_reasonable () =
  let stats = Stats.Statistics.create sample_store in
  let q =
    cq [ v "X" ]
      [ atom (v "X") (c "ex:p") (v "Y"); atom (v "X") (c "ex:q") (v "Z") ]
  in
  let est = Stats.Cardinality.estimate_cq stats q in
  (* true answer: a and b each joins; cross product would be 3 ≥ est > 0 *)
  check_bool "positive" true (est > 0.);
  check_bool "below cross product" true (est <= 3. +. 1e-9)

let prop_relaxation_monotone_counts =
  QCheck.Test.make ~name:"atom counts grow under constant relaxation"
    ~count:100
    QCheck.(pair arb_store arb_cq)
    (fun (store, q) ->
      let stats = Stats.Statistics.create store in
      List.for_all
        (fun a ->
          let n = Stats.Statistics.atom_count stats a in
          List.for_all
            (fun pos ->
              match Query.Atom.term_at a pos with
              | Query.Qterm.Cst _ ->
                let relaxed = Query.Atom.set_at a pos (v "_fresh") in
                Stats.Statistics.atom_count stats relaxed >= n
              | Query.Qterm.Var _ -> true)
            Query.Atom.positions)
        q.Query.Cq.body)

let prop_estimate_nonnegative =
  QCheck.Test.make ~name:"estimates are non-negative and finite" ~count:100
    QCheck.(pair arb_store arb_cq)
    (fun (store, q) ->
      let stats = Stats.Statistics.create store in
      let est = Stats.Cardinality.estimate_cq stats q in
      est >= 0. && Float.is_finite est)

let prop_var_distinct_bounded =
  QCheck.Test.make ~name:"var distincts bounded by view cardinality" ~count:100
    QCheck.(pair arb_store arb_cq)
    (fun (store, q) ->
      let stats = Stats.Statistics.create store in
      let card = Stats.Cardinality.estimate_cq stats q in
      let card', distincts =
        Stats.Cardinality.profile stats q (Query.State_graph.occurrences q)
          (Query.Cq.body_vars q)
      in
      Int64.equal (Int64.bits_of_float card) (Int64.bits_of_float card')
      && List.for_all
           (fun (_, d) -> d >= 1. && d <= Float.max card 1. +. 1e-9)
           distincts)

(* The literal "k" and the URI <"k"> print alike; their memo entries
   must not. *)
let test_constant_kinds_apart () =
  let quoted = uri "\"k\"" in
  let store =
    store_of
      [ triple (uri "s1") (uri "ex:p") (lit "k");
        triple (uri "s2") (uri "ex:p") (lit "k");
        triple (uri "s3") (uri "ex:p") quoted;
        triple (uri "s4") quoted (uri "o4");
        triple (uri "s5") quoted (uri "o5") ]
  in
  let stats = Stats.Statistics.create store in
  let count o = Stats.Statistics.atom_count stats (atom (v "X") (c "ex:p") o) in
  check_bool "literal counted" true (count (cl "k") = 2.);
  check_bool "URI counted apart" true (count (Query.Qterm.Cst quoted) = 1.);
  check_bool "no literal property" true
    (Stats.Statistics.property_distinct stats (lit "k") `S = None);
  check_bool "URI property distincts" true
    (Stats.Statistics.property_distinct stats quoted `S = Some 2.)

(* Statistics describe the store as it was at [create], under both
   statistics paths: a triple added afterwards, even before the first
   statistic is read, changes no count. *)
let test_describes_store_at_create () =
  List.iter
    (fun mode ->
      let store = Rdf.Store.copy sample_store in
      let stats = Stats.Statistics.create ~mode store in
      ignore (Rdf.Store.add store (triple (uri "e") (uri "ex:p") (uri "w")) : bool);
      let reference = Stats.Statistics.create ~mode (Rdf.Store.copy sample_store) in
      let p_atom = atom (v "S") (c "ex:p") (v "O") in
      List.iter
        (fun (what, read) ->
          check_bool what true (read stats = read reference))
        [
          ("total", Stats.Statistics.total_triples);
          ("p atoms", fun t -> Stats.Statistics.atom_count t p_atom);
          ("s distinct", fun t -> Stats.Statistics.column_distinct t `S);
          ( "p subjects",
            fun t ->
              Option.value ~default:0.
                (Stats.Statistics.property_distinct t (uri "ex:p") `S) );
        ])
    [ Stats.Statistics.Plain; Stats.Statistics.Reformulated schema_sub ]

let test_estimate_ucq_is_sum_bound () =
  let stats = Stats.Statistics.create sample_store in
  let a = cq [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  let b = cq [ v "X" ] [ atom (v "X") (c "ex:q") (v "Y") ] in
  let u = Query.Ucq.make ~name:"u" [ a; b ] in
  check_bool "sum of branches" true
    (Stats.Cardinality.estimate_ucq stats u
    = Stats.Cardinality.estimate_cq stats a +. Stats.Cardinality.estimate_cq stats b)

let () =
  Alcotest.run "stats"
    [
      ( "statistics",
        [
          Alcotest.test_case "exact atom counts" `Quick test_atom_counts_exact;
          Alcotest.test_case "variable names irrelevant" `Quick
            test_atom_count_ignores_var_names;
          Alcotest.test_case "column distincts" `Quick test_column_distincts;
          Alcotest.test_case "per-property distincts" `Quick
            test_property_distincts;
          Alcotest.test_case "prewarm gathers relaxations" `Quick test_prewarm;
          Alcotest.test_case "constant kinds kept apart" `Quick
            test_constant_kinds_apart;
          Alcotest.test_case "the store as it was at create" `Quick
            test_describes_store_at_create;
          to_alcotest prop_plain_equals_brute_force;
        ] );
      ( "reformulated",
        [
          Alcotest.test_case "implicit triples counted" `Quick
            test_reformulated_counts;
          to_alcotest prop_reformulated_equals_saturated;
          Alcotest.test_case "range-typed literal subject" `Quick
            test_range_types_literal_subject;
          to_alcotest prop_reformulated_leaves_store;
          Alcotest.test_case "constants resolved after the evaluation" `Quick
            test_constants_resolved_after_evaluation;
          Alcotest.test_case "one evaluation per statistics value" `Quick
            test_saturation_evaluated_once;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "single atom exact" `Quick test_single_atom_exact;
          Alcotest.test_case "zero when empty" `Quick test_zero_when_empty;
          Alcotest.test_case "join estimate bounded" `Quick
            test_join_estimate_reasonable;
          Alcotest.test_case "UCQ estimate" `Quick test_estimate_ucq_is_sum_bound;
          to_alcotest prop_relaxation_monotone_counts;
          to_alcotest prop_estimate_nonnegative;
          to_alcotest prop_var_distinct_bounded;
        ] );
    ]
