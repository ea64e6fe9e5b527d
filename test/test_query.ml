open Support

(* ---------- atoms ------------------------------------------------------- *)

let test_atom_accessors () =
  let a = atom (v "X") (c "ex:p") (cl "42") in
  check_bool "term_at S" true (Query.Qterm.equal (Query.Atom.term_at a S) (v "X"));
  check_int "constant count" 2 (Query.Atom.constant_count a);
  check_bool "vars" true (Query.Atom.vars a = [ "X" ]);
  let a' = Query.Atom.set_at a O (v "Y") in
  check_bool "set_at" true (Query.Atom.vars a' = [ "X"; "Y" ])

let test_atom_subst () =
  let a = atom (v "X") (c "ex:p") (v "X") in
  let a' = Query.Atom.subst_var "X" (c "ex:k") a in
  check_int "all occurrences" 3 (Query.Atom.constant_count a');
  let renamed = Query.Atom.rename_var "X" "Z" a in
  check_bool "rename" true (Query.Atom.var_set renamed = [ "Z" ])

let test_atom_shares_var () =
  let a = atom (v "X") (c "ex:p") (v "Y") in
  let b = atom (v "Y") (c "ex:q") (v "Z") in
  let d = atom (v "W") (c "ex:q") (v "U") in
  check_bool "shares" true (Query.Atom.shares_var a b);
  check_bool "disjoint" false (Query.Atom.shares_var a d)

(* ---------- query construction ------------------------------------------ *)

let q1_paper =
  (* the paper's running example q1 *)
  cq ~name:"q1"
    [ v "X"; v "Z" ]
    [
      atom (v "X") (c "ex:hasPainted") (c "ex:starryNight");
      atom (v "X") (c "ex:isParentOf") (v "Y");
      atom (v "Y") (c "ex:hasPainted") (v "Z");
    ]

let test_cq_make_unsafe_head () =
  Alcotest.check_raises "unsafe head"
    (Invalid_argument "Cq.make: unsafe head variable Z") (fun () ->
      ignore (cq [ v "Z" ] [ atom (v "X") (c "ex:p") (v "Y") ]))

let test_cq_make_empty_body () =
  Alcotest.check_raises "empty body" (Invalid_argument "Cq.make: empty body")
    (fun () -> ignore (cq [ v "X" ] []))

let test_cq_accessors () =
  check_int "arity" 2 (Query.Cq.arity q1_paper);
  check_int "atoms" 3 (Query.Cq.atom_count q1_paper);
  check_int "constants" 4 (Query.Cq.constant_count q1_paper);
  check_bool "head vars" true (Query.Cq.head_vars q1_paper = [ "X"; "Z" ]);
  check_bool "existential" true (Query.Cq.existential_vars q1_paper = [ "Y" ]);
  check_bool "connected" true (Query.Cq.is_connected q1_paper)

let test_cq_freshen_preserves_structure () =
  let fresh = Query.Cq.freshen q1_paper in
  check_bool "isomorphic" true
    (Query.Cq.canonical_string fresh = Query.Cq.canonical_string q1_paper);
  check_bool "different vars" true
    (Query.Cq.body_vars fresh <> Query.Cq.body_vars q1_paper)

(* ---------- homomorphisms and containment ------------------------------- *)

let test_containment_basic () =
  let general = cq [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  let specific = cq [ v "X" ] [ atom (v "X") (c "ex:p") (c "ex:k") ] in
  check_bool "specific ⊆ general" true (Query.Cq.contained_in specific general);
  check_bool "general ⊄ specific" false (Query.Cq.contained_in general specific)

let test_equivalence_with_redundant_atom () =
  let minimal = cq [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  let redundant =
    cq [ v "X" ]
      [ atom (v "X") (c "ex:p") (v "Y"); atom (v "X") (c "ex:p") (v "Z") ]
  in
  check_bool "equivalent" true (Query.Cq.equivalent minimal redundant)

let test_not_equivalent_different_constants () =
  let a = cq [ v "X" ] [ atom (v "X") (c "ex:p") (c "ex:k1") ] in
  let b = cq [ v "X" ] [ atom (v "X") (c "ex:p") (c "ex:k2") ] in
  check_bool "different constants" false (Query.Cq.equivalent a b)

let test_head_respected () =
  let a = cq [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  let b = cq [ v "Y" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  check_bool "heads differ" false (Query.Cq.equivalent a b)

let prop_equivalence_reflexive =
  QCheck.Test.make ~name:"equivalence is reflexive (under renaming)" ~count:100
    arb_cq (fun q ->
      let renamed =
        Query.Cq.subst (fun x -> Some (Query.Qterm.Var ("RR_" ^ x))) q
      in
      Query.Cq.equivalent q renamed)

(* ---------- minimization ------------------------------------------------ *)

let test_minimize_removes_redundancy () =
  let redundant =
    cq [ v "X" ]
      [ atom (v "X") (c "ex:p") (v "Y"); atom (v "X") (c "ex:p") (v "Z") ]
  in
  let core = Query.Cq.minimize redundant in
  check_int "one atom left" 1 (Query.Cq.atom_count core);
  check_bool "still equivalent" true (Query.Cq.equivalent core redundant)

let test_minimize_keeps_minimal () =
  let m = Query.Cq.minimize q1_paper in
  check_int "already minimal" 3 (Query.Cq.atom_count m);
  check_bool "is_minimal" true (Query.Cq.is_minimal q1_paper)

let prop_minimize_equivalent_and_idempotent =
  QCheck.Test.make ~name:"minimize: equivalent, idempotent" ~count:100 arb_cq
    (fun q ->
      let m = Query.Cq.minimize q in
      Query.Cq.equivalent q m
      && Query.Cq.atom_count (Query.Cq.minimize m) = Query.Cq.atom_count m)

(* ---------- connectivity ------------------------------------------------ *)

let test_components () =
  let q =
    Query.Cq.make ~name:"q" ~head:[ v "X"; v "A" ]
      ~body:
        [
          atom (v "X") (c "ex:p") (v "Y");
          atom (v "Y") (c "ex:q") (v "Z");
          atom (v "A") (c "ex:p") (v "B");
        ]
  in
  check_int "two components" 2 (List.length (Query.Cq.components q));
  check_bool "not connected" false (Query.Cq.is_connected q)

(* ---------- canonicalization -------------------------------------------- *)

let prop_canonical_invariant_under_renaming =
  QCheck.Test.make ~name:"canonical string invariant under renaming" ~count:200
    QCheck.(
      make
        Gen.(gen_cq >>= fun q -> gen_renaming q >>= fun r -> return (q, r)))
    (fun (q, renamed) ->
      Query.Cq.canonical_string q = Query.Cq.canonical_string renamed)

(* A backtracking body isomorphism: a renaming of b's variables into
   a's, built atom by atom, that maps b's body onto a's as a multiset.
   The oracle for Cq.body_isomorphism, which reads the renaming off the
   canonical labellings instead. *)
let backtracking_isomorphism (a : Query.Cq.t) (b : Query.Cq.t) =
  if List.length a.Query.Cq.body <> List.length b.Query.Cq.body then None
  else
    let targets = Array.of_list a.Query.Cq.body in
    let n = Array.length targets in
    let match_term (fwd, bwd) t2 t1 =
      match (t2, t1) with
      | Query.Qterm.Cst c2, Query.Qterm.Cst c1 when Rdf.Term.equal c2 c1 ->
        Some (fwd, bwd)
      | Query.Qterm.Var x2, Query.Qterm.Var x1 -> (
        match (List.assoc_opt x2 fwd, List.assoc_opt x1 bwd) with
        | Some y1, Some y2 ->
          if String.equal y1 x1 && String.equal y2 x2 then Some (fwd, bwd)
          else None
        | None, None -> Some ((x2, x1) :: fwd, (x1, x2) :: bwd)
        | Some _, None | None, Some _ -> None)
      | Query.Qterm.Cst _, _ | Query.Qterm.Var _, _ -> None
    in
    let match_atom maps (a2 : Query.Atom.t) (a1 : Query.Atom.t) =
      Option.bind (match_term maps a2.s a1.s) (fun maps ->
          Option.bind (match_term maps a2.p a1.p) (fun maps ->
              match_term maps a2.o a1.o))
    in
    let rec search maps used = function
      | [] -> Some (fst maps)
      | a2 :: rest ->
        let rec try_target i =
          if i >= n then None
          else if List.mem i used then try_target (i + 1)
          else
            match match_atom maps a2 targets.(i) with
            | Some maps' -> (
              match search maps' (i :: used) rest with
              | Some _ as found -> found
              | None -> try_target (i + 1))
            | None -> try_target (i + 1)
        in
        try_target 0
    in
    search ([], []) [] b.Query.Cq.body

let gen_colliding_body =
  let open QCheck.Gen in
  let gen_term =
    frequency
      [ (3, map (fun i -> v (Printf.sprintf "X%d" i)) (int_range 0 2));
        (2, map (fun c -> Query.Qterm.Cst c) (oneofl colliding_constants)) ]
  in
  list_size (int_range 1 3) (map3 atom gen_term gen_term gen_term)

(* A pair of bodies: independent, a renamed shuffle of one, or one with
   a constant swapped for another. *)
let gen_body_pair =
  let open QCheck.Gen in
  let* a = gen_colliding_body in
  let qa = cq [] a in
  let* how = int_range 0 2 in
  match how with
  | 0 -> map (fun b -> (qa, cq [] b)) gen_colliding_body
  | 1 ->
    let* renamed = gen_renaming qa in
    map (fun body -> (qa, cq [] body)) (shuffle_l renamed.Query.Cq.body)
  | _ ->
    let* swap = oneofl colliding_constants in
    let replace = function
      | Query.Qterm.Cst _ -> Query.Qterm.Cst swap
      | Query.Qterm.Var _ as t -> t
    in
    let* i = int_range 0 (List.length a - 1) in
    let body =
      List.mapi
        (fun j (at : Query.Atom.t) ->
          if j = i then atom at.s at.p (replace at.o) else at)
        a
    in
    return (qa, cq [] body)

let prop_canonical_body_matches_isomorphism =
  QCheck.Test.make ~name:"canonical body string ⟺ body isomorphism" ~count:500
    (QCheck.make
       ~print:(fun (a, b) -> Query.Cq.to_string a ^ "  vs  " ^ Query.Cq.to_string b)
       gen_body_pair)
    (fun (a, b) ->
      let canon_eq =
        Query.Cq.canonical_body_string a = Query.Cq.canonical_body_string b
      in
      let oracle = Option.is_some (backtracking_isomorphism a b) in
      let renaming_maps_b_onto_a =
        match Query.Cq.body_isomorphism a b with
        | None -> not oracle
        | Some fwd ->
          let renamed =
            Query.Cq.subst
              (fun x -> Option.map (fun y -> v y) (List.assoc_opt x fwd))
              b
          in
          List.sort Query.Atom.compare renamed.Query.Cq.body
          = List.sort Query.Atom.compare a.Query.Cq.body
      in
      canon_eq = oracle && renaming_maps_b_onto_a)

let test_canonical_distinguishes () =
  let a = cq [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  let b = cq [ v "X" ] [ atom (v "X") (c "ex:q") (v "Y") ] in
  check_bool "different properties" true
    (Query.Cq.canonical_string a <> Query.Cq.canonical_string b);
  let h1 = cq [ v "X"; v "Y" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  let h2 = cq [ v "Y"; v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  check_bool "head order" true
    (Query.Cq.canonical_string h1 <> Query.Cq.canonical_string h2)

(* A URI that prints bare, like <V1>, once read as the label of a
   variable: these two were given one canonical form in each head mode
   and one plan, though neither contains the other. *)
let test_canonical_constant_not_variable () =
  let a = cq [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  let b = cq [ c "V1" ] [ atom (c "V1") (c "ex:p") (v "Y") ] in
  check_bool "not equivalent" false (Query.Cq.equivalent a b);
  List.iter
    (fun (mode, form) ->
      check_bool (mode ^ " forms differ") true (form a <> form b))
    [
      ("ordered", Query.Cq.canonical_string);
      ("set", Query.Cq.canonical_head_set_string);
      ("no-head", Query.Cq.canonical_body_string);
    ];
  let store = store_of [ triple (uri "V1") (uri "ex:p") (uri "o") ] in
  ignore (Query.Evaluation.eval_cq_codes store a);
  ignore (Query.Evaluation.eval_cq_codes store b);
  check_int "two plans" 2 (Query.Plan.cached_plan_count store)

let test_canonical_symmetric_case () =
  let make_chain a b cc d =
    cq [ v a ]
      [
        atom (v a) (c "ex:p") (v b);
        atom (v b) (c "ex:p") (v cc);
        atom (v cc) (c "ex:p") (v d);
      ]
  in
  let q1 = make_chain "A" "B" "C" "D" in
  let q2 = make_chain "D" "C" "B" "A" in
  check_bool "isomorphic chains" true
    (Query.Cq.canonical_string q1 = Query.Cq.canonical_string q2)

let test_body_isomorphism_mapping () =
  let a =
    cq [ v "X" ]
      [ atom (v "X") (c "ex:p") (v "Y"); atom (v "Y") (c "ex:q") (c "ex:k") ]
  in
  let b =
    cq [ v "B" ]
      [ atom (v "A") (c "ex:p") (v "B"); atom (v "B") (c "ex:q") (c "ex:k") ]
  in
  match Query.Cq.body_isomorphism a b with
  | None -> Alcotest.fail "expected isomorphism"
  | Some mapping ->
    check_string "A maps to X" "X" (List.assoc "A" mapping);
    check_string "B maps to Y" "Y" (List.assoc "B" mapping)

let test_body_isomorphism_requires_injectivity () =
  let a = cq [ v "X" ] [ atom (v "X") (c "ex:p") (v "X") ] in
  let b = cq [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  check_bool "not isomorphic" true (Query.Cq.body_isomorphism a b = None)

(* ---------- UCQ --------------------------------------------------------- *)

let test_ucq_validation () =
  let a = cq [ v "X" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  let b = cq [ v "X"; v "Y" ] [ atom (v "X") (c "ex:p") (v "Y") ] in
  Alcotest.check_raises "mismatched arity"
    (Invalid_argument "Ucq.make: disjuncts with different arities") (fun () ->
      ignore (Query.Ucq.make ~name:"u" [ a; b ]))

let test_ucq_counts () =
  let a = cq [ v "X" ] [ atom (v "X") (c "ex:p") (c "ex:k") ] in
  let b =
    cq [ v "X" ]
      [ atom (v "X") (c "ex:q") (v "Y"); atom (v "Y") (c "ex:r") (c "ex:m") ]
  in
  let u = Query.Ucq.make ~name:"u" [ a; b ] in
  check_int "atoms" 3 (Query.Ucq.atom_count u);
  check_int "constants" 5 (Query.Ucq.constant_count u)

(* ---------- evaluation -------------------------------------------------- *)

let museum_store =
  store_of
    [
      triple (uri "ex:vanGogh") (uri "ex:hasPainted") (uri "ex:starryNight");
      triple (uri "ex:vanGogh") (uri "ex:isParentOf") (uri "ex:vincentJr");
      triple (uri "ex:vincentJr") (uri "ex:hasPainted") (uri "ex:sunflowers2");
      triple (uri "ex:monet") (uri "ex:hasPainted") (uri "ex:waterLilies");
      triple (uri "ex:monet") (uri "ex:isParentOf") (uri "ex:michel");
    ]

let test_eval_running_example () =
  let answers = Query.Evaluation.eval_cq museum_store q1_paper in
  check_int "one painter family" 1 (List.length answers);
  match answers with
  | [ tuple ] ->
    check_bool "vanGogh" true (Rdf.Term.equal tuple.(0) (uri "ex:vanGogh"));
    check_bool "sunflowers2" true
      (Rdf.Term.equal tuple.(1) (uri "ex:sunflowers2"))
  | _ -> Alcotest.fail "unexpected answers"

let test_eval_empty_on_missing_constant () =
  let q = cq [ v "X" ] [ atom (v "X") (c "ex:unknown") (v "Y") ] in
  check_int "no match" 0 (List.length (Query.Evaluation.eval_cq museum_store q))

let test_eval_constant_head () =
  let q =
    Query.Cq.make ~name:"q"
      ~head:[ v "X"; c "ex:tag" ]
      ~body:[ atom (v "X") (c "ex:isParentOf") (v "Y") ]
  in
  let answers = Query.Evaluation.eval_cq museum_store q in
  check_int "two parents" 2 (List.length answers);
  List.iter
    (fun t -> check_bool "tag col" true (Rdf.Term.equal t.(1) (uri "ex:tag")))
    answers

let test_eval_repeated_var_atom () =
  let s =
    store_of
      [
        triple (uri "a") (uri "p") (uri "a");
        triple (uri "a") (uri "p") (uri "b");
      ]
  in
  let q = cq [ v "X" ] [ atom (v "X") (c "p") (v "X") ] in
  check_int "self loop only" 1 (List.length (Query.Evaluation.eval_cq s q))

let prop_eval_matches_reference =
  QCheck.Test.make ~name:"index evaluation = naive evaluation" ~count:200
    QCheck.(pair arb_store arb_cq)
    (fun (s, q) ->
      same_answers (Query.Evaluation.eval_cq s q) (eval_reference s q))

let prop_eval_ucq_is_union =
  QCheck.Test.make ~name:"UCQ evaluation is the set union" ~count:100
    QCheck.(pair arb_store (pair arb_cq arb_cq))
    (fun (s, (a, b)) ->
      QCheck.assume (Query.Cq.arity a = Query.Cq.arity b);
      let u = Query.Ucq.make ~name:"u" [ a; b ] in
      let union =
        List.sort_uniq compare
          (List.map Array.to_list
             (Query.Evaluation.eval_cq s a @ Query.Evaluation.eval_cq s b))
      in
      let got =
        List.sort_uniq compare
          (List.map Array.to_list (Query.Evaluation.eval_ucq s u))
      in
      union = got)

let prop_eval_codes_consistent =
  QCheck.Test.make ~name:"code-level evaluation decodes to term-level"
    ~count:100
    QCheck.(pair arb_store arb_cq)
    (fun (s, q) ->
      let by_codes =
        List.map
          (Array.map (Rdf.Store.decode_term s))
          (Query.Evaluation.eval_cq_codes s q)
      in
      same_answers by_codes (Query.Evaluation.eval_cq s q))

let () =
  Alcotest.run "query"
    [
      ( "atom",
        [
          Alcotest.test_case "accessors" `Quick test_atom_accessors;
          Alcotest.test_case "substitution" `Quick test_atom_subst;
          Alcotest.test_case "shares_var" `Quick test_atom_shares_var;
        ] );
      ( "cq",
        [
          Alcotest.test_case "unsafe head rejected" `Quick
            test_cq_make_unsafe_head;
          Alcotest.test_case "empty body rejected" `Quick test_cq_make_empty_body;
          Alcotest.test_case "accessors" `Quick test_cq_accessors;
          Alcotest.test_case "freshen" `Quick test_cq_freshen_preserves_structure;
        ] );
      ( "containment",
        [
          Alcotest.test_case "basic containment" `Quick test_containment_basic;
          Alcotest.test_case "redundant atom equivalence" `Quick
            test_equivalence_with_redundant_atom;
          Alcotest.test_case "constants distinguish" `Quick
            test_not_equivalent_different_constants;
          Alcotest.test_case "head respected" `Quick test_head_respected;
          to_alcotest prop_equivalence_reflexive;
        ] );
      ( "minimization",
        [
          Alcotest.test_case "removes redundancy" `Quick
            test_minimize_removes_redundancy;
          Alcotest.test_case "keeps minimal" `Quick test_minimize_keeps_minimal;
          to_alcotest prop_minimize_equivalent_and_idempotent;
        ] );
      ("connectivity", [ Alcotest.test_case "components" `Quick test_components ]);
      ( "canonical",
        [
          to_alcotest prop_canonical_invariant_under_renaming;
          to_alcotest prop_canonical_body_matches_isomorphism;
          Alcotest.test_case "distinguishes" `Quick test_canonical_distinguishes;
          Alcotest.test_case "constant is not a variable" `Quick
            test_canonical_constant_not_variable;
          Alcotest.test_case "symmetric chains" `Quick
            test_canonical_symmetric_case;
          Alcotest.test_case "isomorphism mapping" `Quick
            test_body_isomorphism_mapping;
          Alcotest.test_case "injectivity required" `Quick
            test_body_isomorphism_requires_injectivity;
        ] );
      ( "ucq",
        [
          Alcotest.test_case "arity validation" `Quick test_ucq_validation;
          Alcotest.test_case "counts" `Quick test_ucq_counts;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "running example q1" `Quick
            test_eval_running_example;
          Alcotest.test_case "missing constant" `Quick
            test_eval_empty_on_missing_constant;
          Alcotest.test_case "constant head" `Quick test_eval_constant_head;
          Alcotest.test_case "repeated variable" `Quick
            test_eval_repeated_var_atom;
          to_alcotest prop_eval_matches_reference;
          to_alcotest prop_eval_ucq_is_union;
          to_alcotest prop_eval_codes_consistent;
        ] );
    ]
