(* Shared helpers and QCheck generators for the test suites. *)

let uri u = Rdf.Term.Uri u
let lit l = Rdf.Term.Literal l
let blank b = Rdf.Term.Blank b

let v x = Query.Qterm.Var x
let c u = Query.Qterm.Cst (Rdf.Term.Uri u)
let cl l = Query.Qterm.Cst (Rdf.Term.Literal l)

let atom s p o = Query.Atom.make s p o

let cq ?(name = "q") head body = Query.Cq.make ~name ~head ~body

let triple s p o = Rdf.Triple.make s p o

let store_of triples = Rdf.Store.of_triples triples

let rdf_type = Rdf.Vocabulary.rdf_type

(* ---------- reference (naive) CQ evaluation ----------------------------- *)

module SMap = Map.Make (String)

(* Cartesian-product evaluation: only for tiny stores and short queries. *)
let eval_reference store (q : Query.Cq.t) =
  let triples = Rdf.Store.to_triples store in
  let unify_term env qt (term : Rdf.Term.t) =
    match qt with
    | Query.Qterm.Cst cst ->
      if Rdf.Term.equal cst term then Some env else None
    | Query.Qterm.Var x -> (
      match SMap.find_opt x env with
      | Some bound -> if Rdf.Term.equal bound term then Some env else None
      | None -> Some (SMap.add x term env))
  in
  let unify_atom env (a : Query.Atom.t) (tr : Rdf.Triple.t) =
    Option.bind (unify_term env a.s tr.Rdf.Triple.s) (fun env ->
        Option.bind (unify_term env a.p tr.Rdf.Triple.p) (fun env ->
            unify_term env a.o tr.Rdf.Triple.o))
  in
  let rec go env = function
    | [] ->
      [
        Array.of_list
          (List.map
             (function
               | Query.Qterm.Cst cst -> cst
               | Query.Qterm.Var x -> SMap.find x env)
             q.Query.Cq.head);
      ]
    | a :: rest ->
      List.concat_map
        (fun tr ->
          match unify_atom env a tr with
          | Some env' -> go env' rest
          | None -> [])
        triples
  in
  List.sort_uniq compare (go SMap.empty q.Query.Cq.body)

let same_answers = Query.Evaluation.same_answers

(* ---------- QCheck generators ------------------------------------------- *)

open QCheck

let gen_uri =
  Gen.map (fun i -> uri (Printf.sprintf "u%d" i)) (Gen.int_range 0 7)

let gen_class = Gen.map (fun i -> uri (Printf.sprintf "C%d" i)) (Gen.int_range 0 4)
let gen_prop = Gen.map (fun i -> uri (Printf.sprintf "P%d" i)) (Gen.int_range 0 4)

let gen_entity =
  Gen.map (fun i -> uri (Printf.sprintf "e%d" i)) (Gen.int_range 0 9)

let gen_object =
  Gen.oneof
    [
      gen_entity;
      Gen.map (fun i -> lit (Printf.sprintf "l%d" i)) (Gen.int_range 0 3);
      gen_class;
    ]

(* Data triples use either a plain property or rdf:type with a class, so
   that schemas have something to entail. *)
let gen_data_triple =
  Gen.oneof
    [
      Gen.map3 (fun s p o -> Rdf.Triple.make s p o) gen_entity gen_prop gen_object;
      Gen.map2 (fun s cls -> Rdf.Triple.make s rdf_type cls) gen_entity gen_class;
    ]

let gen_store =
  Gen.map store_of (Gen.list_size (Gen.int_range 3 30) gen_data_triple)

let arb_store = make ~print:(fun s -> Printf.sprintf "<store:%d triples>" (Rdf.Store.size s)) gen_store

(* A store on a generated backend, flushed into segments on the compact
   one: properties that take it check both storage layouts. *)
let gen_backend = Gen.oneofl [ Rdf.Backend.Hash; Rdf.Backend.Compact ]

let store_on kind triples =
  let st = Rdf.Store.create ~backend:kind () in
  List.iter (fun t -> ignore (Rdf.Store.add st t : bool)) triples;
  Rdf.Store.compact st;
  st

let arb_backend_store =
  make
    ~print:(fun s ->
      Printf.sprintf "<%s store:%d triples>"
        (Rdf.Backend.kind_name (Rdf.Store.backend s))
        (Rdf.Store.size s))
    (Gen.map2 store_on gen_backend
       (Gen.list_size (Gen.int_range 3 30) gen_data_triple))

let gen_statement =
  Gen.oneof
    [
      Gen.map2 (fun a b -> Rdf.Schema.Subclass (a, b)) gen_class gen_class;
      Gen.map2 (fun a b -> Rdf.Schema.Subproperty (a, b)) gen_prop gen_prop;
      Gen.map2 (fun p cls -> Rdf.Schema.Domain (p, cls)) gen_prop gen_class;
      Gen.map2 (fun p cls -> Rdf.Schema.Range (p, cls)) gen_prop gen_class;
    ]

let gen_schema =
  Gen.map Rdf.Schema.of_statements (Gen.list_size (Gen.int_range 0 6) gen_statement)

let arb_schema =
  make
    ~print:Rdf.Schema.to_string
    gen_schema

(* Larger schemas that always hold a class with two parents and a
   sub-class and a sub-property cycle (a self-loop at times), plus up
   to ten random statements. *)
let gen_rich_schema =
  let open Gen in
  let* c1 = gen_class and* c2 = gen_class and* c3 = gen_class in
  let* p1 = gen_prop and* p2 = gen_prop in
  let* extra = list_size (int_range 0 10) gen_statement in
  return
    (Rdf.Schema.of_statements
       ([
          Rdf.Schema.Subclass (c1, c2);
          Rdf.Schema.Subclass (c1, c3);
          Rdf.Schema.Subclass (c3, c1);
          Rdf.Schema.Subproperty (p1, p2);
          Rdf.Schema.Subproperty (p2, p1);
        ]
       @ extra))

let arb_rich_schema =
  make ~print:Rdf.Schema.to_string gen_rich_schema

(* Small connected conjunctive queries.  Atom i ≥ 1 reuses a variable
   from the previous atoms so the query never has a Cartesian product. *)
let gen_cq =
  let open Gen in
  let* n_atoms = int_range 1 3 in
  let var_name i = Printf.sprintf "V%d" i in
  let rec build i vars acc =
    if i >= n_atoms then return (List.rev acc)
    else
      let* anchor =
        if vars = [] then return (var_name 0)
        else oneofl vars
      in
      let fresh = var_name (2 * i + 1) in
      let* kind = int_range 0 3 in
      let* cls = gen_class in
      let* prop = gen_prop in
      let* obj_cst = gen_object in
      let a, new_vars =
        match kind with
        | 0 -> (atom (v anchor) (Query.Qterm.Cst rdf_type) (Query.Qterm.Cst cls), [])
        | 1 -> (atom (v anchor) (Query.Qterm.Cst prop) (v fresh), [ fresh ])
        | 2 -> (atom (v anchor) (Query.Qterm.Cst prop) (Query.Qterm.Cst obj_cst), [])
        | _ -> (atom (v fresh) (Query.Qterm.Cst prop) (v anchor), [ fresh ])
      in
      build (i + 1) (new_vars @ vars) (a :: acc)
  in
  let* body = build 0 [] [] in
  let vars =
    List.sort_uniq String.compare (List.concat_map Query.Atom.var_set body)
  in
  let* head_size = int_range 1 (min 2 (List.length vars)) in
  let head = List.filteri (fun i _ -> i < head_size) vars in
  return (cq (List.map v head) body)

let arb_cq = make ~print:Query.Cq.to_string gen_cq

(* Queries with variables in property or class position exercise
   reformulation rules 5 and 6. *)
let gen_cq_with_schema_vars =
  let open Gen in
  let* base = gen_cq in
  let* flip = bool in
  if not flip then return base
  else
    let body = base.Query.Cq.body in
    let* idx = int_range 0 (List.length body - 1) in
    let target = List.nth body idx in
    let* mode = bool in
    let replaced =
      if mode then Query.Atom.set_at target Query.Atom.P (v "PV")
      else if Query.Qterm.equal target.Query.Atom.p (Query.Qterm.Cst rdf_type)
      then Query.Atom.set_at target Query.Atom.O (v "CV")
      else target
    in
    let body' = List.mapi (fun i a -> if i = idx then replaced else a) body in
    return
      (Query.Cq.make ~name:base.Query.Cq.name ~head:base.Query.Cq.head ~body:body')

let arb_cq_schema_vars = make ~print:Query.Cq.to_string gen_cq_with_schema_vars

(* Random variable renaming of a query, for canonicalization tests. *)
let gen_renaming (q : Query.Cq.t) =
  let open Gen in
  let vars = Query.Cq.body_vars q in
  let* salt = int_range 0 1000 in
  let* shuffled = Gen.shuffle_l vars in
  let mapping = List.combine vars shuffled in
  return
    (Query.Cq.subst
       (fun x ->
         match List.assoc_opt x mapping with
         | Some y -> Some (Query.Qterm.Var (Printf.sprintf "R%d_%s" salt y))
         | None -> None)
       q)

(* Constants whose printed forms collide (the literal "k" and the URIs
   "k" and <"k">), and labels holding the canonical form's own
   separators. *)
let colliding_constants =
  [ lit "k"; uri "\"k\""; uri "k"; blank "k"; uri "<k>"; lit "<k>";
    uri "a,b"; lit "a,b"; uri "c)&t(V0"; lit "c)&t(V0"; uri "V1";
    lit "a\x00b"; uri "a\x00b"; uri "U1:k"; lit "1:k" ]

(* ---------- the text syntax ----------------------------------------------- *)

(* Data text, one triple a line. *)
let triples_text triples = String.concat "\n" (List.map Rdf.Triple.to_string triples)

(* One printed term read back by the parser, in the object position,
   which takes every kind. *)
let read_term text =
  match Query.Parser.parse_triples ("<s> <p> " ^ text ^ " .") with
  | [ tr ] -> tr.Rdf.Triple.o
  | triples -> failwith (Printf.sprintf "read_term: %d triples" (List.length triples))

(* Labels within what the lexer reads: no [>] or double quote, and no
   "->" or ":=" inside a word.  Printed bare, Painting reads as a
   variable, type as rdf:type and _:b-1 as a blank node; k is the URI
   beside the literal "k", b-1 the label of the blank _:b-1, and a-b and
   ex:q1 hold the dash and the colon a word may contain. *)
let gen_label =
  Gen.oneofl [ "Painting"; "type"; "k"; "a-b"; "ex:q1"; "_:b-1"; "b-1" ]

(* Query, view and query-in-rewrite names: the labels that lex as a
   plain word. *)
let gen_name = Gen.oneofl [ "type"; "k"; "a-b"; "ex:q1"; "b-1" ]

let gen_text_uri = Gen.oneof [ Gen.map uri gen_label; Gen.return rdf_type ]

let gen_text_term =
  Gen.oneof [ gen_text_uri; Gen.map lit gen_label; Gen.map blank gen_label ]

let gen_text_triple =
  Gen.map3 Rdf.Triple.make
    (Gen.oneof [ gen_text_uri; Gen.map blank gen_label ])
    gen_text_uri gen_text_term

let gen_text_schema =
  let open Gen in
  let statement =
    map3
      (fun kind a b ->
        match kind with
        | 0 -> Rdf.Schema.Subclass (a, b)
        | 1 -> Rdf.Schema.Subproperty (a, b)
        | 2 -> Rdf.Schema.Domain (a, b)
        | _ -> Rdf.Schema.Range (a, b))
      (int_bound 3) gen_text_uri gen_text_uri
  in
  map Rdf.Schema.of_statements (list_size (int_range 0 6) statement)

(* Safe queries over the labels: any term anywhere, a head of body
   variables and constants. *)
let gen_text_cq =
  let open Gen in
  let constant = map (fun t -> Query.Qterm.Cst t) gen_text_term in
  let qterm = oneof [ map v gen_label; constant ] in
  let* body = list_size (int_range 1 3) (map3 atom qterm qterm qterm) in
  let vars = List.concat_map Query.Atom.var_set body in
  let head_term =
    match vars with
    | [] -> constant
    | _ :: _ -> oneof [ map v (oneofl vars); constant ]
  in
  let* head = list_size (int_range 1 3) head_term in
  let* name = gen_name in
  return (cq ~name head body)

(* Rewritings of any shape over the labels; the parser reads them
   whether or not their columns resolve. *)
let gen_rewriting =
  let open Gen in
  let cond =
    oneof
      [
        map2 (fun c t -> Core.Rewriting.Eq_cst (c, t)) gen_label gen_text_term;
        map2 (fun a b -> Core.Rewriting.Eq_col (a, b)) gen_label gen_label;
      ]
  in
  let pairs = list_size (int_range 0 2) (pair gen_label gen_label) in
  let scan = map (fun n -> Core.Rewriting.Scan n) gen_name in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         if n = 0 then scan
         else
           let sub = self (n - 1) in
           oneof
             [
               scan;
               map2 (fun cs e -> Core.Rewriting.Select (cs, e))
                 (list_size (int_range 0 3) cond) sub;
               map2 (fun cols e -> Core.Rewriting.Project (cols, e))
                 (list_size (int_range 0 3) gen_label) sub;
               map3 (fun cs l r -> Core.Rewriting.Join (cs, l, r)) pairs sub sub;
               map2 (fun m e -> Core.Rewriting.Rename (m, e)) pairs sub;
               map (fun bs -> Core.Rewriting.Union bs) (list_size (int_range 1 3) sub);
             ])

let to_alcotest = QCheck_alcotest.to_alcotest

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub haystack i nn) needle || go (i + 1)) in
  nn = 0 || go 0

(* Words a call allocates: on the minor heap, and directly on the
   major heap, where an array above 256 words goes and where
   [Gc.minor_words] does not look.  The minor heap is emptied first, so
   the promoted words in the window are the window's own; the two
   [Gc.counters] reads, which allocate, sit outside the minor-words
   window, so a call that allocates nothing reads 0. *)
let words_allocated f =
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let x = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (x, int_of_float (minor1 -. minor0 +. (major1 -. promoted1) -. (major0 -. promoted0)))

(* ---------- canonical-form oracle -------------------------------------------- *)

(* The string colour refinement {!Query.Cq} used before its labelling
   moved to ints: colours are strings, a signature is the string of a
   variable's colour and its sorted occurrences, and the least rendered
   string over the individualization leaves is the form.  Its forms are
   spelled differently from the library's, so tests compare which pairs
   of queries get equal forms, never the forms themselves. *)
module Canon_oracle = struct
  open Query
  module SMap = Map.Make (String)

  type head_mode = Ordered | Set | NoHead

  (* A body position as the labelling sees it: a constant, by its key
     (computed once per labelling), or a variable. *)
  type slot = Fixed of string | Free of string

  let slot = function Qterm.Cst c -> Fixed (Rdf.Term.key c) | Qterm.Var x -> Free x

  let slots (a : Atom.t) = [| slot a.s; slot a.p; slot a.o |]

  let position_names = [| "s"; "p"; "o" |]

  (* A constant's colour is its self-delimiting key, which starts with a
     kind tag (U, B or L); a variable's colour starts with 0 or c.  The two
     ranges are disjoint, and no label can run into the next slot. *)
  let slot_color colors = function Fixed k -> k | Free x -> SMap.find x colors

  let refine_colors body vars colors =
    (* each atom's signature, built once per round *)
    let signed =
      List.map
        (fun a ->
          ( a,
            "(" ^ slot_color colors a.(0) ^ "," ^ slot_color colors a.(1) ^ ","
            ^ slot_color colors a.(2) ^ ")" ))
        body
    in
    let signature v =
      let occurrences =
        List.concat_map
          (fun (a, sg) ->
            List.filter_map
              (fun pos ->
                match a.(pos) with
                | Free x when String.equal x v ->
                  Some (position_names.(pos) ^ sg)
                | Free _ | Fixed _ -> None)
              [ 0; 1; 2 ])
          signed
      in
      SMap.find v colors ^ "|" ^ String.concat ";" (List.sort String.compare occurrences)
    in
    let sigs = List.map (fun v -> (v, signature v)) vars in
    let distinct = List.sort_uniq String.compare (List.map snd sigs) in
    let rank s =
      let rec index i = function
        | [] -> assert false
        | x :: rest -> if String.equal x s then i else index (i + 1) rest
      in
      index 0 distinct
    in
    List.fold_left
      (fun acc (v, s) -> SMap.add v (Printf.sprintf "c%03d" (rank s)) acc)
      SMap.empty sigs

  let rec refine_to_fixpoint body vars colors =
    let next = refine_colors body vars colors in
    if SMap.equal String.equal colors next then colors
    else refine_to_fixpoint body vars next

  (* The form of a discrete colouring, and the label ("V<rank>") it gives
     each variable.  A tagged variable's tag follows the form, in label
     order. *)
  let render ~head_mode ~tags ~head ~body colors =
    let var_rank =
      let sorted =
        List.sort
          (fun (_, c1) (_, c2) -> String.compare c1 c2)
          (SMap.bindings colors)
      in
      List.mapi (fun i (v, _) -> (v, Printf.sprintf "V%d" i)) sorted
    in
    let label = function Fixed k -> k | Free x -> List.assoc x var_rank in
    let atom_str a =
      "t(" ^ label a.(0) ^ "," ^ label a.(1) ^ "," ^ label a.(2) ^ ")"
    in
    let body_str = String.concat "&" (List.sort String.compare (List.map atom_str body)) in
    let form =
      match head_mode with
      | Ordered -> "[" ^ String.concat "," (List.map label head) ^ "]<=" ^ body_str
      | Set ->
        "{" ^ String.concat ","
          (List.sort String.compare (List.map label head)) ^ "}<=" ^ body_str
      | NoHead -> body_str
    in
    let form =
      if SMap.is_empty tags then form
      else
        List.fold_left
          (fun acc (v, l) ->
            match SMap.find_opt v tags with
            | Some tag -> acc ^ "|" ^ l ^ "=" ^ tag
            | None -> acc)
          form var_rank
    in
    (form, var_rank)

  (* The canonical form and the labelling that produced it.  A tag joins
     its variable's initial colour (after a [#], which no head tag
     holds), so only equally tagged variables can swap labels. *)
  let labelling ?(tags = SMap.empty) ~head_mode (q : Cq.t) =
    let vars = Cq.body_vars q in
    let head = List.map slot q.head in
    let body = List.map slots q.body in
    let render = render ~head_mode ~tags ~head ~body in
    let initial =
      let head_tags =
        match head_mode with
        | NoHead -> SMap.empty
        | Set ->
          (* heads compared as sets: every head variable gets the same tag *)
          List.fold_left
            (fun acc term ->
              match term with
              | Qterm.Var x -> SMap.add x "H" acc
              | Qterm.Cst _ -> acc)
            SMap.empty q.head
        | Ordered ->
          List.fold_left
            (fun (acc, i) term ->
              match term with
              | Qterm.Var x ->
                let prev = Option.value (SMap.find_opt x acc) ~default:"" in
                (SMap.add x (prev ^ "H" ^ string_of_int i) acc, i + 1)
              | Qterm.Cst _ -> (acc, i + 1))
            (SMap.empty, 0) q.head
          |> fst
      in
      List.fold_left
        (fun acc v ->
          let color = "0" ^ Option.value (SMap.find_opt v head_tags) ~default:"E" in
          let color =
            match SMap.find_opt v tags with Some tag -> color ^ "#" ^ tag | None -> color
          in
          SMap.add v color acc)
        SMap.empty vars
    in
    let discrete colors =
      let values = List.map snd (SMap.bindings colors) in
      List.length (List.sort_uniq String.compare values) = List.length values
    in
    let rec solve colors =
      let colors = refine_to_fixpoint body vars colors in
      if discrete colors then render colors
      else begin
        (* individualize each member of the first ambiguous class, keep the
           lexicographically least outcome: canonical and order-independent *)
        let by_color =
          List.fold_left
            (fun acc (v, c) ->
              SMap.update c
                (function None -> Some [ v ] | Some vs -> Some (v :: vs))
                acc)
            SMap.empty (SMap.bindings colors)
        in
        let _, clash =
          List.find (fun (_, vs) -> List.length vs > 1) (SMap.bindings by_color)
        in
        let candidates =
          List.map
            (fun v -> solve (SMap.add v (SMap.find v colors ^ "!") colors))
            clash
        in
        List.fold_left
          (fun best c -> if String.compare (fst c) (fst best) < 0 then c else best)
          (List.hd candidates) (List.tl candidates)
      end
    in
    if vars = [] then render SMap.empty else solve initial

  let canonical_string q = fst (labelling ~head_mode:Ordered q)

  let canonical_tagged q tags =
    let tags = List.fold_left (fun acc (v, tag) -> SMap.add v tag acc) SMap.empty tags in
    fst (labelling ~tags ~head_mode:Ordered q)

  let canonical_body_string q = fst (labelling ~head_mode:NoHead q)

  let canonical_head_set_string q = fst (labelling ~head_mode:Set q)
end

(* ---------- reformulation oracle ------------------------------------------ *)

(* Algorithm 1 one CQ at a time: a breadth-first search that applies
   each rule of Fig. 2 to each atom and copies the query for every
   constant it substitutes, deduplicating on canonical forms.  The
   library reformulates over shapes ({!Query.Rcq}); its expansion must
   be this list up to variable renaming. *)
module Oracle = struct
  open Query

  let is_type t = Qterm.equal t (Qterm.cst Rdf.Vocabulary.rdf_type)

  (* One backward application of each rule of Fig. 2 on each atom of [q]. *)
  let step schema (q : Cq.t) =
    let replace_atom i g' =
      Cq.make ~name:q.name ~head:q.head
        ~body:(List.mapi (fun j a -> if j = i then g' else a) q.body)
    in
    let on_atom i (g : Atom.t) =
      let rule1 =
        match (g.p, g.o) with
        | p, Qterm.Cst c2 when is_type p ->
          List.map
            (fun c1 -> replace_atom i (Atom.make g.s g.p (Qterm.cst c1)))
            (Rdf.Schema.direct_subclasses schema c2)
        | _, (Qterm.Cst _ | Qterm.Var _) -> []
      in
      let rule2 =
        match g.p with
        | Qterm.Cst p2 ->
          List.map
            (fun p1 -> replace_atom i (Atom.make g.s (Qterm.cst p1) g.o))
            (Rdf.Schema.direct_subproperties schema p2)
        | Qterm.Var _ -> []
      in
      let rule3 =
        match (g.p, g.o) with
        | p, Qterm.Cst c when is_type p ->
          List.map
            (fun prop ->
              replace_atom i
                (Atom.make g.s (Qterm.cst prop) (Qterm.var (Qterm.fresh_var ()))))
            (Rdf.Schema.properties_with_domain schema c)
        | _, (Qterm.Cst _ | Qterm.Var _) -> []
      in
      let rule4 =
        match (g.p, g.o) with
        | p, Qterm.Cst c when is_type p ->
          List.map
            (fun prop ->
              replace_atom i
                (Atom.make (Qterm.var (Qterm.fresh_var ())) (Qterm.cst prop) g.s))
            (Rdf.Schema.properties_with_range schema c)
        | _, (Qterm.Cst _ | Qterm.Var _) -> []
      in
      let rule5 =
        match (g.p, g.o) with
        | p, Qterm.Var x when is_type p ->
          List.map (fun ci -> Cq.subst_var x (Qterm.cst ci) q) (Rdf.Schema.classes schema)
        | _, (Qterm.Cst _ | Qterm.Var _) -> []
      in
      let rule6 =
        match g.p with
        | Qterm.Var x ->
          List.map
            (fun pi -> Cq.subst_var x (Qterm.cst pi) q)
            (Rdf.Schema.properties schema @ [ Rdf.Vocabulary.rdf_type ])
        | Qterm.Cst _ -> []
      in
      List.concat [ rule1; rule2; rule3; rule4; rule5; rule6 ]
    in
    List.concat (List.mapi on_atom q.body)

  (* The disjuncts, the original query first. *)
  let reformulate q schema =
    let seen = Hashtbl.create 64 in
    let output = ref [] in
    let queue = Queue.create () in
    let push q' =
      let key = Cq.canonical_string q' in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        output := q' :: !output;
        Queue.add q' queue
      end
    in
    push q;
    while not (Queue.is_empty queue) do
      let q' = Queue.pop queue in
      List.iter push (step schema q')
    done;
    List.rev !output
end

(* ---------- connectivity oracle ----------------------------------------- *)

(* The shared-variable search [Query.Cq.components] ran before
   {!Query.State_graph} became the one owner of a body's join graph: a
   breadth-first search over atoms, two atoms adjacent when they have a
   variable in common.  It never builds an occurrence table or an edge
   list, so it checks the library's adjacency as well as its search. *)
let components_oracle (body : Query.Atom.t list) =
  let atoms = Array.of_list body in
  let n = Array.length atoms in
  let visited = Array.make n false in
  let shares_var a b =
    List.exists (fun x -> List.mem x (Query.Atom.var_set b)) (Query.Atom.var_set a)
  in
  let adjacent i j = shares_var atoms.(i) atoms.(j) in
  let rec bfs frontier acc =
    match frontier with
    | [] -> acc
    | i :: rest ->
      let fresh = ref [] in
      for j = 0 to n - 1 do
        if (not visited.(j)) && adjacent i j then begin
          visited.(j) <- true;
          fresh := j :: !fresh
        end
      done;
      bfs (!fresh @ rest) (i :: acc)
  in
  let comps = ref [] in
  for i = 0 to n - 1 do
    if not visited.(i) then begin
      visited.(i) <- true;
      let comp = bfs [ i ] [] in
      comps := List.map (fun j -> atoms.(j)) (List.sort Int.compare comp) :: !comps
    end
  done;
  List.rev !comps

(* Bodies of 1-7 atoms over a pool of 1-6 variables, each position a
   variable with probability 3/4: a small pool draws connected bodies,
   parallel edges (two atoms sharing two variables) and a variable
   repeated inside one atom; a large one draws disconnected bodies and
   atoms joined to nothing. *)
let gen_join_graph =
  let open Gen in
  let* n_atoms = int_range 1 7 in
  let* pool = int_range 1 6 in
  let term =
    frequency
      [
        (3, map (fun i -> v (Printf.sprintf "X%d" i)) (int_range 0 (pool - 1)));
        (1, map (fun i -> c (Printf.sprintf "k%d" i)) (int_range 0 2));
      ]
  in
  let* body = list_repeat n_atoms (map3 atom term term term) in
  let head =
    match List.concat_map Query.Atom.vars body with x :: _ -> [ v x ] | [] -> []
  in
  return (cq head body)

let arb_join_graph = make ~print:Query.Cq.to_string gen_join_graph
