type shape = Star | Chain | Cycle | Random_sparse | Random_dense | Mixed

type commonality = High | Low

type spec = {
  shape : shape;
  n_queries : int;
  atoms_per_query : int;
  commonality : commonality;
  seed : int;
}

let default_spec =
  { shape = Star; n_queries = 5; atoms_per_query = 5; commonality = High; seed = 0 }

let shape_name = function
  | Star -> "star"
  | Chain -> "chain"
  | Cycle -> "cycle"
  | Random_sparse -> "random-sparse"
  | Random_dense -> "random-dense"
  | Mixed -> "mixed"

let shape_of_string s =
  match String.lowercase_ascii s with
  | "star" -> Some Star
  | "chain" -> Some Chain
  | "cycle" -> Some Cycle
  | "random-sparse" | "sparse" -> Some Random_sparse
  | "random-dense" | "dense" -> Some Random_dense
  | "mixed" -> Some Mixed
  | _ -> None

let commonality_name = function High -> "high" | Low -> "low"

let var x = Query.Qterm.Var x
let cst_uri u = Query.Qterm.Cst (Rdf.Term.Uri u)

(* Pool sizes steer commonality: small pools make queries share
   properties and constants, creating fusion opportunities. *)
let pools spec =
  let total = spec.n_queries * spec.atoms_per_query in
  match spec.commonality with
  | High ->
    let n_props = max 3 (spec.atoms_per_query / 2) in
    let n_csts = max 2 (spec.atoms_per_query / 2) in
    (n_props, n_csts)
  | Low -> (max 8 (total / 2), max 8 (total / 2))

let pick rng pool_size prefix =
  cst_uri (Printf.sprintf "ex:%s%d" prefix (Random.State.int rng pool_size))

(* Star: all atoms share the subject variable; the state graph is a
   clique. *)
let make_star rng spec qi =
  let n_props, n_csts = pools spec in
  let subject = var (Printf.sprintf "X%d_0" qi) in
  let seen = Hashtbl.create 16 in
  let rec atom i attempts =
    let prop = pick rng n_props "p" in
    let obj =
      if Random.State.float rng 1.0 < 0.5 then pick rng n_csts "c"
      else var (Printf.sprintf "X%d_%d" qi (i + 1))
    in
    let a = Query.Atom.make subject prop obj in
    if Hashtbl.mem seen a && attempts < 20 then atom i (attempts + 1)
    else begin
      Hashtbl.replace seen a ();
      a
    end
  in
  let body = List.init spec.atoms_per_query (fun i -> atom i 0) in
  (subject, body)

(* Chain: object of atom i is the subject of atom i+1. *)
let make_chain rng spec qi ~close =
  let n_props, n_csts = pools spec in
  let v i = var (Printf.sprintf "X%d_%d" qi i) in
  let n = spec.atoms_per_query in
  let body =
    List.init n (fun i ->
        let subject = v i in
        let prop = pick rng n_props "p" in
        let obj =
          if close && i = n - 1 then v 0
          else if (not close) && i = n - 1 && Random.State.float rng 1.0 < 0.7
          then pick rng n_csts "c"
          else v (i + 1)
        in
        Query.Atom.make subject prop obj)
  in
  (v 0, body)

(* Random graph: distinct endpoint variables unified along the edges of a
   random connected graph over the atoms. *)
let make_random rng spec qi ~density =
  let n_props, n_csts = pools spec in
  let n = spec.atoms_per_query in
  (* union-find over slot names *)
  let parent = Hashtbl.create 32 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when p <> x ->
      let root = find p in
      Hashtbl.replace parent x root;
      root
    | _ -> x
  in
  let union a b = Hashtbl.replace parent (find a) (find b) in
  let slot i pos = Printf.sprintf "X%d_%d%s" qi i pos in
  let endpoints i = [ slot i "s"; slot i "o" ] in
  let connect i j =
    let si = List.nth (endpoints i) (Random.State.int rng 2) in
    let sj = List.nth (endpoints j) (Random.State.int rng 2) in
    union si sj
  in
  for i = 1 to n - 1 do
    connect i (Random.State.int rng i)
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float rng 1.0 < density then connect i j
    done
  done;
  (* objects left in singleton classes may become constants *)
  let unified = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    List.iter (fun s -> Hashtbl.replace unified (find s) (1 + Option.value (Hashtbl.find_opt unified (find s)) ~default:0)) (endpoints i)
  done;
  let body =
    List.init n (fun i ->
        let subject = var (find (slot i "s")) in
        let prop = pick rng n_props "p" in
        let oroot = find (slot i "o") in
        let obj =
          if
            Option.value (Hashtbl.find_opt unified oroot) ~default:1 <= 1
            && Random.State.float rng 1.0 < 0.5
          then pick rng n_csts "c"
          else var oroot
        in
        Query.Atom.make subject prop obj)
  in
  (var (find (slot 0 "s")), body)

let shape_for spec qi =
  match spec.shape with
  | Mixed -> (
    match qi mod 5 with
    | 0 -> Star
    | 1 -> Chain
    | 2 -> Cycle
    | 3 -> Random_sparse
    | _ -> Random_dense)
  | s -> s

let build_body rng spec qi =
  match shape_for spec qi with
  | Star -> make_star rng spec qi
  | Chain -> make_chain rng spec qi ~close:false
  | Cycle -> make_chain rng spec qi ~close:true
  | Random_sparse -> make_random rng spec qi ~density:0.15
  | Random_dense -> make_random rng spec qi ~density:0.5
  | Mixed -> assert false

let body_vars body =
  List.sort_uniq String.compare (List.concat_map Query.Atom.var_set body)

let ensure_constant rng spec body =
  if List.exists (fun a -> Query.Atom.constant_count a > 0) body then body
  else
    let _, n_csts = pools spec in
    match List.rev body with
    | [] -> body
    | last :: rest ->
      (* replace the object of the last atom, provided its variable
         occurs elsewhere too or the body stays connected *)
      let replaced = Query.Atom.set_at last Query.Atom.O (pick rng n_csts "c") in
      let candidate = List.rev (replaced :: rest) in
      let q = Query.Cq.make ~name:"tmp" ~head:[ List.hd (List.map var (body_vars candidate)) ] ~body:candidate in
      if Query.State_graph.is_connected q then candidate else body

let head_of rng anchor body =
  let vars = body_vars body in
  let anchor_name = Option.get (Query.Qterm.var_name anchor) in
  let anchor_name =
    if List.mem anchor_name vars then anchor_name else List.hd vars
  in
  let others = List.filter (fun v -> v <> anchor_name) vars in
  let extra =
    match others with
    | [] -> []
    | _ -> [ List.nth others (Random.State.int rng (List.length others)) ]
  in
  List.map var (anchor_name :: extra)

(* High commonality: some queries re-use the leading atoms of a shared
   template (same constants and shape, query-local variables). *)
let rebase_vars qi atoms =
  let mapping = Hashtbl.create 16 in
  List.map
    (fun a ->
      Query.Atom.subst
        (fun x ->
          let name =
            match Hashtbl.find_opt mapping x with
            | Some n -> n
            | None ->
              let n = Printf.sprintf "X%d_t%d" qi (Hashtbl.length mapping) in
              Hashtbl.add mapping x n;
              n
          in
          Some (Query.Qterm.Var name))
        a)
    atoms

let generate spec =
  let rng = Random.State.make [| spec.seed; 77 |] in
  let template = ref None in
  List.init spec.n_queries (fun qi ->
      let anchor, body = build_body rng spec qi in
      let body =
        match (spec.commonality, !template) with
        | High, Some shared when Random.State.float rng 1.0 < 0.5 ->
          let k = max 1 (spec.atoms_per_query / 2) in
          let prefix = rebase_vars qi (List.filteri (fun i _ -> i < k) shared) in
          (* keep the query connected: bridge the template prefix to the
             rest through the anchor variable *)
          let bridge =
            match (prefix, body) with
            | p0 :: _, _ -> (
              match Query.Atom.var_set p0 with
              | pv :: _ ->
                List.map
                  (fun a ->
                    match Query.Qterm.var_name anchor with
                    | Some ax -> Query.Atom.rename_var ax pv a
                    | None -> a)
                  body
              | [] -> body)
            | [], _ -> body
          in
          let merged = prefix @ List.filteri (fun i _ -> i >= List.length prefix) bridge in
          let q = Query.Cq.make ~name:"tmp" ~head:[List.hd (List.map var (body_vars merged))] ~body:merged in
          if Query.State_graph.is_connected q then merged else body
        | _ -> body
      in
      if !template = None then template := Some body;
      let body = ensure_constant rng spec body in
      let anchor =
        let vars = body_vars body in
        match Query.Qterm.var_name anchor with
        | Some a when List.mem a vars -> var a
        | _ -> var (List.hd vars)
      in
      let head = head_of rng anchor body in
      Query.Cq.make ~name:(Printf.sprintf "q%d" (qi + 1)) ~head ~body)

(* ---------- data-backed generation ------------------------------------- *)

let random_element rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

(* The distinct subject codes in ascending order, so the workload does
   not depend on a backend's enumeration order. *)
let subject_codes store =
  Rdf.Store.fold_all store (fun (s, _, _) acc -> s :: acc) []
  |> List.sort_uniq Int.compare

let star_from_data ?subject rng store subjects spec qi =
  let chosen_subject =
    match subject with Some s -> Some s | None -> random_element rng subjects
  in
  match chosen_subject with
  | None -> None
  | Some s ->
    let triples = Rdf.Store.matching store { Rdf.Store.ps = Some s; pp = None; po = None } in
    let n = min spec.atoms_per_query (List.length triples) in
    if n = 0 then None
    else begin
      let chosen = List.filteri (fun i _ -> i < n) triples in
      let subject = var (Printf.sprintf "X%d_0" qi) in
      let body =
        List.mapi
          (fun i (_, p, o) ->
            let prop_term = Rdf.Store.decode_term store p in
            let prop = Query.Qterm.Cst prop_term in
            (* class positions stay bound: a variable there triggers
               reformulation rule 5 over every schema class, which the
               paper's workloads avoid *)
            let keep_constant =
              Rdf.Term.equal prop_term Rdf.Vocabulary.rdf_type
              || Random.State.float rng 1.0 < 0.5
            in
            let obj =
              if keep_constant then Query.Qterm.Cst (Rdf.Store.decode_term store o)
              else var (Printf.sprintf "X%d_%d" qi (i + 1))
            in
            Query.Atom.make subject prop obj)
          chosen
      in
      let body = List.sort_uniq Query.Atom.compare body in
      Some (s, subject, body)
    end

let chain_from_data ?subject rng store subjects spec qi =
  let chosen =
    match subject with Some s -> Some s | None -> random_element rng subjects
  in
  match chosen with
  | None -> None
  | Some start ->
    let v i = var (Printf.sprintf "X%d_%d" qi i) in
    let rec walk node i acc =
      if i >= spec.atoms_per_query then List.rev acc
      else
        let triples =
          Rdf.Store.matching store { Rdf.Store.ps = Some node; pp = None; po = None }
        in
        match random_element rng triples with
        | None -> List.rev acc
        | Some (_, p, o) ->
          let prop_term = Rdf.Store.decode_term store p in
          let prop = Query.Qterm.Cst prop_term in
          let last = i = spec.atoms_per_query - 1 in
          if Rdf.Term.equal prop_term Rdf.Vocabulary.rdf_type then
            (* end the walk on a bound class: class variables trigger
               rule 5 over the whole schema *)
            List.rev
              (Query.Atom.make (v i) prop
                 (Query.Qterm.Cst (Rdf.Store.decode_term store o))
              :: acc)
          else
            let obj =
              if last && Random.State.float rng 1.0 < 0.5 then
                Query.Qterm.Cst (Rdf.Store.decode_term store o)
              else v (i + 1)
            in
            walk o (i + 1) (Query.Atom.make (v i) prop obj :: acc)
    in
    let body = walk start 0 [] in
    if body = [] then None else Some (start, v 0, body)

exception Store_too_small

let generate_satisfiable store spec =
  let rng = Random.State.make [| spec.seed; 771 |] in
  (* commonality: under [High], queries preferentially re-sample around a
     subject already used by an earlier query, so that workloads share
     atom patterns and the search has factorization opportunities *)
  let anchors = ref [] in
  let subjects = subject_codes store in
  let rec attempt qi tries =
    let use_star =
      match shape_for spec qi with
      | Star | Random_dense -> true
      | Chain | Cycle | Random_sparse -> false
      | Mixed -> assert false
    in
    let subject =
      match spec.commonality with
      | High when !anchors <> [] && Random.State.float rng 1.0 < 0.6 ->
        random_element rng !anchors
      | High | Low -> None
    in
    let built =
      if use_star then star_from_data ?subject rng store subjects spec qi
      else chain_from_data ?subject rng store subjects spec qi
    in
    match built with
    | Some (anchor_code, anchor, body) when List.length body >= 1 ->
      anchors := anchor_code :: !anchors;
      let head = head_of rng anchor body in
      Query.Cq.make ~name:(Printf.sprintf "q%d" (qi + 1)) ~head ~body
    | _ when tries < 50 -> attempt qi (tries + 1)
    | _ -> raise Store_too_small
  in
  List.init spec.n_queries (fun qi -> attempt qi 0)

(* Replace constants by direct super-properties / super-classes so that
   answering w.r.t. the schema requires reasoning (the reformulated
   workload Qr grows, Table 3-style).  At most one atom per query is
   lifted: reformulation sizes are multiplicative in the number of
   reformulable atoms, and a single lifted atom already yields the
   Table 3 growth shape.  Satisfiability is preserved modulo entailment:
   the generalized query's answers on the saturated store contain the
   original ones. *)
let generalize schema probability seed queries =
  let rng = Random.State.make [| seed; 90210 |] in
  let generalize_atom (a : Query.Atom.t) =
    let lift_property term =
      match term with
      | Query.Qterm.Cst p when not (Rdf.Term.equal p Rdf.Vocabulary.rdf_type) -> (
        match Rdf.Schema.direct_superproperties schema p with
        | [] -> term
        | supers ->
          Query.Qterm.Cst
            (List.nth supers (Random.State.int rng (List.length supers))))
      | Query.Qterm.Cst _ | Query.Qterm.Var _ -> term
    in
    let lift_class term =
      match term with
      | Query.Qterm.Cst cls -> (
        match Rdf.Schema.direct_superclasses schema cls with
        | [] -> term
        | supers ->
          Query.Qterm.Cst
            (List.nth supers (Random.State.int rng (List.length supers))))
      | Query.Qterm.Var _ -> term
    in
    if Query.Qterm.equal a.Query.Atom.p (Query.Qterm.Cst Rdf.Vocabulary.rdf_type)
    then { a with Query.Atom.o = lift_class a.Query.Atom.o }
    else { a with Query.Atom.p = lift_property a.Query.Atom.p }
  in
  List.map
    (fun (q : Query.Cq.t) ->
      if Random.State.float rng 1.0 >= probability then q
      else
        let target = Random.State.int rng (Query.Cq.atom_count q) in
        (* lift one or two levels: two-level lifts reach mid-tree classes
           whose unfoldings dominate the Qr growth *)
        let lift a =
          let once = generalize_atom a in
          if Random.State.float rng 1.0 < 0.5 then generalize_atom once else once
        in
        Query.Cq.make ~name:q.Query.Cq.name ~head:q.Query.Cq.head
          ~body:
            (List.mapi
               (fun i a -> if i = target then lift a else a)
               q.Query.Cq.body))
    queries
