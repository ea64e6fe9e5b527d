(* Seeded inputs for the pipeline ledger.

   Everything here is a pure function of the workload seed: the
   Barton-shaped triples, the queries (random walks over the generated
   triples, never over a store's iteration order) and the insert/delete
   stream.  No store is consulted, so every storage backend receives
   identical inputs, and [digest] pins them.

   Query shapes are fixed per workload; the seed picks the data, the
   walks' start entities and the classes and properties the walks meet.
   Walk steps draw from symmetric groups of the synthetic schema (leaf
   classes, the sub-property band, the plain properties), so the work
   per query is alike from one seed to the next. *)

let classes = Array.of_list (Workload.Barton.classes ())
let properties = Array.of_list (Workload.Barton.properties ())
let n_properties = Array.length properties

(* An encoded triple.  [p = type_p] stands for rdf:type and then [o] is a
   class index; otherwise [o >= 0] is an entity and [o < 0] the literal
   [-o - 1]. *)
type triple = { s : int; p : int; o : int }

let type_p = n_properties

(* Leaf classes: no subclasses, never a domain or range target. *)
let first_leaf_class = 19

(* The sub-property band 46..60: each is the child of [p mod 5], and
   each of 0..4 has three children, so lifting a band property to its
   parent always reformulates into exactly four disjuncts. *)
let band_lo = 46
let is_band p = p >= band_lo && p < n_properties

(* Plain properties: no sub-properties. *)
let is_plain p = p >= 5 && p < band_lo

let literal_pool = 40

let entity_term i = Rdf.Term.Uri (Printf.sprintf "barton:entity%d" i)
let literal_term k = Rdf.Term.Literal (Printf.sprintf "value%d" k)

let property_term p =
  if p = type_p then Rdf.Vocabulary.rdf_type else properties.(p)

let object_term t =
  if t.p = type_p then classes.(t.o)
  else if t.o >= 0 then entity_term t.o
  else literal_term (-t.o - 1)

let to_rdf t =
  Rdf.Triple.make (entity_term t.s) (property_term t.p) (object_term t)

let key t = (((t.s lsl 6) lor t.p) lsl 24) lor (t.o + 64)

(* ---------- triples ---------------------------------------------------- *)

(* The Barton generator's distribution: half the links in the
   sub-property band, objects 60% entities and 40% pooled literals. *)
let random_link rng ~entities s =
  let p =
    if Random.State.bool rng then
      band_lo + Random.State.int rng (n_properties - band_lo)
    else Random.State.int rng n_properties
  in
  let o =
    if Random.State.float rng 1.0 < 0.6 then Random.State.int rng entities
    else -1 - Random.State.int rng literal_pool
  in
  { s; p; o }

(* Four entities in five typed with a leaf class, two to seven links
   each; duplicates are dropped, so the array is a set. *)
let triples ~seed ~entities =
  let rng = Random.State.make [| seed; 0x1ed9e |] in
  let seen = Hashtbl.create (entities * 8) in
  let out = ref [] in
  let emit t =
    if not (Hashtbl.mem seen (key t)) then begin
      Hashtbl.replace seen (key t) ();
      out := t :: !out
    end
  in
  for e = 0 to entities - 1 do
    let cls =
      first_leaf_class
      + Random.State.int rng (Array.length classes - first_leaf_class)
    in
    if Random.State.float rng 1.0 > 0.2 then emit { s = e; p = type_p; o = cls };
    for _ = 1 to 2 + Random.State.int rng 6 do
      emit (random_link rng ~entities e)
    done
  done;
  Array.of_list (List.rev !out)

(* ---------- queries ---------------------------------------------------- *)

let var = Query.Qterm.var
let cst_p p = Query.Qterm.Cst (property_term p)

type walk = {
  cls : int;
  b1 : int;
  b2 : int;  (* a band property whose parent differs from [b1]'s *)
  plain : int;
}

(* One walk: a typed start entity with two band links and a plain link,
   one band link leading to an entity with a [b2] link of its own.
   Start entities are drawn until one qualifies; choices among
   qualifying links are uniform.  A walk avoids the classes and
   properties earlier walks took, so every seed gives the same sharing
   structure: atoms are shared within a walk's queries, never across
   walks (unless the data is too small to keep them apart). *)
let walk rng ~entities ~out_edges ~cls_of ~used =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let fresh x = not (List.mem x used) in
  let props keep edges =
    List.sort_uniq Int.compare
      (List.filter_map (fun t -> if keep t.p then Some t.p else None) edges)
  in
  let rec attempt tries =
    let strict = tries < 50_000 in
    let ok x = (not strict) || fresh x in
    let e = Random.State.int rng entities in
    let edges = out_edges.(e) in
    let band = props (fun p -> is_band p && ok p) edges in
    let plain = props (fun p -> is_plain p && ok p) edges in
    let b1 = match band with [] -> -1 | _ -> pick band in
    let b2s =
      List.filter
        (fun p ->
          p mod 5 <> b1 mod 5
          && List.exists
               (fun t -> t.p = b1 && t.o >= 0 && t.o <> e && List.exists (fun u -> u.p = p) out_edges.(t.o))
               edges)
        band
    in
    let cls = cls_of.(e) in
    if cls < 0 || (not (ok (type_p + 1 + cls))) || b1 < 0 || b2s = [] || plain = [] then
      attempt (tries + 1)
    else { cls; b1; b2 = pick b2s; plain = pick plain }
  in
  attempt 0

(* Three queries per walk — a star, a mixed star and a chain — sharing
   a band atom: high commonality.  Only the star keeps the class atom;
   the others answer hundreds of rows, so their cost varies little with
   the seed.  With a schema, band properties are lifted to their
   parents, so complete answers need RDFS reasoning. *)
let queries_of_walk ?schema g w =
  let band p =
    match schema with
    | None -> cst_p p
    | Some s -> (
      match Rdf.Schema.direct_superproperties s properties.(p) with
      | sup :: _ -> Query.Qterm.Cst sup
      | [] -> cst_p p)
  in
  let x = var "x" in
  let typ = Query.Atom.make x (cst_p type_p) (Query.Qterm.Cst classes.(w.cls)) in
  let q suffix head body =
    Query.Cq.make ~name:(Printf.sprintf "q%d%s" g suffix) ~head ~body
  in
  [
    q "s" [ x; var "y" ]
      [ typ; Query.Atom.make x (band w.b1) (var "y"); Query.Atom.make x (band w.b2) (var "z") ];
    q "m" [ x; var "w" ]
      [ Query.Atom.make x (band w.b1) (var "y"); Query.Atom.make x (cst_p w.plain) (var "w") ];
    q "c" [ x; var "v" ]
      [ Query.Atom.make x (band w.b1) (var "u"); Query.Atom.make (var "u") (band w.b2) (var "v") ];
  ]

let queries ?schema ~seed ~groups ~entities triples =
  let rng = Random.State.make [| seed; 0x9e7a1 |] in
  let out_edges = Array.make entities [] in
  let cls_of = Array.make entities (-1) in
  for i = Array.length triples - 1 downto 0 do
    let t = triples.(i) in
    if t.p = type_p then cls_of.(t.s) <- t.o
    else out_edges.(t.s) <- t :: out_edges.(t.s)
  done;
  (* classes are recorded in [used] past the property codes *)
  let used = ref [] in
  List.concat
    (List.init groups (fun g ->
         let w = walk rng ~entities ~out_edges ~cls_of ~used:!used in
         used := (type_p + 1 + w.cls) :: w.b1 :: w.b2 :: w.plain :: !used;
         queries_of_walk ?schema (g + 1) w))

(* ---------- updates ---------------------------------------------------- *)

type update = Insert of triple | Delete of triple

(* Alternating inserts and deletes.  An insert is a fresh random link,
   absent from the database at that point; a delete removes, with
   probability [base_share], a still-present base triple and otherwise
   a still-present freshly inserted one. *)
let updates ~seed ~entities ~base_share ~n base =
  let rng = Random.State.make [| seed; 0x0bd47e |] in
  let present = Hashtbl.create (Array.length base * 2) in
  Array.iter (fun t -> Hashtbl.replace present (key t) ()) base;
  let fresh = ref [||] and n_fresh = ref 0 in
  let push t =
    if !n_fresh = Array.length !fresh then begin
      let grown = Array.make (max 64 (2 * !n_fresh)) t in
      Array.blit !fresh 0 grown 0 !n_fresh;
      fresh := grown
    end;
    !fresh.(!n_fresh) <- t;
    incr n_fresh
  in
  let take_fresh () =
    let i = Random.State.int rng !n_fresh in
    let t = !fresh.(i) in
    decr n_fresh;
    !fresh.(i) <- !fresh.(!n_fresh);
    t
  in
  let rec insert () =
    let t = random_link rng ~entities (Random.State.int rng entities) in
    if Hashtbl.mem present (key t) then insert ()
    else begin
      Hashtbl.replace present (key t) ();
      push t;
      Insert t
    end
  in
  let rec base_victim () =
    let t = base.(Random.State.int rng (Array.length base)) in
    if Hashtbl.mem present (key t) then t else base_victim ()
  in
  let delete () =
    let t =
      if !n_fresh > 0 && Random.State.float rng 1.0 >= base_share then take_fresh ()
      else base_victim ()
    in
    Hashtbl.remove present (key t);
    Delete t
  in
  Array.init n (fun i -> if i land 1 = 0 then insert () else delete ())

(* ---------- digest ----------------------------------------------------- *)

let digest triples queries updates =
  let b = Buffer.create (1 lsl 20) in
  let add t = Buffer.add_string b (Printf.sprintf "%d %d %d\n" t.s t.p t.o) in
  Array.iter add triples;
  List.iter (fun q -> Buffer.add_string b (Query.Cq.to_string q ^ "\n")) queries;
  Array.iter
    (function
      | Insert t -> Buffer.add_char b '+'; add t
      | Delete t -> Buffer.add_char b '-'; add t)
    updates;
  Digest.to_hex (Digest.string (Buffer.contents b))
