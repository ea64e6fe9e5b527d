(* The four instance-level rules all have a single premise, so the
   saturation is the union, over the explicit triples e, of closure(e):
   everything e entails on its own, e included.  closure(e) depends on
   the schema alone; [rules] computes it in dictionary codes from
   reflexive closures memoized per class or property code. *)
type rules = {
  store : Store.t;
  schema : Schema.t;
  rdf_type : int;
  supers : (int, int array) Hashtbl.t;   (* class -> superclasses *)
  superps : (int, int array) Hashtbl.t;  (* property -> superproperties *)
  domains : (int, int array) Hashtbl.t;  (* property -> classes of its subjects *)
  ranges : (int, int array) Hashtbl.t;   (* property -> classes of its objects *)
}

let rules store schema =
  (* An rdf:type triple only climbs the class hierarchy: drop the
     statements that would let it climb the property hierarchy. *)
  let from_type = function
    | Schema.Subproperty (p, _) -> Term.equal p Vocabulary.rdf_type
    | _ -> false
  in
  {
    store;
    schema =
      Schema.of_statements
        (List.filter (fun s -> not (from_type s)) (Schema.statements schema));
    rdf_type = Store.encode_term store Vocabulary.rdf_type;
    supers = Hashtbl.create 64;
    superps = Hashtbl.create 64;
    domains = Hashtbl.create 64;
    ranges = Hashtbl.create 64;
  }

let memo table code build =
  match Hashtbl.find_opt table code with
  | Some codes -> codes
  | None ->
    let codes = Array.of_list (List.sort_uniq Int.compare (build ())) in
    Hashtbl.add table code codes;
    codes

(* Schema closures tolerate cycles; the code itself is added to make
   them reflexive. *)
let reflexive r table closure code =
  memo table code (fun () ->
      let term = Store.decode_term r.store code in
      List.map (Store.encode_term r.store) (term :: closure r.schema term))

let supers r c = reflexive r r.supers Schema.superclasses_closure c
let superps r p = reflexive r r.superps Schema.superproperties_closure p

(* The classes a triple with property [p] gives its subject (domains)
   or its object (ranges), through every superproperty but rdf:type. *)
let typing r table classes_of p =
  memo table p (fun () ->
      List.concat_map
        (fun q ->
          if q = r.rdf_type then []
          else
            List.concat_map
              (fun c -> Array.to_list (supers r (Store.encode_term r.store c)))
              (classes_of r.schema (Store.decode_term r.store q)))
        (Array.to_list (superps r p)))

let iter_closure r (s, p, o) f =
  let ty = r.rdf_type in
  if p = ty then Array.iter (fun c -> f (s, ty, c)) (supers r o)
  else begin
    Array.iter
      (fun q ->
        if q = ty then Array.iter (fun c -> f (s, ty, c)) (supers r o)
        else f (s, q, o))
      (superps r p);
    Array.iter (fun c -> f (s, ty, c)) (typing r r.domains Schema.domains_of p);
    Array.iter (fun c -> f (o, ty, c)) (typing r r.ranges Schema.ranges_of p)
  end

(* Adds [closure(e)] to the store; returns the number of triples that
   were absent. *)
let add_closure r e =
  let added = ref 0 in
  iter_closure r e (fun u -> if Store.add_encoded r.store u then incr added);
  !added

let saturate store schema =
  let r = rules store schema in
  let triples = List.rev (Store.fold_all store (fun e acc -> e :: acc) []) in
  List.fold_left (fun added e -> added + add_closure r e) 0 triples

let saturated_copy store schema =
  let fresh = Store.copy store in
  let _ = saturate fresh schema in
  fresh

let entailed_bound ~data_size ~schema_size = data_size * schema_size
