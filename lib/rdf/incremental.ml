type t = {
  schema : Schema.t;
  store : Store.t;
  rules : Entailment.rules;
  rdf_type : int;
  explicit : Flat.Triples.t;  (* probed once per scanned row of a delete *)
}

let create schema store =
  let explicit = Flat.Triples.create () in
  Store.fold_all store
    (fun (s, p, o) () -> ignore (Flat.Triples.add explicit s p o : bool))
    ();
  let _ = Entailment.saturate store schema in
  let rdf_type = Store.encode_term store Vocabulary.rdf_type in
  { schema; store; rules = Entailment.rules store schema; rdf_type; explicit }

let store t = t.store
let schema t = t.schema

let explicit_count t = Flat.Triples.size t.explicit

let implicit_count t = Store.size t.store - explicit_count t

(* Look the terms up without assigning codes: a term the dictionary
   has never seen cannot be in an explicit triple. *)
let find_triple t (tr : Triple.t) =
  let find = Store.find_term t.store in
  match (find tr.Triple.s, find tr.Triple.p, find tr.Triple.o) with
  | Some s, Some p, Some o -> Some (s, p, o)
  | _ -> None

let is_explicit t tr =
  match find_triple t tr with
  | Some (s, p, o) -> Flat.Triples.mem t.explicit s p o
  | None -> false

let insert t (tr : Triple.t) =
  let encode = Store.encode_term t.store in
  let ((s, p, o) as triple) =
    (encode tr.Triple.s, encode tr.Triple.p, encode tr.Triple.o)
  in
  if not (Flat.Triples.add t.explicit s p o) then 0
  else begin
    (* already implicit: the store is saturated, so closure(triple) is
       in it too *)
    if Store.mem_encoded t.store triple then 0
    else Entailment.add_closure t.rules triple
  end

(* Does some explicit triple derive [u]?  Every rule keeps the subject
   except a range rule, which types the object, so only triples with
   [u]'s subject in their subject or object position can.  Support is
   checked against explicit triples only, never against derived ones,
   so a cycle (c1 ⊑ c2 ⊑ c1) cannot keep itself alive. *)
let supported t ((s, p, o) as u) =
  let any (data, n) =
    let rec from i =
      i < n
      && (let s = data.(3 * i) and p = data.((3 * i) + 1) and o = data.((3 * i) + 2) in
          (Flat.Triples.mem t.explicit s p o
          && Entailment.derives t.rules (s, p, o) u)
          || from (i + 1))
    in
    from 0
  in
  if p = t.rdf_type then
    any (Store.scan1 t.store `S s) || any (Store.scan1 t.store `O s)
  else any (Store.scan2 t.store `SO s o)

(* Only closure(triple) can lose support; it leaves the store exactly
   when no remaining explicit triple derives it. *)
let delete t tr =
  match find_triple t tr with
  | Some ((s, p, o) as triple) when Flat.Triples.remove t.explicit s p o ->
    let removed = ref 0 in
    Entailment.iter_closure t.rules triple (fun u ->
        if (not (supported t u)) && Store.remove_encoded t.store u then
          incr removed);
    !removed
  | _ -> 0
