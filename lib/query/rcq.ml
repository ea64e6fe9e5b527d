type t = {
  cq : Cq.t;
  sets : (string * Rdf.Term.t array) list;
  mutable canon : string;  (* "" = not yet computed, as in Cq *)
  mutable canon_hash : int;
}

let make q sets =
  let body_vars = Cq.body_vars q in
  let names = List.map fst sets in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Rcq.make: a variable restricted twice";
  let q, sets =
    List.fold_left
      (fun (q, acc) (x, members) ->
        if not (List.mem x body_vars) then
          invalid_arg ("Rcq.make: restricted variable not in the body: " ^ x);
        match List.sort_uniq Rdf.Term.compare members with
        | [] -> invalid_arg ("Rcq.make: empty set for " ^ x)
        | [ c ] -> (Cq.subst_var x (Qterm.Cst c) q, acc)
        | members -> (q, (x, Array.of_list members) :: acc))
      (q, []) sets
  in
  let sets = List.sort (fun (a, _) (b, _) -> String.compare a b) sets in
  { cq = q; sets; canon = ""; canon_hash = -1 }

let of_cq q = { cq = q; sets = []; canon = ""; canon_hash = -1 }

let cq t = t.cq
let sets t = t.sets

let expand t =
  let rec go bound = function
    | [] ->
      [ Cq.subst (fun x -> Option.map (fun c -> Qterm.Cst c) (List.assoc_opt x bound)) t.cq ]
    | (x, set) :: rest ->
      List.concat_map (fun c -> go ((x, c) :: bound) rest) (Array.to_list set)
  in
  match t.sets with [] -> [ t.cq ] | sets -> go [] sets

(* A set's tag: its members' self-delimiting keys, in order. *)
let set_key set = String.concat "" (Array.to_list (Array.map Rdf.Term.key set))

let canonical_string t =
  match t.sets with
  | [] -> Cq.canonical_string t.cq
  | sets ->
    if String.length t.canon = 0 then
      t.canon <- Cq.canonical_tagged t.cq (List.map (fun (x, set) -> (x, set_key set)) sets);
    t.canon

let canonical_hash t =
  match t.sets with
  | [] -> Cq.canonical_hash t.cq
  | _ :: _ ->
    if t.canon_hash < 0 then t.canon_hash <- Cq.form_hash (canonical_string t);
    t.canon_hash
