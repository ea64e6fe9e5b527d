(* Exact derivation counts: every rule has one premise, so the explicit
   triples deriving u are those whose closure visits u.  [counts.(r)] is
   two per such visit to the triple at row [r] of [rows], a width-3
   Rowset probed through its own key row, plus 1 (the low bit) if it is
   explicit; the store holds those counted above 0. *)
type t = {
  schema : Schema.t;
  store : Store.t;
  rules : Entailment.rules;
  rows : Rowset.t;
  mutable counts : int array;  (* by row of [rows], grown 2x *)
  mutable explicit : int;  (* counts with the low bit set *)
}

let store t = t.store
let schema t = t.schema
let explicit_count t = t.explicit
let implicit_count t = Store.size t.store - t.explicit

let find t s p o = Rowset.find t.rows (Rowset.key3 t.rows s p o)

let flagged t (s, p, o) =
  let r = find t s p o in
  r >= 0 && t.counts.(r) land 1 = 1

(* Add [d] to the count of [u]; true when [u] is new to the store. *)
let bump t ((s, p, o) as u) d =
  let fresh = Rowset.cardinal t.rows in
  let r = Rowset.find_or_add t.rows (Rowset.key3 t.rows s p o) in
  if r < fresh then t.counts.(r) <- t.counts.(r) + d
  else begin
    let c = t.counts in
    if r = Array.length c then t.counts <- Array.append c c;
    t.counts.(r) <- d
  end;
  r = fresh && Store.add_encoded t.store u

(* Subtract [d] from the count of [u]; at 0, [u] leaves the store and
   [rows], whose last row moves into its place. *)
let drop t ((s, p, o) as u) d =
  let r = find t s p o in
  t.counts.(r) <- t.counts.(r) - d;
  t.counts.(r) = 0
  && begin
    t.counts.(r) <- t.counts.(Rowset.remove_row t.rows r);
    Store.remove_encoded t.store u
  end

(* [iter_closure] may visit a triple twice: insertion and deletion both
   count every visit, so they stay symmetric.  Returns the store writes. *)
let over_closure t e update =
  let writes = ref 0 in
  Entailment.iter_closure t.rules e (fun u -> if update t u 2 then incr writes);
  !writes

(* closure(e) holds e: e has a row once its closure is counted. *)
let add_explicit t e =
  if flagged t e then 0
  else begin
    t.explicit <- t.explicit + 1;
    let added = over_closure t e bump in
    ignore (bump t e 1 : bool);
    added
  end

let create schema store =
  let rules = Entailment.rules store schema and rows = Rowset.of_width 3 0 in
  let t = { schema; store; rules; rows; counts = [| 0 |]; explicit = 0 } in
  let triples = List.rev (Store.fold_all store (fun e acc -> e :: acc) []) in
  List.iter (fun e -> ignore (add_explicit t e : int)) triples;
  t

(* Look the terms up without assigning codes: a term the dictionary
   has never seen cannot be in an explicit triple. *)
let find_triple t (tr : Triple.t) =
  let find = Store.find_term t.store in
  match (find tr.Triple.s, find tr.Triple.p, find tr.Triple.o) with
  | Some s, Some p, Some o -> Some (s, p, o)
  | _ -> None

let is_explicit t tr =
  match find_triple t tr with Some e -> flagged t e | None -> false

let insert t (tr : Triple.t) =
  let encode = Store.encode_term t.store in
  add_explicit t (encode tr.Triple.s, encode tr.Triple.p, encode tr.Triple.o)

let delete t tr =
  match find_triple t tr with
  | Some e when flagged t e ->
    t.explicit <- t.explicit - 1;
    ignore (drop t e 1 : bool);  (* e's closure visits keep it above 0 *)
    over_closure t e drop
  | _ -> 0
