(* Array-backed row storage with a row -> slot index.

   Rows live in a dense prefix [0, n) of a growable array; the index
   (a Query.Rowset.Tbl, so rows hash directly, no Array.to_list keys) maps
   each stored row to its slot.  Deletion swap-removes: the last row
   moves into the vacated slot and the index is patched — O(1), where
   the former cons-list representation paid a full List.filter with a
   polymorphic [<>] per removal. *)

type t = {
  name : string;
  cols : string list;
  mutable data : int array array;  (* dense prefix [0, n) *)
  mutable n : int;
  index : int Query.Rowset.Tbl.t;  (* stored row -> its slot in [data] *)
}

let name t = t.name
let cols t = t.cols
let cardinality t = t.n

let ensure_capacity t =
  let cap = Array.length t.data in
  if t.n >= cap then begin
    let data = Array.make (max 16 (2 * cap)) [||] in
    Array.blit t.data 0 data 0 t.n;
    t.data <- data
  end

let mem t row = Query.Rowset.Tbl.mem t.index row

let add_row t row =
  if Query.Rowset.Tbl.mem t.index row then false
  else begin
    ensure_capacity t;
    t.data.(t.n) <- row;
    Query.Rowset.Tbl.replace t.index row t.n;
    t.n <- t.n + 1;
    true
  end

let remove_row t row =
  match Query.Rowset.Tbl.find_opt t.index row with
  | None -> false
  | Some slot ->
    Query.Rowset.Tbl.remove t.index row;
    let last = t.n - 1 in
    if slot < last then begin
      let moved = t.data.(last) in
      t.data.(slot) <- moved;
      Query.Rowset.Tbl.replace t.index moved slot
    end;
    t.data.(last) <- [||];
    t.n <- last;
    true

let make ~name ~cols rows =
  let t =
    {
      name;
      cols;
      data = Array.make (max 16 (List.length rows)) [||];
      n = 0;
      index = Query.Rowset.Tbl.create (max 64 (List.length rows));
    }
  in
  List.iter (fun row -> ignore (add_row t row)) rows;
  t

let fold_rows f t init =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    acc := f t.data.(i) !acc
  done;
  !acc

let rows t = List.rev (fold_rows (fun row acc -> row :: acc) t [])

let project_indices t cols =
  List.map
    (fun c ->
      let rec find i = function
        | [] -> failwith ("Relation.project_indices: unknown column " ^ c)
        | c' :: rest -> if String.equal c c' then i else find (i + 1) rest
      in
      find 0 t.cols)
    cols

let size_bytes store t =
  fold_rows
    (fun row acc ->
      Array.fold_left
        (fun acc code -> acc + Rdf.Term.size (Rdf.Store.decode_term store code))
        acc row)
    t 0

let to_term_rows store t =
  List.map (Array.map (Rdf.Store.decode_term store)) (rows t)
