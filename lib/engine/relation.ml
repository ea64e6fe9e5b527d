type t = { name : string; cols : string list; rows : Query.Rowset.t }

let of_rowset ~name ~cols rows = { name; cols; rows }

let make ~name ~cols rows =
  let set = Query.Rowset.create (List.length rows) in
  List.iter (fun row -> ignore (Query.Rowset.add set row : bool)) rows;
  of_rowset ~name ~cols set

let name t = t.name
let cols t = t.cols
let rowset t = t.rows
let cardinality t = Query.Rowset.cardinal t.rows
let mem t row = Query.Rowset.mem t.rows row
let add_row t row = Query.Rowset.add t.rows row
let remove_row t row = Query.Rowset.remove t.rows row
let fold_rows f t init = Query.Rowset.fold f t.rows init

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

(* Decoded straight from the set's columns: one array per row. *)
let to_term_rows store t =
  let cols = Query.Rowset.columns t.rows in
  let decode c r = Rdf.Store.decode_term store cols.(c).(r) in
  let acc = ref [] in
  for r = Query.Rowset.cardinal t.rows - 1 downto 0 do
    let row =
      if Array.length cols = 0 then [||] else Array.make (Array.length cols) (decode 0 r)
    in
    for c = 1 to Array.length cols - 1 do
      row.(c) <- decode c r
    done;
    acc := row :: !acc
  done;
  !acc
