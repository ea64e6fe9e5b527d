type t = { name : string; cols : string list; rows : Rdf.Rowset.t }

let of_rowset ~name ~cols rows = { name; cols; rows }

let make ~name ~cols rows =
  let set = Rdf.Rowset.create (List.length rows) in
  List.iter (fun row -> ignore (Rdf.Rowset.add set row : bool)) rows;
  of_rowset ~name ~cols set

let name t = t.name
let cols t = t.cols
let rowset t = t.rows
let cardinality t = Rdf.Rowset.cardinal t.rows
let mem t row = Rdf.Rowset.mem t.rows row
let add_row t row = Rdf.Rowset.add t.rows row
let remove_row t row = Rdf.Rowset.remove t.rows row
let fold_rows f t init = Rdf.Rowset.fold f t.rows init

let size_bytes store t =
  fold_rows
    (fun row acc ->
      Array.fold_left
        (fun acc code -> acc + Rdf.Term.size (Rdf.Store.decode_term store code))
        acc row)
    t 0

(* Decoded straight from the set's packed rows: one array per row. *)
let to_term_rows store t =
  let data = Rdf.Rowset.data t.rows and w = List.length t.cols in
  let acc = ref [] in
  for r = Rdf.Rowset.cardinal t.rows - 1 downto 0 do
    acc := Array.init w (fun c -> Rdf.Store.decode_term store data.((w * r) + c)) :: !acc
  done;
  !acc
