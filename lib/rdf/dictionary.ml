type t = {
  by_term : int Term.Table.t;
  mutable by_code : Term.t array;
  mutable next : int;
}

let create () =
  { by_term = Term.Table.create 1024; by_code = Array.make 1024 (Term.Uri ""); next = 0 }

let copy d =
  { by_term = Term.Table.copy d.by_term; by_code = Array.copy d.by_code; next = d.next }

let grow d =
  if d.next >= Array.length d.by_code then begin
    let bigger = Array.make (2 * Array.length d.by_code) (Term.Uri "") in
    Array.blit d.by_code 0 bigger 0 d.next;
    d.by_code <- bigger
  end

let encode d term =
  match Term.Table.find_opt d.by_term term with
  | Some code -> code
  | None ->
    let code = d.next in
    grow d;
    d.by_code.(code) <- term;
    Term.Table.add d.by_term term code;
    d.next <- code + 1;
    code

let find d term = Term.Table.find_opt d.by_term term

let decode d code =
  if code < 0 || code >= d.next then raise Not_found else d.by_code.(code)

let size d = d.next
