type t =
  | Var of string
  | Cst of Rdf.Term.t

let compare a b =
  match (a, b) with
  | Var x, Var y -> String.compare x y
  | Cst x, Cst y -> Rdf.Term.compare x y
  | Var _, Cst _ -> -1
  | Cst _, Var _ -> 1

let equal a b = compare a b = 0

let var x = Var x
let cst c = Cst c

let var_name = function Var x -> Some x | Cst _ -> None
let constant = function Cst c -> Some c | Var _ -> None

(* Atomic so parallel search domains can derive transition actions
   concurrently; fresh names stay process-unique (their numbering is
   irrelevant — canonical forms are rename-invariant). *)
let counter = Atomic.make 0

let fresh_var () = Printf.sprintf "_v%d" (Atomic.fetch_and_add counter 1 + 1)

let reset_fresh_counter () = Atomic.set counter 0

let to_string = function
  | Var x -> "?" ^ x
  | Cst c -> Rdf.Term.to_string c
