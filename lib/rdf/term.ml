type t =
  | Uri of string
  | Blank of string
  | Literal of string

let rank = function Uri _ -> 0 | Blank _ -> 1 | Literal _ -> 2

let label = function Uri s | Blank s | Literal s -> s

let compare a b =
  let c = Int.compare (rank a) (rank b) in
  if c <> 0 then c else String.compare (label a) (label b)

let equal a b = compare a b = 0

(* FNV-1a over the label, seeded by the constructor rank: no dependence
   on the polymorphic Hashtbl.hash. *)
let hash t =
  let h = ref (0x811c9dc5 lxor rank t) in
  String.iter
    (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land max_int)
    (label t);
  !h

let uri u = Uri u

let is_uri = function Uri _ -> true | Blank _ | Literal _ -> false
let is_blank = function Blank _ -> true | Uri _ | Literal _ -> false
let is_literal = function Literal _ -> true | Uri _ | Blank _ -> false

let rdf_type = Uri "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

(* The text syntax of Query.Parser: the keyword [type] for rdf:type, and
   every other URI bracketed, since a bare word reads as a variable, a
   name or the keyword. *)
let to_string = function
  | Uri u as t -> if equal t rdf_type then "type" else "<" ^ u ^ ">"
  | Blank b -> "_:" ^ b
  | Literal l -> "\"" ^ l ^ "\""

(* Kind tag, label length, ':', label: the length says where the label
   ends, so a label holding ',' ')' '&' '<' or ':' cannot run into what
   follows it. *)
let kind_tag = function Uri _ -> "U" | Blank _ -> "B" | Literal _ -> "L"

let key t =
  let l = label t in
  String.concat "" [ kind_tag t; string_of_int (String.length l); ":"; l ]

let add_key b t =
  let l = label t in
  Buffer.add_string b (kind_tag t);
  Buffer.add_string b (string_of_int (String.length l));
  Buffer.add_char b ':';
  Buffer.add_string b l

let size t = String.length (label t)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
