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

let of_string s =
  let n = String.length s in
  if n >= 2 && s.[0] = '<' && s.[n - 1] = '>' then Uri (String.sub s 1 (n - 2))
  else if n >= 2 && s.[0] = '_' && s.[1] = ':' then Blank (String.sub s 2 (n - 2))
  else if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then
    Literal (String.sub s 1 (n - 2))
  else Uri s

(* A URI prints bare only when [of_string] reads the bare text back as
   that URI, so no two terms print alike. *)
let to_string = function
  | Uri u as t ->
    if String.contains u ':' || not (equal (of_string u) t) then "<" ^ u ^ ">"
    else u
  | Blank b -> "_:" ^ b
  | Literal l -> "\"" ^ l ^ "\""

(* Kind tag, label length, ':', label: the length says where the label
   ends, so a label holding ',' ')' '&' '<' or ':' cannot run into what
   follows it. *)
let key t =
  let tag = match t with Uri _ -> "U" | Blank _ -> "B" | Literal _ -> "L" in
  let l = label t in
  String.concat "" [ tag; string_of_int (String.length l); ":"; l ]

let pp fmt t = Format.pp_print_string fmt (to_string t)

let size t = String.length (label t)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
