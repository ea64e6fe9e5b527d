(** Unions of conjunctive queries, the output language of reformulation
    (§4.2) and the language of reformulated views (§4.3). *)

type t = private { name : string; disjuncts : Cq.t list }

val make : name:string -> Cq.t list -> t
(** Raises [Invalid_argument] on an empty list or mismatched arities. *)

val of_cq : Cq.t -> t

val name : t -> string
val disjuncts : t -> Cq.t list

val cardinal : t -> int
(** Number of disjuncts ([|Qr|]-style counts of Table 3). *)

val atom_count : t -> int
(** Total number of atoms over all disjuncts (#a in Table 3). *)

val constant_count : t -> int
(** Total number of constants over all disjuncts (#c in Table 3). *)

val dedup : t -> t
(** Remove disjuncts that are duplicates up to variable renaming. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
