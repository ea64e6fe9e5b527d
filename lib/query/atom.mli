(** Triple-pattern atoms [t(s, p, o)] over the single triple table. *)

type position = S | P | O

type t = { s : Qterm.t; p : Qterm.t; o : Qterm.t }

val make : Qterm.t -> Qterm.t -> Qterm.t -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val term_at : t -> position -> Qterm.t
val set_at : t -> position -> Qterm.t -> t

val positions : position list
(** [[S; P; O]]. *)

val position_name : position -> string
(** ["s"], ["p"] or ["o"]. *)

val compare_position : position -> position -> int

val equal_position : position -> position -> bool

val vars : t -> string list
(** Variable names in s, p, o order, with duplicates. *)

val var_set : t -> string list
(** Distinct variable names, sorted. *)

val constants : t -> (position * Rdf.Term.t) list

val constant_count : t -> int

val subst : (string -> Qterm.t option) -> t -> t
(** Apply a variable substitution to every position. *)

val subst_var : string -> Qterm.t -> t -> t
(** Substitute a single variable. *)

val rename_var : string -> string -> t -> t

val to_string : t -> string
(** [t(s, p, o)], each term by {!Qterm.to_string}. *)
