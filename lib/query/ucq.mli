(** Unions of conjunctive queries, the output language of reformulation
    (§4.2) and the language of reformulated views (§4.3).

    A union is kept as its {e shapes} ({!Rcq}): restricted CQs whose
    expansions together are the disjuncts.  A union built from plain
    CQs has one shape per disjunct.  Evaluation runs one plan per
    shape; everything that counts or lists disjuncts (Table 3, the
    "union term(s)" of the CLI, pre-reformulation's initial state) reads
    the deduplicated expansion, computed on first use. *)

type t

val make : name:string -> Cq.t list -> t
(** One shape per CQ; the disjuncts are the list as given.  Raises
    [Invalid_argument] on an empty list or mismatched arities. *)

val of_cq : Cq.t -> t

val of_shapes : name:string -> Cq.t -> Rcq.t list -> t
(** [of_shapes ~name first shapes]: the union of the shapes'
    expansions, which must contain [first] (the query that was
    reformulated).  Raises [Invalid_argument] on an empty list or
    mismatched arities. *)

val name : t -> string

val first : t -> Cq.t
(** The first disjunct, without expanding the shapes: the reformulated
    query itself, or the first CQ given to {!make}. *)

val shapes : t -> Rcq.t list

val disjuncts : t -> Cq.t list
(** The shapes' expansion, [first] first, without two disjuncts equal
    up to variable renaming ({!Cq.canonical_string}); the [i]-th is
    named [name#i].  For {!make}, the list as given. *)

val cardinal : t -> int
(** Number of disjuncts ([|Qr|]-style counts of Table 3). *)

val atom_count : t -> int
(** Total number of atoms over all disjuncts (#a in Table 3). *)

val constant_count : t -> int
(** Total number of constants over all disjuncts (#c in Table 3). *)
