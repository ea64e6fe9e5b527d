(** Rewritings: select-project-join(-union) expressions over view symbols.

    A rewriting for a query [q] is an algebra expression whose output
    columns align positionally with [q]'s head (Definition 2.2).  State
    transitions rewrite these expressions by substituting a view symbol
    with an expression over the replacement views (Definitions 3.2–3.5).

    Unions appear only in the pre-reformulation scenario (§4.3), where a
    workload query is rewritten as the union of its reformulations. *)

type cond =
  | Eq_cst of string * Rdf.Term.t  (** column = constant *)
  | Eq_col of string * string      (** column = column *)

type t =
  | Scan of string
      (** a view scan; columns are the view's head variables
          ({!View.columns}: a view's head holds no constant) *)
  | Select of cond list * t
  | Project of string list * t
      (** projection on the listed columns, in order *)
  | Join of (string * string) list * t * t
      (** equi-join; an empty condition list means natural join on all
          shared column names ({!join_layout}) *)
  | Rename of (string * string) list * t
      (** simultaneous column renaming [(old, new)] *)
  | Union of t list
      (** set union of union-compatible branches *)

type env = (string, string list) Hashtbl.t
(** Maps view names to their column lists. *)

(** {2 The column rules}

    The one definition of every operator's output columns, read by the
    executor, the strict-mode unfolder ({!Invariant}) and the cost
    model ({!Cost}). *)

val column_index : string list -> string -> int
(** The position of a column in the list.  Raises
    [Failure "unknown column c"], the library's one such failure. *)

val rename : (string * string) list -> string -> string
(** A column's name after [Rename mapping]. *)

type join_layout = {
  pairs : (string * string) list;
      (** the equated (left, right) columns: the conditions, or for a
          natural join each right column named like a left one *)
  kept : int list;
      (** the positions of the right columns named like no left column;
          the others are dropped, unequated under explicit conditions *)
  out : string list;  (** the left columns, then the kept ones *)
}

val join_layout : string list -> string list -> (string * string) list -> join_layout
(** [join_layout lcols rcols conds] lays out [Join (conds, l, r)] for
    [l] with columns [lcols] and [r] with [rcols]. *)

val columns : env -> t -> string list
(** Output columns of the expression, by the rules above, in one walk
    that checks every node on the way: it raises [Failure] on an
    unknown view symbol, a select, project, join or rename column its
    operand lacks, a repeated rename target, a rename that outputs a
    column twice, an empty union, or union branches of different
    arities. *)

val equal : t -> t -> bool
(** Structural equality, delegating constants to {!Rdf.Term.equal}. *)

val substitute : string -> t -> t -> t
(** [substitute name replacement expr] replaces every [Scan name] in
    [expr] by [replacement].  The replacement must have the same columns
    as the view it stands for. *)

val mentions : string -> t -> bool
(** [mentions name expr] is true when [expr] contains [Scan name] —
    cheaper than [views_used] (no allocation, early exit) and used by
    the transitions to substitute only the rewritings that actually
    reference the replaced view. *)

val views_used : t -> string list
(** Distinct view names scanned by the expression (with multiplicity
    collapsed); order of first occurrence. *)

val well_formed : env -> t -> bool
(** {!columns} does not raise. *)

val to_string : t -> string
(** The expression in the state-file syntax that [State_io] reads, e.g.
    [project[x](select[y=<c>](scan v1))]: constants by
    {!Rdf.Term.to_string}, so a condition on a constant never prints
    like one on a column. *)
