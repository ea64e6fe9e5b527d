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
      (** a view scan; columns are the view's head variables *)
  | Select of cond list * t
  | Project of string list * t
      (** projection on the listed columns, in order *)
  | Join of (string * string) list * t * t
      (** equi-join; an empty condition list means natural join on all
          shared column names.  Output columns: left columns then right
          columns not already output. *)
  | Rename of (string * string) list * t
      (** simultaneous column renaming [(old, new)] *)
  | Union of t list
      (** set union of union-compatible branches *)

type env = (string, string list) Hashtbl.t
(** Maps view names to their column lists. *)

val columns : env -> t -> string list
(** Output columns of the expression.  Raises [Failure] on unknown view
    symbols or column references. *)

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
(** Checks that all column references resolve and unions are
    compatible. *)

val to_string : t -> string
(** Single-line rendering of the plan, innermost operator first. *)
