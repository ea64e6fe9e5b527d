(** Text serialization of states, for [rdfviews select --state-out] /
    [--trace-states] and [rdfviews check --state].

    A file holds one or more states, each introduced by a line [state],
    followed by one [view <query>.] line per view (workload query
    syntax; the query's name is the view symbol) and one
    [rewrite NAME := EXPR] line per workload query.  Expressions:

    {v
    scan v1
    select[x=<ex:c>, x=y](E)
    project[x, y](E)
    join[x=y](E, E)          join[](E, E) is the natural join
    rename[x->y](E)
    union(E, E, ...)
    v}

    Constants in conditions are always bracketed ([<uri>], ["lit"],
    [_:blank]); a bare identifier after [=] is a column name. *)

exception Syntax_error of string

val expr_to_text : Rewriting.t -> string
(** Render one plan in the textual grammar accepted by
    {!parse_expr}. *)

val parse_expr : string -> Rewriting.t
(** @raise Syntax_error on malformed input. *)

val states_to_text : State.t list -> string
(** Each state (views then rewritings) in the file grammar,
    ["---"]-separated — the on-disk format of [--state-out] /
    [--trace-states]. *)

val parse_states : string -> State.t list
(** Parse a whole file's contents.
    @raise Syntax_error on malformed input, including a view definition
    rejected by {!View.of_cq} (disconnected body, duplicate head
    variables); the message starts with the line number. *)

val write_file : string -> State.t list -> unit
(** {!states_to_text} to the named file (truncating). *)

val read_file : string -> State.t list
(** {!parse_states} on the named file's contents; raises the same
    exceptions plus [Sys_error] on I/O failure. *)
