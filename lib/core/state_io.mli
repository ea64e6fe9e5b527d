(** Text serialization of states, for [rdfviews select --state-out] /
    [--trace-states] and [rdfviews check --state].

    Nothing here prints a value of its own: a [view] line is
    {!View.to_string} and a [rewrite] line's expression is
    {!Rewriting.to_string}, the one printer of each type, and both
    write what the reader below reads.

    A state file is read as one stream of {!Query.Parser} tokens: any
    whitespace, newlines included, may separate tokens, and [#] starts a
    comment that runs to the end of its line.  It holds zero or more
    states:

    {v
    file      ::= state*
    state     ::= "state" (view | rewrite)*
    view      ::= "view" RULE                  a workload rule; its name is the view symbol
    rewrite   ::= "rewrite" NAME ":=" expr     NAME is a workload query's name
    expr      ::= "scan" NAME
                | "select" "[" cond,* "]" "(" expr ")"
                | "project" "[" col,* "]" "(" expr ")"
                | "join" "[" (col "=" col),* "]" "(" expr "," expr ")"
                | "rename" "[" (col "->" col),* "]" "(" expr ")"
                | "union" "(" expr ("," expr)* ")"
    cond      ::= col "=" constant | col "=" col
    constant  ::= <uri> | "lit" | _:label | type
    col       ::= word | ?word
    v}

    [join[](E, E)] is the natural join.  A name and a column are words
    (a column may start with an uppercase letter, or be written as the
    variable [?c]); a constant is bracketed or the keyword [type]
    (rdf:type), so any other bare word after [=] is a column.  Grammar
    position decides what a word is, so no word is reserved: a query may
    be named [state], [view] or [scan]. *)

exception Syntax_error of string
(** The message starts ["line N: "] with the line of the offending
    token, once. *)

val parse_expr : string -> Rewriting.t
(** One [expr] and nothing after it.
    @raise Syntax_error on malformed input. *)

val states_to_text : State.t list -> string
(** The on-disk format of [--state-out] / [--trace-states]: a [#]
    header line, then each state (its views, then its rewritings), the
    states separated by a blank line.  Each view and each rewriting is
    one line. *)

val parse_states : string -> State.t list
(** Parse a whole file's contents.
    @raise Syntax_error on malformed input, including a view definition
    rejected by {!View.of_cq} ({!View.defect}: a disconnected body, a
    constant in the head or a repeated head variable), which names the
    line of the rule's final [.]. *)

val write_file : string -> State.t list -> unit
(** {!states_to_text} to the named file (truncating). *)

val read_file : string -> State.t list
(** {!parse_states} on the named file's contents; raises the same
    exceptions plus [Sys_error] on I/O failure. *)
