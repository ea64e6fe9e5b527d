(** Dictionary encoding of RDF terms.

    As in the paper's data layout (§6), every distinct URI, blank node or
    literal is assigned a distinct integer code; the triple table and all
    indexes operate on codes.  The dictionary is append-only: codes are
    never reused. *)

type t

val create : unit -> t

val copy : t -> t
(** An independent dictionary with the same codes: encoding a term in
    one leaves the other unchanged. *)

val encode : t -> Term.t -> int
(** [encode d term] returns the code of [term], assigning a fresh one on
    first encounter. *)

val find : t -> Term.t -> int option
(** Like {!encode} but without assigning: [None] when unseen. *)

val decode : t -> int -> Term.t
(** Inverse of {!encode}.  Raises [Not_found] on unknown codes. *)

val size : t -> int
(** Number of distinct encoded terms. *)
