(** Version-gated shim over OCaml 5 shared-memory parallelism.

    The repository supports OCaml 4.14 (sequential only) and OCaml 5.x
    (parallel search).  This module is the single point where the two
    diverge: dune selects [multicore.ocaml5.ml] or [multicore.ocaml4.ml]
    at build time, so everything above compiles unchanged on both
    compilers and branches on {!available} at run time.

    The 4.x backend never spawns: {!spawn} raises, {!Dls} keys are plain
    per-process cells, and {!Spinlock} degenerates to an uncontended
    CAS.  Callers must therefore check {!available} before taking a
    parallel code path (see [Core.Search.run_from]). *)

val available : bool
(** [true] exactly when the runtime can spawn domains (OCaml >= 5.0). *)

val recommended_domain_count : unit -> int
(** [Domain.recommended_domain_count ()] on OCaml 5; [1] on 4.x. *)

val cpu_relax : unit -> unit
(** Hint to the processor inside a spin-wait loop ([Domain.cpu_relax]);
    a no-op on 4.x. *)

(** {1 Domains} *)

type 'a handle
(** A running domain that will produce an ['a] (wraps [Domain.t]). *)

val spawn : (unit -> 'a) -> 'a handle
(** Start a domain running the thunk.  @raise Failure on OCaml 4.x —
    guard call sites with {!available}. *)

val join : 'a handle -> 'a
(** Wait for the domain's result, re-raising its uncaught exception. *)

(** {1 Domain-local storage}

    Wraps [Domain.DLS].  On 4.x there is exactly one domain, so a key
    is a single lazily initialized cell with identical semantics. *)
module Dls : sig
  type 'a key

  val new_key : (unit -> 'a) -> 'a key
  (** A fresh key; the thunk computes the initial value the first time
      each domain reads the key. *)

  val get : 'a key -> 'a
  (** The current domain's value for the key (initializing it on first
      read). *)

  val set : 'a key -> 'a -> unit
  (** Set the current domain's value for the key. *)
end

(** {1 Spinlocks}

    A test-and-set spinlock over [Atomic].  Meant for critical sections
    of a few dozen instructions (hash-table probes) where a futex-based
    mutex would dominate the protected work; not fair, not reentrant. *)
module Spinlock : sig
  type t

  val create : unit -> t

  val with_lock : t -> (unit -> 'a) -> 'a
  (** Run the thunk holding the lock; always releases, also on raise. *)
end
