(** Storage backends under the {!Store} interface.

    A backend stores dictionary-encoded triples and answers the raw
    index operations; {!Store} owns the dictionary, the version stamp
    and the telemetry, and dispatches everything else here.  Two
    implementations exist: [Hash], the hexastore-style layout over
    flat open-addressed int tables (fast point mutation, one probe
    per count or bucket fetch), and [Compact], sorted delta-compressed
    segments with an LSM memtable (32.9x fewer bytes per triple at 2M
    triples and 42.8x at 10M in [bench/baselines/BENCH_store.json],
    Barton-scale capable). *)

type kind = Hash | Compact

val kind_name : kind -> string

(** Operations every backend implements over encoded triples.  Scan
    results follow the {!Store} contract: [(data, n)] with the first
    [3n] cells packed as [s; p; o]; each call's array must stay valid
    under {e later scans} (executors hold results while issuing nested
    scans), so backends return either live storage they never rewrite
    in place or a fresh array per call. *)
module type S = sig
  type t

  val create : unit -> t
  val add : t -> int -> int -> int -> bool
  val remove : t -> int -> int -> int -> bool
  val mem : t -> int -> int -> int -> bool
  val size : t -> int
  val count1 : t -> [ `S | `P | `O ] -> int -> int
  val count2 : t -> [ `SP | `SO | `PO ] -> int -> int -> int
  val scan_all : t -> int array * int
  val scan1 : t -> [ `S | `P | `O ] -> int -> int array * int
  val scan2 : t -> [ `SP | `SO | `PO ] -> int -> int -> int array * int
  val fold_all : t -> (int * int * int -> 'a -> 'a) -> 'a -> 'a
  val distinct_in_column : t -> [ `S | `P | `O ] -> int
  val resident_bytes : t -> int
  (** What is resident now: a hash store holds no index until its
      first index read or {!compact}. *)

  val compact : t -> unit
  (** Settle the layout without changing contents: compact merges its
      memtable into the segments, an unindexed hash store indexes every
      row. *)
end
