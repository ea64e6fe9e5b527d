type kind = Hash | Compact

let kind_name = function Hash -> "hash" | Compact -> "compact"

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
  val compact : t -> unit
end
