(* The clean counterpart of fix_array_sort.ml: a merge sort, which
   raises nothing, and list sorts. *)

let codes a = Array.stable_sort Int.compare a

let fast a = Array.fast_sort Int.compare a

let names l = List.sort String.compare l
