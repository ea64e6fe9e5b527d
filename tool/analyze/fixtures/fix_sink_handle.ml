(* Seeded violation for tool/analyze: a counter handle made by
   Obs.cached_counter, bumped from inside a spawn closure.  The handle
   reads the calling domain's ambient sink (a DLS read the call graph
   does not see), and only the coordinator installs a sink.  Expected:
   `coordinator-escape` at [obs_hits]. *)

module Multicore = struct
  let spawn f = f ()
  let join x = x

  module Dls = struct
    type 'a key = 'a ref

    let new_key f = ref (f ())
    let get k = !k
  end
end

module Obs = struct
  let sink = Multicore.Dls.new_key (fun () -> ref 0)
  let cached_counter _name () = Multicore.Dls.get sink
  let incr c = incr c
end

let obs_hits = Obs.cached_counter "fixture.hits"
let worker () = Obs.incr (obs_hits ())
let run () = Multicore.join (Multicore.spawn (fun () -> worker ()))
