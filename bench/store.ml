(* Storage-backend benchmark: the hash (hexastore-style buckets) and
   compact (sorted delta-compressed segments) backends over the same
   synthetic Barton-shaped triple stream.

   Four measurements per backend at a common scale — ingest rate,
   resident bytes per triple, count-probe rate, and query-evaluation
   rate on the shared eval workload — plus a compact-only capacity leg
   at the large scale (10M triples under BENCH_SCALE=full), which the
   hash backend's per-triple footprint makes impractical to mirror.

   Probe results are accumulated into a checksum that must agree
   between the backends (the run aborts otherwise), so the timed loops
   double as a differential check at bench scale. *)

let common_triples =
  match Harness.scale with Harness.Quick -> 300_000 | Harness.Full -> 2_000_000

let capacity_triples =
  match Harness.scale with
  | Harness.Quick -> 1_000_000
  | Harness.Full -> 10_000_000

let probe_count =
  match Harness.scale with Harness.Quick -> 200_000 | Harness.Full -> 1_000_000

let eval_reps = match Harness.scale with Harness.Quick -> 10 | Harness.Full -> 40

(* ---------- synthetic Barton-shaped stream -------------------------------

   Dictionary codes are the data here (no Dictionary involved), so the
   timings measure the index structures alone.  Layout mirrors the
   Barton generator's shape: ~7 triples per subject, 62 properties
   with a popular band carrying a quarter of the links, objects mixing
   entities and a shared literal pool.  A fixed-seed LCG makes the
   stream deterministic. *)

let lcg state = ((state * 25214903917) + 11) land 0xFFFFFFFFFFFF

(* codes: properties 0..61, literal pool 62..99, entities 100.. *)
let triple_at n_subjects i state =
  let state = lcg state in
  let r = state lsr 16 in
  let s = 100 + (i / 7) in
  let p = if r land 3 = 0 then r lsr 2 mod 15 else 15 + (r lsr 2 mod 47) in
  let o =
    if r lsr 8 mod 3 = 0 then 62 + (r lsr 10 mod 38)
    else 100 + (r lsr 10 mod n_subjects)
  in
  (s, p, o, state)

let ingest kind n =
  let st = Rdf.Store.create ~backend:kind () in
  let n_subjects = (n / 7) + 1 in
  let (), secs =
    Harness.time_once (fun () ->
        let state = ref 12345 in
        for i = 0 to n - 1 do
          let s, p, o, state' = triple_at n_subjects i !state in
          state := state';
          ignore (Rdf.Store.add_encoded st (s, p, o) : bool)
        done;
        (* fold the tail memtable in: steady-state layout, as a bulk
           load would leave it *)
        Rdf.Store.compact st)
  in
  (st, float_of_int n /. secs)

(* Mixed 1-bound / 2-bound count probes over the stream's code ranges;
   the checksum pins the results (and catches backend divergence). *)
let probe_pass st n_subjects =
  let checksum = ref 0 in
  let (), secs =
    Harness.time_once (fun () ->
        let state = ref 54321 in
        for i = 0 to probe_count - 1 do
          let st' = lcg !state in
          state := st';
          let r = st' lsr 16 in
          let s = 100 + (r mod n_subjects) in
          let p = r lsr 4 mod 62 in
          let o = 100 + (r lsr 8 mod n_subjects) in
          let pat =
            match i mod 6 with
            | 0 -> { Rdf.Store.ps = Some s; pp = None; po = None }
            | 1 -> { Rdf.Store.ps = None; pp = Some p; po = None }
            | 2 -> { Rdf.Store.ps = None; pp = None; po = Some o }
            | 3 -> { Rdf.Store.ps = Some s; pp = Some p; po = None }
            | 4 -> { Rdf.Store.ps = None; pp = Some p; po = Some o }
            | _ -> { Rdf.Store.ps = Some s; pp = None; po = Some o }
          in
          checksum := !checksum + Rdf.Store.count_matching st pat
        done)
  in
  (!checksum, float_of_int probe_count /. secs)

(* Copy a store's contents onto the other backend (fold order follows
   the source, so both dictionaries coincide). *)
let copy_onto kind src =
  let dst = Rdf.Store.create ~backend:kind () in
  Rdf.Store.fold_all src
    (fun (s, p, o) () ->
      let re c = Rdf.Store.encode_term dst (Rdf.Store.decode_term src c) in
      ignore (Rdf.Store.add_encoded dst (re s, re p, re o) : bool))
    ();
  Rdf.Store.compact dst;
  dst

(* Bindings/sec of the shared eval workload (compiled plans) against
   one store, on a copy of it that caches no plan yet: the copy is laid
   out before the timed region and dropped after it. *)
let eval_pass store queries =
  let reg = Obs.global () in
  let store = Rdf.Store.copy store in
  Rdf.Store.compact store;
  let bindings_of () =
    Option.value ~default:0 (Obs.find_counter reg "eval.bindings")
  in
  let b0 = bindings_of () in
  let (), secs =
    Harness.time_once (fun () ->
        for _ = 1 to eval_reps do
          List.iter
            (fun q -> ignore (Query.Evaluation.eval_cq_codes store q))
            queries
        done)
  in
  let b = bindings_of () - b0 in
  (b, if secs > 0. then float_of_int b /. secs else 0.)

let counter name =
  Option.value ~default:0 (Obs.find_counter (Obs.global ()) name)

let run () =
  Harness.section "Store: hash vs compact backends";
  let n_subjects = (common_triples / 7) + 1 in

  Harness.subsection
    (Printf.sprintf "ingest + probes (%d-triple stream)" common_triples);
  let hash_st, hash_ingest = ingest Rdf.Backend.Hash common_triples in
  let compact_st, compact_ingest = ingest Rdf.Backend.Compact common_triples in
  if Rdf.Store.size hash_st <> Rdf.Store.size compact_st then
    failwith "store bench: backends disagree on the stream's triple count";
  let triples = Rdf.Store.size hash_st in
  let hash_checksum, hash_probes = probe_pass hash_st n_subjects in
  let compact_checksum, compact_probes = probe_pass compact_st n_subjects in
  if hash_checksum <> compact_checksum then
    failwith "store bench: probe checksums diverge between backends";
  let hash_bytes = Rdf.Store.resident_bytes hash_st in
  let compact_bytes = Rdf.Store.resident_bytes compact_st in
  let bpt bytes = float_of_int bytes /. float_of_int (max 1 triples) in
  let ratio =
    if compact_bytes > 0 then float_of_int hash_bytes /. float_of_int compact_bytes
    else 0.
  in
  Harness.print_table
    ~header:
      [ "backend"; "ingest t/s"; "probes/s"; "resident MB"; "bytes/triple" ]
    [
      [
        "hash";
        Harness.fmt_float hash_ingest;
        Harness.fmt_float hash_probes;
        Printf.sprintf "%.1f" (float_of_int hash_bytes /. 1e6);
        Printf.sprintf "%.1f" (bpt hash_bytes);
      ];
      [
        "compact";
        Harness.fmt_float compact_ingest;
        Harness.fmt_float compact_probes;
        Printf.sprintf "%.1f" (float_of_int compact_bytes /. 1e6);
        Printf.sprintf "%.1f" (bpt compact_bytes);
      ];
    ];
  Printf.printf "  compression vs hash: %.1fx fewer resident bytes/triple\n"
    ratio;
  Printf.printf
    "  compact counters: %d merges, %d flushes, %d block decodes, %d cache \
     hits, %d blocks skipped\n"
    (counter "store.merges")
    (counter "store.memtable_flushes")
    (counter "store.block_decodes")
    (counter "store.block_cache_hits")
    (counter "store.block_skips");

  (* eval parity: the eval experiment's workload over the Barton store,
     on both backends (same dictionary order, so identical plans) *)
  Harness.subsection "query evaluation (eval workload, bindings/sec)";
  let barton_hash = Lazy.force Harness.barton_store in
  let barton_compact = copy_onto Rdf.Backend.Compact barton_hash in
  let queries = Eval.workload barton_hash in
  let gate st =
    List.map
      (fun q -> List.length (Query.Evaluation.eval_cq_codes st q))
      queries
  in
  if not (List.equal Int.equal (gate barton_hash) (gate barton_compact)) then
    failwith "store bench: eval answer counts differ between backends";
  let _, hash_eval = eval_pass barton_hash queries in
  let _, compact_eval = eval_pass barton_compact queries in
  let eval_ratio = if hash_eval > 0. then compact_eval /. hash_eval else 0. in
  Harness.print_table
    ~header:[ "hash"; "compact"; "compact/hash" ]
    [
      [
        Harness.fmt_float hash_eval;
        Harness.fmt_float compact_eval;
        Printf.sprintf "%.3f" eval_ratio;
      ];
    ];

  (* capacity leg: compact only — the hash layout at this scale costs
     ~[ratio]x the memory for no extra information *)
  Harness.subsection
    (Printf.sprintf "capacity (compact backend, %d triples)" capacity_triples);
  let cap_st, cap_ingest = ingest Rdf.Backend.Compact capacity_triples in
  let cap_triples = Rdf.Store.size cap_st in
  let cap_bytes = Rdf.Store.resident_bytes cap_st in
  let cap_bpt = float_of_int cap_bytes /. float_of_int (max 1 cap_triples) in
  Harness.print_table
    ~header:[ "triples"; "ingest t/s"; "resident MB"; "bytes/triple" ]
    [
      [
        string_of_int cap_triples;
        Harness.fmt_float cap_ingest;
        Printf.sprintf "%.1f" (float_of_int cap_bytes /. 1e6);
        Printf.sprintf "%.1f" cap_bpt;
      ];
    ];
  Printf.printf "  vs hash at common scale: %.1fx fewer bytes/triple\n"
    (bpt hash_bytes /. cap_bpt);

  Harness.add_bench_field "store"
    (Obs.Json.Obj
       [
         ("triples", Obs.Json.Int triples);
         ("probe_checksum", Obs.Json.Int hash_checksum);
         ( "hash",
           Obs.Json.Obj
             [
               ("ingest_triples_per_sec", Obs.Json.Float hash_ingest);
               ("probes_per_sec", Obs.Json.Float hash_probes);
               ("resident_bytes", Obs.Json.Int hash_bytes);
               ("bytes_per_triple", Obs.Json.Float (bpt hash_bytes));
             ] );
         ( "compact",
           Obs.Json.Obj
             [
               ("ingest_triples_per_sec", Obs.Json.Float compact_ingest);
               ("probes_per_sec", Obs.Json.Float compact_probes);
               ("resident_bytes", Obs.Json.Int compact_bytes);
               ("bytes_per_triple", Obs.Json.Float (bpt compact_bytes));
             ] );
         ("bytes_per_triple_ratio", Obs.Json.Float ratio);
         ("hash_eval_bindings_per_sec", Obs.Json.Float hash_eval);
         ("compact_eval_bindings_per_sec", Obs.Json.Float compact_eval);
         ("eval_ratio_compact_vs_hash", Obs.Json.Float eval_ratio);
         ( "capacity",
           Obs.Json.Obj
             [
               ("triples", Obs.Json.Int cap_triples);
               ("ingest_triples_per_sec", Obs.Json.Float cap_ingest);
               ("resident_bytes", Obs.Json.Int cap_bytes);
               ("bytes_per_triple", Obs.Json.Float cap_bpt);
               ( "bytes_per_triple_ratio_vs_hash",
                 Obs.Json.Float (bpt hash_bytes /. cap_bpt) );
             ] );
       ])
