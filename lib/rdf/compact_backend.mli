(** Compact sorted-segment backend: triples live in three immutable
    delta-compressed {!Segment}s (SPO / POS / OSP orders) answering
    lookups by zone-map bracketing plus galloping binary search, while
    point mutations go to a small LSM-style memtable (adds) and
    tombstone set (deletes over the segments), each a {!Hash_backend}
    over flat int tables, so every count stays exact and one probe
    away; per-column distinct counts are kept up to date by each
    write, so they too are answered in O(1).  Scan results are
    memoized in one int-keyed {!Rowset.Buckets} table per scan kind; a
    write drops only the scans its triple is in.
    When the memtable outgrows a fraction of the segment, the three
    orders are merge-rebuilt in one streaming pass.  32.9x fewer
    resident bytes per triple than the hash layout at 2M triples and
    42.8x at 10M ([bench/baselines/BENCH_store.json]). *)

include Backend.S

val scan_cache_max_keys : int
(** The scan memo holds at most this many keys over all six scan kinds;
    a miss that finds it full empties it, and nothing else does. *)
