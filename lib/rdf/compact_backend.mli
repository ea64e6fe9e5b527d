(** Compact sorted-segment backend: triples live in three immutable
    delta-compressed {!Segment}s (SPO / POS / OSP orders) answering
    lookups by zone-map bracketing plus galloping binary search, while
    point mutations go to a small LSM-style memtable (adds) and
    tombstone set (deletes over the segments), each a {!Hash_backend}
    over flat int tables.  Each column keeps an array of live-row
    counts indexed by code, moved by every successful write, so a
    single-column count and a column's distinct count are one array
    read; a pair count is a segment rank interval corrected by two
    one-probe memtable counts.  A write reads no memtable index, so a
    memtable filled by a load stays unindexed until its first scan or
    pair count.  Scan results are memoized in one int-keyed
    {!Rowset.Buckets} table per scan kind; a write drops only the scans
    its triple is in.  When the memtable outgrows a fraction of the
    segment, the three orders are merge-rebuilt in one streaming pass
    over the memtable's rows, radix-sorted once per order.  32.9x fewer
    resident bytes per triple than the hash layout at 2M triples and
    42.8x at 10M ([bench/baselines/BENCH_store.json]). *)

include Backend.S

val scan_cache_max_keys : int
(** The scan memo holds at most this many keys over all six scan kinds;
    a miss that finds it full empties it, and nothing else does. *)

val sorted_rotation : int array -> int -> da:int -> db:int -> dc:int -> int array
(** [sorted_rotation rows k ~da ~db ~dc] is the first [k] rows of the
    packed (stride 3) [rows], each rewritten as its cells [da], [db],
    [dc], in lexicographic order: the memtable's rows in one segment
    order, as a merge writes them.  Codes must be nonnegative. *)
