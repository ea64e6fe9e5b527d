(** Hexastore-style backend (the original {!Store} layout) over
    {!Rowset}'s open-addressed int tables: the triples in one width-3
    table (packed rows), and six {!Rowset.Buckets} indexes (s, p, o,
    sp, so, po), each a width-1 table of keys whose rows address
    growable packed-int buckets held beside it.  O(1)
    point mutation and counting, live-storage scans.  Each triple
    records its row in every bucket holding it; a remove moves each
    bucket's last row into the hole, so scan order is indexing order
    with swap-remove holes, and no remove scans a bucket.  Also reused
    by the compact backend as its LSM memtable/tombstone index.

    A store is unindexed until the first read that needs an index (a
    count, a scan of one or two columns, a column's distinct count, or
    {!compact}), which indexes every triple one index at a time and in
    row order; from then on each [add] indexes its triple at once.
    [mem], [size], [scan_all] and [fold_all] never index.  Bucket order
    is the triple set's order at the first read, then add order. *)

include Backend.S

val rows_consistent : t -> bool
(** Every triple's membership slot points at its row; once the store is
    indexed, every triple's recorded bucket rows point at that triple
    and every index holds exactly the triples, once each; before, every
    index is empty.  Reads the indexes as they stand and indexes
    nothing.  For tests. *)
