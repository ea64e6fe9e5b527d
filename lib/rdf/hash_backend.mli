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

    [add] writes only the triple set; the indexes catch up on the
    first read that needs them (a count, a scan of one or two columns,
    a column's distinct count, or {!compact}), one index at a time and
    in row order.  A store built by adds and then read holds each
    bucket in add order.  [mem], [size], [scan_all] and [fold_all]
    never index, and a remove indexes at most the one pending row that
    moves into an indexed hole; that row then precedes the pending rows
    added before it, so after such a remove bucket order depends on
    when the store was read. *)

include Backend.S

val rows_consistent : t -> bool
(** Every triple's membership slot points at its row; every indexed
    triple's recorded bucket rows point at that triple, and every
    index holds exactly the indexed triples, once each.  Reads the
    indexes as they stand and indexes nothing.  For tests. *)
