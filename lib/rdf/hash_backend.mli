(** Hexastore-style backend (the original {!Store} layout) over
    {!Flat}'s open-addressed int tables: the triples packed in one
    array, and six indexes (s, p, o, sp, so, po) whose buckets are
    growable packed-int arrays stored inline in the index slots.  O(1)
    point mutation and counting, live-storage scans.  Each triple
    records its row in every bucket holding it; a remove moves each
    bucket's last row into the hole, so scan order is append order
    with swap-remove holes, and no remove scans a bucket.  Also reused
    by the compact backend as its LSM memtable/tombstone index. *)

include Backend.S

val rows_consistent : t -> bool
(** Every triple's membership slot and recorded bucket rows point at
    that triple, and every index holds each triple once.  For tests. *)
