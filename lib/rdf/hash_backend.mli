(** Hexastore-style hash-bucket backend (the original {!Store}
    layout): growable packed-int buckets under six Hashtbl indexes,
    O(1) point mutation and counting, live-storage scans.  Each triple
    records its row in every bucket holding it; a remove moves each
    bucket's last row into the hole, so scan order is append order
    with swap-remove holes, and no remove scans a bucket.  Also reused
    by the compact backend as its LSM memtable/tombstone index. *)

include Backend.S
