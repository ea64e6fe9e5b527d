(** Compact sorted-segment backend: triples live in three immutable
    delta-compressed {!Segment}s (SPO / POS / OSP orders) answering
    lookups by zone-map bracketing plus galloping binary search, while
    point mutations go to a small LSM-style memtable (adds) and
    tombstone set (deletes over the segments), both indexed by a
    {!Hash_backend} so every count stays exact and O(1)-adjustable;
    per-column distinct counts are kept up to date by each write, so
    they too are answered in O(1).
    When the memtable outgrows a fraction of the segment, the three
    orders are merge-rebuilt in one streaming pass.  4-10x fewer
    resident bytes per triple than the hash layout at Barton scale. *)

include Backend.S
