(* Differential suite for the storage backends: the compact
   sorted-segment backend must be observationally identical to the
   hash backend under any interleaving of add / remove / merge, and
   the segment layer must handle every block-boundary shape. *)

open Support

(* ---------- hash vs compact differential -------------------------------- *)

type op = Add of Rdf.Triple.t | Remove of Rdf.Triple.t | Merge

(* Most ops draw from a pool of triples, so removes mostly hit live
   rows and re-adding a triple removed after a merge resurrects a
   tombstoned segment row.  A pool is either small and mixed, or dozens
   of subjects typed with one class: their removals swap rows inside
   [rdf:type] and class buckets of dozens of rows. *)
let gen_pool =
  let open QCheck.Gen in
  oneof
    [
      array_size (int_range 2 12) gen_data_triple;
      map
        (fun n ->
          Array.init n (fun i ->
              Rdf.Triple.make (uri (Printf.sprintf "s%d" i)) rdf_type (uri "C0")))
        (int_range 24 48);
    ]

let gen_ops =
  let open QCheck.Gen in
  let* pool = gen_pool in
  let pick =
    frequency
      [
        (3, map (Array.get pool) (int_bound (Array.length pool - 1)));
        (1, gen_data_triple);
      ]
  in
  let gen_op =
    frequency
      [
        (6, map (fun t -> Add t) pick);
        (4, map (fun t -> Remove t) pick);
        (1, return Merge);
      ]
  in
  list_size (int_range 5 (max 80 (4 * Array.length pool))) gen_op

let op_to_string = function
  | Add t -> "add " ^ Rdf.Triple.to_string t
  | Remove t -> "del " ^ Rdf.Triple.to_string t
  | Merge -> "merge"

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    gen_ops

module Triple_set = Set.Make (Rdf.Triple)

(* Does [ops] re-add a triple that a merge flushed into the segments
   and a later remove tombstoned?  Replays the backend's bookkeeping
   on plain sets: [merged] is the live set as of the last merge. *)
let resurrects_after_merge ops =
  let rec go live merged = function
    | [] -> false
    | Add t :: rest ->
      ((not (Triple_set.mem t live)) && Triple_set.mem t merged)
      || go (Triple_set.add t live) merged rest
    | Remove t :: rest -> go (Triple_set.remove t live) merged rest
    | Merge :: rest -> go live live rest
  in
  go Triple_set.empty Triple_set.empty ops

(* The differential property is only as strong as its sequences: a
   fixed sample of them must exercise tombstone resurrection across a
   merge, the path where a column's live count returns from 0. *)
let test_ops_cover_resurrection () =
  let sample =
    QCheck.Gen.generate ~rand:(Random.State.make [| 16 |]) ~n:200 gen_ops
  in
  let hits = List.length (List.filter resurrects_after_merge sample) in
  check_bool
    (Printf.sprintf "%d/200 sequences resurrect across a merge" hits)
    true (hits >= 50)

let sorted_triples st = List.sort compare (Rdf.Store.to_triples st)

(* The hash backend's scan order, modelled: each of a triple's seven
   buckets is a list that appends on add and, on remove, moves its last
   row into the hole.  The Barton generator and the ledger's
   fingerprints depend on this order. *)
type bucket_key =
  | All
  | S of Rdf.Term.t
  | P of Rdf.Term.t
  | O of Rdf.Term.t
  | SP of Rdf.Term.t * Rdf.Term.t
  | SO of Rdf.Term.t * Rdf.Term.t
  | PO of Rdf.Term.t * Rdf.Term.t

let bucket_keys { Rdf.Triple.s; p; o } =
  [ All; S s; P p; O o; SP (s, p); SO (s, o); PO (p, o) ]

let model_rows model key = Option.value ~default:[] (Hashtbl.find_opt model key)

let model_add model t =
  List.iter
    (fun key -> Hashtbl.replace model key (model_rows model key @ [ t ]))
    (bucket_keys t)

let model_remove model t =
  List.iter
    (fun key ->
      match List.rev (model_rows model key) with
      | [] -> assert false
      | last :: rest ->
        Hashtbl.replace model key
          (List.rev_map
             (fun row -> if Rdf.Triple.equal row t then last else row)
             rest))
    (bucket_keys t)

let scan_rows st key =
  let code term = Option.get (Rdf.Store.find_term st term) in
  let data, n =
    match key with
    | All -> Rdf.Store.scan_all st
    | S s -> Rdf.Store.scan1 st `S (code s)
    | P p -> Rdf.Store.scan1 st `P (code p)
    | O o -> Rdf.Store.scan1 st `O (code o)
    | SP (s, p) -> Rdf.Store.scan2 st `SP (code s) (code p)
    | SO (s, o) -> Rdf.Store.scan2 st `SO (code s) (code o)
    | PO (p, o) -> Rdf.Store.scan2 st `PO (code p) (code o)
  in
  let term i = Rdf.Store.decode_term st data.(i) in
  List.init n (fun i ->
      Rdf.Triple.make (term (3 * i)) (term ((3 * i) + 1)) (term ((3 * i) + 2)))

let check_scan_order hash model keys =
  List.iter
    (fun key ->
      if not (List.equal Rdf.Triple.equal (scan_rows hash key) (model_rows model key))
      then QCheck.Test.fail_report "hash scan order diverged from swap-remove")
    keys

(* Encode a term-level pattern against one store's own dictionary;
   [None] means some constant never entered the dictionary, i.e. the
   pattern cannot match. *)
let encode_pattern st (ts, tp, to_) =
  let enc = function
    | None -> Some None
    | Some term -> (
      match Rdf.Store.find_term st term with
      | Some code -> Some (Some code)
      | None -> None)
  in
  match (enc ts, enc tp, enc to_) with
  | Some ps, Some pp, Some po -> Some { Rdf.Store.ps; pp; po }
  | _ -> None

let count_pattern st tpat =
  match encode_pattern st tpat with
  | None -> 0
  | Some pat -> Rdf.Store.count_matching st pat

let matching_terms st tpat =
  match encode_pattern st tpat with
  | None -> []
  | Some pat ->
    Rdf.Store.fold_matching st pat
      (fun (s, p, o) acc ->
        ( Rdf.Store.decode_term st s,
          Rdf.Store.decode_term st p,
          Rdf.Store.decode_term st o )
        :: acc)
      []
    |> List.sort compare

(* Every pattern shape over the small term universe that the data
   generator draws from. *)
let probe_patterns ops =
  let terms =
    List.concat_map
      (function
        | Add t | Remove t -> [ t.Rdf.Triple.s; t.Rdf.Triple.p; t.Rdf.Triple.o ]
        | Merge -> [])
      ops
    |> List.sort_uniq compare
  in
  let some x = Some x in
  List.concat_map
    (fun t ->
      [
        (some t, None, None);
        (None, some t, None);
        (None, None, some t);
      ])
    terms
  @ List.concat_map
      (function
        | Add t | Remove t ->
          let s = some t.Rdf.Triple.s
          and p = some t.Rdf.Triple.p
          and o = some t.Rdf.Triple.o in
          [ (s, p, None); (s, None, o); (None, p, o); (s, p, o) ]
        | Merge -> [])
      ops
  @ [ (None, None, None) ]

let prop_differential =
  QCheck.Test.make ~name:"hash and compact agree under any interleaving"
    ~count:150 arb_ops (fun ops ->
      let hash = Rdf.Store.create ~backend:Rdf.Backend.Hash () in
      let compact = Rdf.Store.create ~backend:Rdf.Backend.Compact () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun op ->
          (match op with
          | Add t ->
            let rh = Rdf.Store.add hash t in
            let rc = Rdf.Store.add compact t in
            if rh <> rc then
              QCheck.Test.fail_reportf "add %s: hash=%b compact=%b"
                (Rdf.Triple.to_string t) rh rc;
            if rh then model_add model t;
            check_scan_order hash model (bucket_keys t)
          | Remove t ->
            let rh = Rdf.Store.remove hash t in
            let rc = Rdf.Store.remove compact t in
            if rh <> rc then
              QCheck.Test.fail_reportf "remove %s: hash=%b compact=%b"
                (Rdf.Triple.to_string t) rh rc;
            if rh then begin
              model_remove model t;
              check_scan_order hash model (bucket_keys t)
            end
          | Merge -> Rdf.Store.compact compact);
          if Rdf.Store.size hash <> Rdf.Store.size compact then
            QCheck.Test.fail_reportf "size diverged: hash=%d compact=%d"
              (Rdf.Store.size hash) (Rdf.Store.size compact);
          (* the version stamp contract: bumped on exactly the
             successful mutations, never by a merge *)
          if Rdf.Store.version hash <> Rdf.Store.version compact then
            QCheck.Test.fail_reportf "version diverged: hash=%d compact=%d"
              (Rdf.Store.version hash) (Rdf.Store.version compact);
          (* compact keeps its distinct counts up to date on every
             write, so they must agree after each op, not only at the
             end *)
          List.iter
            (fun col ->
              let dh = Rdf.Store.distinct_in_column hash col in
              let dc = Rdf.Store.distinct_in_column compact col in
              if dh <> dc then
                QCheck.Test.fail_reportf
                  "distinct_in_column diverged after %s: %d vs %d"
                  (op_to_string op) dh dc)
            [ `S; `P; `O ])
        ops;
      if sorted_triples hash <> sorted_triples compact then
        QCheck.Test.fail_report "triple sets diverged";
      check_scan_order hash model
        (Hashtbl.fold (fun key _ keys -> key :: keys) model []);
      List.iter
        (fun tpat ->
          let ch = count_pattern hash tpat in
          let cc = count_pattern compact tpat in
          if ch <> cc then
            QCheck.Test.fail_reportf "count_matching diverged: %d vs %d" ch cc;
          if matching_terms hash tpat <> matching_terms compact tpat then
            QCheck.Test.fail_report "fold_matching results diverged")
        (probe_patterns ops);
      List.iter
        (fun col ->
          let dh = Rdf.Store.distinct_in_column hash col in
          let dc = Rdf.Store.distinct_in_column compact col in
          if dh <> dc then
            QCheck.Test.fail_reportf "distinct_in_column diverged: %d vs %d" dh
              dc)
        [ `S; `P; `O ];
      true)

(* A compact write drops only the memoized scans of its triple's keys,
   and a merge drops none, so a memo entry filled before a write must
   still be exact after it.  After every op, every scan1/scan2 kind and
   scan_all over the keys of the triples drawn so far (removes included,
   read or not before) must hold the hash store's rows. *)
let key_terms = function
  | All -> []
  | S t | P t | O t -> [ t ]
  | SP (a, b) | SO (a, b) | PO (a, b) -> [ a; b ]

let sorted_scan st key =
  (* a term outside the dictionary matches no row *)
  if List.for_all (fun term -> Rdf.Store.find_term st term <> None) (key_terms key)
  then List.sort compare (scan_rows st key)
  else []

let prop_scans_fresh =
  QCheck.Test.make ~name:"compact scans stay fresh across writes" ~count:150 arb_ops
    (fun ops ->
      let hash = Rdf.Store.create ~backend:Rdf.Backend.Hash () in
      let compact = Rdf.Store.create ~backend:Rdf.Backend.Compact () in
      let keys = Hashtbl.create 64 in
      Hashtbl.replace keys All ();
      List.iter
        (fun op ->
          (match op with
          | Add t ->
            ignore (Rdf.Store.add hash t : bool);
            ignore (Rdf.Store.add compact t : bool);
            List.iter (fun key -> Hashtbl.replace keys key ()) (bucket_keys t)
          | Remove t ->
            ignore (Rdf.Store.remove hash t : bool);
            ignore (Rdf.Store.remove compact t : bool);
            List.iter (fun key -> Hashtbl.replace keys key ()) (bucket_keys t)
          | Merge -> Rdf.Store.compact compact);
          Hashtbl.iter
            (fun key () ->
              if sorted_scan hash key <> sorted_scan compact key then
                QCheck.Test.fail_reportf "a compact scan is stale after %s"
                  (op_to_string op))
            keys)
        ops;
      true)

(* A merge must leave contents, counts and version untouched. *)
let prop_merge_is_invisible =
  QCheck.Test.make ~name:"compact () preserves observable state" ~count:100
    arb_ops (fun ops ->
      let st = Rdf.Store.create ~backend:Rdf.Backend.Compact () in
      List.iter
        (function
          | Add t -> ignore (Rdf.Store.add st t : bool)
          | Remove t -> ignore (Rdf.Store.remove st t : bool)
          | Merge -> ())
        ops;
      let before = sorted_triples st in
      let v = Rdf.Store.version st in
      let counts =
        List.map (fun tpat -> count_pattern st tpat) (probe_patterns ops)
      in
      Rdf.Store.compact st;
      Rdf.Store.compact st;
      before = sorted_triples st
      && v = Rdf.Store.version st
      && counts = List.map (fun tpat -> count_pattern st tpat) (probe_patterns ops))

(* ---------- live-code counts ------------------------------------------- *)

(* Compact answers single-column counts and distinct counts from live
   counts that every write moves and no merge touches.  After every op
   they must equal the hash store's.  The first [Merge] of a sequence
   is a flush: [flood_rows] fresh typed rows, the memtable's flush
   floor, so the flush merges the pool's rows in the middle of the
   flood; later ones are [Store.compact].  Removes then hit segment
   rows (tombstones) and memtable rows, and re-adds resurrect. *)
let flood_rows = 16_384

let flood_triple i = triple (uri (Printf.sprintf "f%d" i)) rdf_type (uri "C0")

(* How [ops] meets each path, replayed on plain sets as
   [resurrects_after_merge] does: a remove of a merged row, a remove of
   a memtable row, a resurrection, and a merge by [compact] after the
   flush. *)
let live_count_paths ops =
  let rec go live merged flushed (seg, mem, res, compact) = function
    | [] -> (seg, mem, res, compact)
    | Add t :: rest ->
      let res = res || ((not (Triple_set.mem t live)) && Triple_set.mem t merged) in
      go (Triple_set.add t live) merged flushed (seg, mem, res, compact) rest
    | Remove t :: rest ->
      let here = Triple_set.mem t live in
      let seg = seg || (here && Triple_set.mem t merged)
      and mem = mem || (here && not (Triple_set.mem t merged)) in
      go (Triple_set.remove t live) merged flushed (seg, mem, res, compact) rest
    | Merge :: rest -> go live live true (seg, mem, res, compact || flushed) rest
  in
  go Triple_set.empty Triple_set.empty false (false, false, false, false) ops

let test_ops_cover_live_counts () =
  let sample =
    QCheck.Gen.generate ~rand:(Random.State.make [| 52 |]) ~n:200 gen_ops
  in
  let paths = List.map live_count_paths sample in
  let all = List.filter (fun (a, b, c, d) -> a && b && c && d) paths in
  check_bool
    (Printf.sprintf "%d/200 sequences remove segment and memtable rows, resurrect and compact"
       (List.length all))
    true
    (List.length all >= 50)

let prop_live_counts =
  QCheck.Test.make ~name:"compact counts and distincts agree after every op" ~count:40
    arb_ops (fun ops ->
      let hash = Rdf.Store.create ~backend:Rdf.Backend.Hash () in
      let compact = Rdf.Store.create ~backend:Rdf.Backend.Compact () in
      let both f t =
        ignore (f hash t : bool);
        ignore (f compact t : bool)
      in
      let flushed = ref false in
      let terms =
        List.sort_uniq compare
          (uri "f0" :: rdf_type :: uri "C0"
          :: List.concat_map
               (function
                 | Add t | Remove t -> [ t.Rdf.Triple.s; t.Rdf.Triple.p; t.Rdf.Triple.o ]
                 | Merge -> [])
               ops)
      in
      let check op =
        List.iter
          (fun term ->
            List.iter
              (fun tpat ->
                let ch = count_pattern hash tpat and cc = count_pattern compact tpat in
                if ch <> cc then
                  QCheck.Test.fail_reportf "count of %s diverged after %s: %d vs %d"
                    (Rdf.Term.to_string term) op ch cc)
              [ (Some term, None, None); (None, Some term, None); (None, None, Some term) ])
          terms;
        List.iter
          (fun col ->
            let dh = Rdf.Store.distinct_in_column hash col in
            let dc = Rdf.Store.distinct_in_column compact col in
            if dh <> dc then
              QCheck.Test.fail_reportf "distinct_in_column diverged after %s: %d vs %d" op
                dh dc)
          [ `S; `P; `O ]
      in
      List.iter
        (fun op ->
          (match op with
          | Add t -> both Rdf.Store.add t
          | Remove t -> both Rdf.Store.remove t
          | Merge when !flushed -> Rdf.Store.compact compact
          | Merge ->
            flushed := true;
            let reg = Obs.create () in
            Obs.set_global reg;
            Fun.protect ~finally:(fun () -> Obs.set_global Obs.disabled) (fun () ->
                for i = 0 to flood_rows - 1 do
                  both Rdf.Store.add (flood_triple i)
                done);
            if Obs.find_counter reg "store.memtable_flushes" <> Some 1 then
              QCheck.Test.fail_report "the flood did not flush the memtable once");
          check (op_to_string op))
        ops;
      true)

(* ---------- segment block-boundary edges --------------------------------- *)

(* Brute-force oracle over a plain row list. *)
let check_segment ~block_rows rows () =
  let sorted = List.sort compare rows in
  let arr = Array.make (3 * List.length sorted) 0 in
  List.iteri
    (fun i (a, b, c) ->
      arr.(3 * i) <- a;
      arr.((3 * i) + 1) <- b;
      arr.((3 * i) + 2) <- c)
    sorted;
  let seg =
    Rdf.Segment.of_sorted_array ~block_rows arr ~rows:(List.length sorted)
  in
  check_int "segment rows" (List.length sorted) (Rdf.Segment.n seg);
  let values =
    List.sort_uniq compare
      (List.concat_map (fun (a, b, c) -> [ a; b; c ]) sorted)
  in
  let candidates = -1 :: (values @ List.map (fun v -> v + 1) values) in
  List.iter
    (fun a ->
      let expect = List.length (List.filter (fun (x, _, _) -> x = a) sorted) in
      let lo, hi = Rdf.Segment.locate1 seg a in
      check_int (Printf.sprintf "locate1 %d" a) expect (hi - lo);
      List.iter
        (fun b ->
          let expect =
            List.length
              (List.filter (fun (x, y, _) -> x = a && y = b) sorted)
          in
          let lo, hi = Rdf.Segment.locate2 seg a b in
          check_int (Printf.sprintf "locate2 %d %d" a b) expect (hi - lo))
        candidates)
    candidates;
  List.iter
    (fun (a, b, c) ->
      check_bool "mem present" true (Rdf.Segment.mem seg a b c);
      check_bool "mem absent" false (Rdf.Segment.mem seg a b (c + 1000)))
    sorted;
  (* full enumeration round-trips *)
  let got = ref [] in
  Rdf.Segment.iter_all seg (fun a b c -> got := (a, b, c) :: !got);
  check_bool "iter_all round-trip" true (List.rev !got = sorted)

let rows_n n = List.init n (fun i -> (i / 4, i mod 4, (7 * i) mod 11))

(* A segment of 5,000 four-row blocks, five times the decoded-block
   cache's 1,024, read at every leading key (even keys present in runs
   of 1 to 11 rows, odd keys absent) in descending order and then in a
   stride that jumps across the segment.  Every answer equals the
   sorted array's; the resident bytes never exceed the construction's
   by more than 1,024 decoded blocks and reach that bound; and once the
   cache is full, an operation decodes an uncached block once however
   often it reads it: the strided pass counts exactly 108,186 decodes. *)
let test_segment_cache_bound () =
  let rows = 20_000 and block_rows = 4 in
  let arr = Array.make (3 * rows) 0 in
  let a = ref 0 and run = ref 0 in
  for i = 0 to rows - 1 do
    if !run = 1 + (!a * 7 mod 11) then begin
      incr a;
      run := 0
    end;
    arr.(3 * i) <- 2 * !a;
    arr.((3 * i) + 1) <- !run;
    arr.((3 * i) + 2) <- 2 * i;
    incr run
  done;
  let keys = (2 * !a) + 3 in
  (* the oracle: each leading key's rank interval, by one pass *)
  let first = Array.make keys rows and last = Array.make keys rows in
  for i = rows - 1 downto 0 do
    let k = arr.(3 * i) in
    if last.(k) = rows then last.(k) <- i + 1;
    first.(k) <- i
  done;
  let seg = Rdf.Segment.of_sorted_array ~block_rows arr ~rows in
  let blocks = (rows + block_rows - 1) / block_rows in
  let bound = 1_024 * 3 * block_rows * 8 in
  let base = Rdf.Segment.resident_bytes seg in
  let reg = Obs.create () in
  Obs.set_global reg;
  Fun.protect ~finally:(fun () -> Obs.set_global Obs.disabled) @@ fun () ->
  let decodes () = Option.value ~default:0 (Obs.find_counter reg "store.block_decodes") in
  let read k =
    let lo, hi = Rdf.Segment.locate1 seg k in
    if max 0 (hi - lo) <> last.(k) - first.(k) || (hi > lo && lo <> first.(k)) then
      Alcotest.failf "locate1 %d: [%d, %d), want [%d, %d)" k lo hi first.(k) last.(k);
    if hi <= lo && Rdf.Segment.mem seg k 0 0 then Alcotest.failf "mem (%d, 0, 0)" k;
    let rd = Rdf.Segment.Reader.create seg in
    let next = ref lo in
    Rdf.Segment.Reader.iter_range rd lo hi (fun x y z ->
        let i = !next in
        if (x, y, z) <> (arr.(3 * i), arr.((3 * i) + 1), arr.((3 * i) + 2)) then
          Alcotest.failf "iter_range %d: row %d" k i;
        incr next);
    Rdf.Segment.Reader.finish rd;
    if !next <> max lo hi then Alcotest.failf "iter_range %d: %d rows" k (!next - lo);
    for i = lo to hi - 1 do
      let x = arr.(3 * i) and y = arr.((3 * i) + 1) and z = arr.((3 * i) + 2) in
      if not (Rdf.Segment.mem seg x y z) then Alcotest.failf "mem row %d" i;
      if Rdf.Segment.mem seg x y (z + 1) then Alcotest.failf "mem absent %d" i
    done;
    let grown = Rdf.Segment.resident_bytes seg - base in
    if grown > bound then Alcotest.failf "resident bytes grew by %d > %d" grown bound
  in
  check_int "blocks" 5_000 blocks;
  for k = keys - 1 downto 0 do
    read k
  done;
  check_int "the cache is full" bound (Rdf.Segment.resident_bytes seg - base);
  let full = decodes () in
  let stride = 997 in
  check_bool "the stride visits every key" true (keys mod stride <> 0);
  for j = 0 to keys - 1 do
    read (j * stride mod keys)
  done;
  check_int "the cache stays full" bound (Rdf.Segment.resident_bytes seg - base);
  check_int
    (Printf.sprintf "decodes past a full cache, for %d uncached blocks" (blocks - 1_024))
    108_186 (decodes () - full)

let segment_edge_tests =
  [
    Alcotest.test_case "empty segment" `Quick (check_segment ~block_rows:4 []);
    Alcotest.test_case "single partial block" `Quick
      (check_segment ~block_rows:4 (rows_n 3));
    Alcotest.test_case "exactly one full block" `Quick
      (check_segment ~block_rows:4 (rows_n 4));
    Alcotest.test_case "exact multiple of block size" `Quick
      (check_segment ~block_rows:4 (rows_n 16));
    Alcotest.test_case "run spanning blocks" `Quick
      (check_segment ~block_rows:4
         (List.init 13 (fun i -> (5, i, i)) @ rows_n 7));
    Alcotest.test_case "uniform leading value" `Quick
      (check_segment ~block_rows:4 (List.init 10 (fun i -> (1, i / 3, i))));
    Alcotest.test_case "decoded-block cache bound" `Quick test_segment_cache_bound;
  ]

(* A block whose every row is tombstoned: remove all merged triples,
   leaving only tombstones over the segments. *)
let test_tombstone_only_block () =
  let st = Rdf.Store.create ~backend:Rdf.Backend.Compact () in
  let trs =
    List.init 10 (fun i ->
        triple (uri (Printf.sprintf "s%d" i)) (uri "p") (lit "x"))
  in
  List.iter (fun t -> ignore (Rdf.Store.add st t : bool)) trs;
  Rdf.Store.compact st;
  List.iter (fun t -> check_bool "removed" true (Rdf.Store.remove st t)) trs;
  check_int "empty size" 0 (Rdf.Store.size st);
  (match Rdf.Store.find_term st (uri "p") with
  | Some p ->
    check_int "tombstoned count" 0
      (Rdf.Store.count_matching st
         { Rdf.Store.ps = None; pp = Some p; po = None });
    let _, n = Rdf.Store.scan1 st `P p in
    check_int "tombstoned scan" 0 n
  | None -> Alcotest.fail "p must be in the dictionary");
  check_int "distinct S" 0 (Rdf.Store.distinct_in_column st `S);
  (* merging away the tombstones must change nothing observable *)
  Rdf.Store.compact st;
  check_int "still empty" 0 (Rdf.Store.size st);
  check_bool "re-add after purge" true (Rdf.Store.add st (List.hd trs))

(* A larger deterministic workload crosses many block boundaries once
   merged (Barton at 300 entities is ~1800 triples = several blocks). *)
let test_barton_scale_parity () =
  let hash = Workload.Barton.store ~n_entities:300 ~seed:7 () in
  let compact = Rdf.Store.create ~backend:Rdf.Backend.Compact () in
  Rdf.Store.fold_all hash
    (fun (s, p, o) () ->
      let t =
        Rdf.Triple.make
          (Rdf.Store.decode_term hash s)
          (Rdf.Store.decode_term hash p)
          (Rdf.Store.decode_term hash o)
      in
      ignore (Rdf.Store.add compact t : bool))
    ();
  Rdf.Store.compact compact;
  check_int "sizes" (Rdf.Store.size hash) (Rdf.Store.size compact);
  List.iter
    (fun col ->
      check_int "distinct"
        (Rdf.Store.distinct_in_column hash col)
        (Rdf.Store.distinct_in_column compact col))
    [ `S; `P; `O ];
  (* every property bucket agrees in both count and content *)
  List.iter
    (fun code_h ->
      let term = Rdf.Store.decode_term hash code_h in
      let tpat = (None, Some term, None) in
      check_int "bucket count" (count_pattern hash tpat)
        (count_pattern compact tpat);
      check_bool "bucket content" true
        (matching_terms hash tpat = matching_terms compact tpat))
    (List.sort_uniq Int.compare (Rdf.Store.fold_all hash (fun (_, p, _) acc -> p :: acc) []));
  check_bool "compact resident bytes below hash" true
    (Rdf.Store.resident_bytes compact < Rdf.Store.resident_bytes hash)

(* Distinct counts and single-column counts on compact are kept on
   write: with a memtable of over 10k adds and tombstones over a merged
   segment, answering them decodes, hits and skips no segment block at
   all, while a pair count still reads the segment. *)
let test_distinct_reads_no_blocks () =
  let hash = Rdf.Store.create ~backend:Rdf.Backend.Hash () in
  let compact = Rdf.Store.create ~backend:Rdf.Backend.Compact () in
  let tr i =
    triple
      (uri (Printf.sprintf "s%d" (i / 3)))
      (uri (Printf.sprintf "p%d" (i mod 7)))
      (lit (Printf.sprintf "o%d" (i mod 1009)))
  in
  let both f i =
    ignore (f hash (tr i) : bool);
    ignore (f compact (tr i) : bool)
  in
  for i = 0 to 11_999 do
    both Rdf.Store.add i
  done;
  Rdf.Store.compact compact;
  (* 5.5k tombstones (every other merged row) and 6k memtable adds:
     11.5k pending rows, under the 16384-row flush threshold *)
  for i = 0 to 5_499 do
    both Rdf.Store.remove (2 * i)
  done;
  for i = 12_000 to 17_999 do
    both Rdf.Store.add i
  done;
  let reg = Obs.create () in
  Obs.set_global reg;
  Fun.protect ~finally:(fun () -> Obs.set_global Obs.disabled) @@ fun () ->
  let block_counters () =
    List.map
      (fun name -> Option.value ~default:0 (Obs.find_counter reg name))
      [ "store.block_decodes"; "store.block_cache_hits"; "store.block_skips" ]
  in
  let before = block_counters () in
  List.iter
    (fun col ->
      check_int "distinct matches hash"
        (Rdf.Store.distinct_in_column hash col)
        (Rdf.Store.distinct_in_column compact col))
    [ `S; `P; `O ];
  Alcotest.(check (list int)) "no block touched" before (block_counters ());
  let code term =
    match Rdf.Store.find_term compact term with
    | Some code -> code
    | None -> Alcotest.failf "%s must be in the dictionary" (Rdf.Term.to_string term)
  in
  let counts_match pat =
    check_int "count matches hash" (Rdf.Store.count_matching hash pat)
      (Rdf.Store.count_matching compact pat)
  in
  List.iter counts_match
    [
      { Rdf.Store.ps = Some (code (uri "s1")); pp = None; po = None };
      { Rdf.Store.ps = None; pp = Some (code (uri "p3")); po = None };
      { Rdf.Store.ps = None; pp = None; po = Some (code (lit "o3")) };
    ];
  Alcotest.(check (list int)) "a single-column count touches no block" before
    (block_counters ());
  (* the counters are live: one pair probe reads the segment *)
  counts_match { Rdf.Store.ps = Some (code (uri "s1")); pp = Some (code (uri "p3")); po = None };
  check_bool "a pair probe touches blocks" true (block_counters () <> before)

(* A compact write reads no memtable index, so a load with no read
   leaves the memtable unindexed.  The first pair count indexes it, and
   resident bytes grow by exactly what indexing the same rows costs a
   lone hash backend: before that read the six indexes held nothing. *)
let test_load_leaves_memtable_unindexed () =
  let rows = 5_000 in
  let row i = (i / 4, 5_000 + (i mod 11), 6_000 + (7 * i mod 1_009)) in
  let st = Rdf.Store.create ~backend:Rdf.Backend.Compact () in
  let h = Rdf.Hash_backend.create () in
  for i = 0 to rows - 1 do
    let s, p, o = row i in
    ignore (Rdf.Store.add_encoded st (s, p, o) : bool);
    ignore (Rdf.Hash_backend.add h s p o : bool)
  done;
  let unindexed = Rdf.Hash_backend.resident_bytes h in
  Rdf.Hash_backend.compact h;
  let indexing = Rdf.Hash_backend.resident_bytes h - unindexed in
  check_bool "indexing costs bytes" true (indexing > 0);
  let loaded = Rdf.Store.resident_bytes st in
  let s, p, _ = row 0 in
  check_int "pair count" 1
    (Rdf.Store.count_matching st { Rdf.Store.ps = Some s; pp = Some p; po = None });
  check_int "the first read indexes the memtable" indexing
    (Rdf.Store.resident_bytes st - loaded)

(* The merge's radix sort against [Array.sort compare], in all three
   segment orders, on rows whose codes span the whole 31-bit range and
   repeat: each cell comes from a pool of six codes half the time, so
   leading columns (and whole rows) tie. *)
let prop_sorted_rotation =
  let open QCheck.Gen in
  let code31 = map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0x7FFF) (int_bound 0xFFFF) in
  let gen =
    let* pool = array_repeat 6 code31 in
    let pool = Array.append pool [| 0; (1 lsl 31) - 1 |] in
    let cell = oneof [ map (Array.get pool) (int_bound (Array.length pool - 1)); code31 ] in
    let* k = int_range 0 300 in
    let+ cells = array_repeat (3 * k) cell in
    (k, cells)
  in
  QCheck.Test.make ~name:"the rotation sort agrees with Array.sort" ~count:200
    (QCheck.make
       ~print:(fun (_, cells) ->
         String.concat " " (Array.to_list (Array.map string_of_int cells)))
       gen)
    (fun (k, rows) ->
      List.for_all
        (fun (da, db, dc) ->
          let want =
            Array.init k (fun i -> (rows.((3 * i) + da), rows.((3 * i) + db), rows.((3 * i) + dc)))
          in
          Array.sort compare want;
          let got = Rdf.Compact_backend.sorted_rotation rows k ~da ~db ~dc in
          Array.length got = 3 * k
          && Array.for_all Fun.id
               (Array.mapi
                  (fun i (a, b, c) ->
                    got.(3 * i) = a && got.((3 * i) + 1) = b && got.((3 * i) + 2) = c)
                  want))
        [ (0, 1, 2); (1, 2, 0); (2, 0, 1) ])

(* Two stores, one per backend, fed the same triples in the same order,
   so their dictionaries hand out the same codes. *)
let store_pair triples =
  let hash = Rdf.Store.create ~backend:Rdf.Backend.Hash () in
  let compact = Rdf.Store.create ~backend:Rdf.Backend.Compact () in
  List.iter
    (fun t ->
      ignore (Rdf.Store.add hash t : bool);
      ignore (Rdf.Store.add compact t : bool))
    triples;
  (hash, compact)

let sorted_rows (data, n) =
  List.sort compare
    (List.init n (fun i -> (data.(3 * i), data.((3 * i) + 1), data.((3 * i) + 2))))

type scan_key =
  | One of [ `S | `P | `O ] * int
  | Two of [ `SP | `PO | `SO ] * int * int

(* Every scan1/scan2 key of the rows [(s, p, o)], each once. *)
let scan_keys rows =
  List.sort_uniq compare
    (List.concat_map
       (fun (s, p, o) ->
         [
           One (`S, s); One (`P, p); One (`O, o);
           Two (`SP, s, p); Two (`PO, p, o); Two (`SO, s, o);
         ])
       rows)

let run_scan st = function
  | One (col, a) -> Rdf.Store.scan1 st col a
  | Two (cols, a, b) -> Rdf.Store.scan2 st cols a b

let check_scans_match hash compact keys =
  List.iter
    (fun key ->
      if sorted_rows (run_scan hash key) <> sorted_rows (run_scan compact key)
      then Alcotest.fail "a compact scan differs from the hash backend's")
    keys

let block_counters reg =
  List.map
    (fun name -> Option.value ~default:0 (Obs.find_counter reg name))
    [ "store.block_decodes"; "store.block_cache_hits"; "store.block_skips" ]

(* A compact scan that misses its memo locates and copies its rows
   through one segment reader.  The block counts are sums over the
   blocks read, so they are pinned: the same memo-missing scan1/scan2
   calls over a merged Barton store decode, hit and skip exactly as
   many blocks as when the locate and the copy each ran a reader of
   their own.  Then tombstones: a write drops only the memoized scans
   of its own triple's keys, so the scans of the keys the removals
   touched read blocks again, and every other scan is a memo hit that
   reads none. *)
let test_scan_block_counts () =
  let triples = Rdf.Store.to_triples (Workload.Barton.store ~n_entities:300 ~seed:7 ()) in
  let hash, compact = store_pair triples in
  Rdf.Store.compact compact;
  (* every distinct key of the first 60 rows in scan order, all misses *)
  let keys =
    scan_keys (List.filteri (fun i _ -> i < 60) (sorted_rows (Rdf.Store.scan_all hash)))
  in
  let reg = Obs.create () in
  Obs.set_global reg;
  Fun.protect ~finally:(fun () -> Obs.set_global Obs.disabled) @@ fun () ->
  let phase keys =
    let before = block_counters reg in
    check_scans_match hash compact keys;
    List.map2 ( - ) (block_counters reg) before
  in
  Alcotest.(check (list int)) "merged: decodes, hits, skips" [ 27; 1878; 3185 ] (phase keys);
  (* tombstones over every fifth row, under the flush threshold *)
  let removed = List.filteri (fun i _ -> i mod 5 = 0) triples in
  List.iter
    (fun t ->
      ignore (Rdf.Store.remove hash t : bool);
      ignore (Rdf.Store.remove compact t : bool))
    removed;
  let code term = Option.get (Rdf.Store.find_term hash term) in
  let written =
    scan_keys (List.map (fun { Rdf.Triple.s; p; o } -> (code s, code p, code o)) removed)
  in
  let touched, untouched = List.partition (fun k -> List.mem k written) keys in
  check_bool "some keys touched, some not" true (touched <> [] && untouched <> []);
  Alcotest.(check (list int)) "tombstoned, touched keys: decodes, hits, skips" [ 0; 769; 1517 ]
    (phase touched);
  Alcotest.(check (list int)) "tombstoned, untouched keys: decodes, hits, skips" [ 0; 0; 0 ]
    (phase untouched)

(* More distinct scan keys than the memo holds, with no write between
   them: the memo resets itself when full, and every scan, before and
   after a reset, still equals the hash backend's. *)
let test_scan_memo_overflow () =
  let tr i =
    triple
      (uri (Printf.sprintf "s%d" (i / 3)))
      (uri (Printf.sprintf "p%d" (i mod 7)))
      (lit (Printf.sprintf "o%d" i))
  in
  let hash, compact = store_pair (List.init 9_000 tr) in
  Rdf.Store.compact compact;
  for i = 9_000 to 9_999 do
    ignore (Rdf.Store.add hash (tr i) : bool);
    ignore (Rdf.Store.add compact (tr i) : bool)
  done;
  for i = 0 to 499 do
    ignore (Rdf.Store.remove hash (tr (7 * i)) : bool);
    ignore (Rdf.Store.remove compact (tr (7 * i)) : bool)
  done;
  let keys = scan_keys (sorted_rows (Rdf.Store.scan_all hash)) in
  check_bool "more keys than the memo holds" true
    (List.length keys > Rdf.Compact_backend.scan_cache_max_keys);
  check_scans_match hash compact keys;
  check_scans_match hash compact (List.rev keys)

(* ---------- flat int tables ---------------------------------------------- *)

(* Codes and triples whose slot hash ends in four 1 bits: at every
   capacity up to 16 slots they share the last slot as their home, so
   they collide, wrap past the end of the slot array, and exercise
   backward-shift deletion across the wrap.  A code is hashed as a
   bucket index hashes its key, as a width-1 row.  Mixed with a few
   codes and triples that hash anywhere. *)
let end_home h = h land 15 = 15

let hot_codes =
  let rec colliding acc c =
    if List.length acc = 6 then List.rev acc
    else colliding (if end_home (Rdf.Rowset.hash [| c |]) then c :: acc else acc) (c + 1)
  in
  Array.of_list (colliding [] 0 @ [ 0; 1; 2 ])

let hot_triples =
  let n = Array.length hot_codes in
  List.init (n * n * n) (fun i ->
      (hot_codes.(i mod n), hot_codes.(i / n mod n), hot_codes.(i / (n * n))))
  |> List.filteri (fun i (s, p, o) -> end_home (Rdf.Rowset.hash [| s; p; o |]) || i mod 7 = 0)
  |> Array.of_list

type table_op = Add3 of int | Remove3 of int | Probe3 of int

(* A read-free prefix of up to 60 writes, then up to 120 ops of which
   one in ten reads: without the prefix few sequences remove a live row
   before their first read. *)
let arb_table_ops =
  let open QCheck.Gen in
  let pick = int_bound (Array.length hot_triples - 1) in
  let write = [ (5, map (fun i -> Add3 i) pick); (4, map (fun i -> Remove3 i) pick) ] in
  let op = frequency ((1, map (fun i -> Probe3 i) pick) :: write) in
  let print op =
    let verb, i =
      match op with
      | Add3 i -> ("add", i)
      | Remove3 i -> ("del", i)
      | Probe3 i -> ("mem", i)
    in
    let s, p, o = hot_triples.(i) in
    Printf.sprintf "%s (%d, %d, %d)" verb s p o
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print ops))
    (map2 ( @ ) (list_size (int_range 0 60) (frequency write)) (list_size (int_range 1 120) op))

module Int3_set = Set.Make (struct
  type t = int * int * int

  let compare = compare
end)

let rows_of (data, n) =
  List.sort compare
    (List.init n (fun i -> (data.(3 * i), data.((3 * i) + 1), data.((3 * i) + 2))))

let select model pred = Int3_set.elements (Int3_set.filter pred model)

(* The hash backend against a reference set: size, the rows each triple
   records in its membership slot and buckets, and membership, counts
   and scans of the given triples' keys in all six indexes. *)
let check_hash_keys h model keys =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  if Rdf.Hash_backend.size h <> Int3_set.cardinal model then
    fail "size %d, expected %d" (Rdf.Hash_backend.size h) (Int3_set.cardinal model);
  if not (Rdf.Hash_backend.rows_consistent h) then
    fail "recorded rows no longer point at their triples";
  List.iter
    (fun ((s, p, o) as tr) ->
      if Rdf.Hash_backend.mem h s p o <> Int3_set.mem tr model then
        fail "mem (%d, %d, %d)" s p o;
      List.iter
        (fun (col, c, sel) ->
          let want = select model sel in
          if Rdf.Hash_backend.count1 h col c <> List.length want then fail "count1 %d" c;
          if rows_of (Rdf.Hash_backend.scan1 h col c) <> want then fail "scan1 %d" c)
        [
          (`S, s, fun (s', _, _) -> s' = s);
          (`P, p, fun (_, p', _) -> p' = p);
          (`O, o, fun (_, _, o') -> o' = o);
        ];
      List.iter
        (fun (cols, a, b, sel) ->
          let want = select model sel in
          if Rdf.Hash_backend.count2 h cols a b <> List.length want then
            fail "count2 (%d, %d)" a b;
          if rows_of (Rdf.Hash_backend.scan2 h cols a b) <> want then
            fail "scan2 (%d, %d)" a b)
        [
          (`SP, s, p, fun (s', p', _) -> s' = s && p' = p);
          (`SO, s, o, fun (s', _, o') -> s' = s && o' = o);
          (`PO, p, o, fun (_, p', o') -> p' = p && o' = o);
        ])
    keys

(* Everything: every hot triple's keys, the all-triples scan and the
   distinct codes of each column. *)
let check_hash_backend h model =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  check_hash_keys h model (Array.to_list hot_triples);
  if rows_of (Rdf.Hash_backend.scan_all h) <> Int3_set.elements model then
    fail "scan_all";
  List.iter
    (fun (col, get) ->
      let codes = List.sort_uniq compare (List.map get (Int3_set.elements model)) in
      if Rdf.Hash_backend.distinct_in_column h col <> List.length codes then
        fail "distinct_in_column")
    [ (`S, fun (s, _, _) -> s); (`P, fun (_, p, _) -> p); (`O, fun (_, _, o) -> o) ]

(* The hash backend against a reference set.  With [read_every_op]
   each op is followed by a read of its triple's keys, so the store is
   indexed from its first add.  Without it only [Probe3] reads: until
   the first one the store is unindexed, so removes meet rows in the
   triple set only, and between reads only what reads the triple set
   (size, mem) and the checker (which must not index) run. *)
let prop_hash_backend_model ~name ~read_every_op =
  QCheck.Test.make ~name ~count:300 arb_table_ops (fun ops ->
      let h = Rdf.Hash_backend.create () in
      List.fold_left
        (fun model op ->
          let i = match op with Add3 i | Remove3 i | Probe3 i -> i in
          let ((s, p, o) as tr) = hot_triples.(i) in
          let model =
            match op with
            | Add3 _ ->
              if Rdf.Hash_backend.add h s p o = Int3_set.mem tr model then
                QCheck.Test.fail_reportf "add %d" i;
              Int3_set.add tr model
            | Remove3 _ ->
              if Rdf.Hash_backend.remove h s p o <> Int3_set.mem tr model then
                QCheck.Test.fail_reportf "remove %d" i;
              Int3_set.remove tr model
            | Probe3 _ -> model
          in
          (match op with
          | Probe3 _ -> check_hash_keys h model [ tr ]
          | Add3 _ | Remove3 _ when read_every_op -> check_hash_keys h model [ tr ]
          | Add3 _ | Remove3 _ ->
            if Rdf.Hash_backend.size h <> Int3_set.cardinal model then
              QCheck.Test.fail_reportf "size after op on %d" i;
            if Rdf.Hash_backend.mem h s p o <> Int3_set.mem tr model then
              QCheck.Test.fail_reportf "mem after op on %d" i;
            if not (Rdf.Hash_backend.rows_consistent h) then
              QCheck.Test.fail_reportf "indexed rows inconsistent after op on %d" i);
          model)
        Int3_set.empty ops
      |> check_hash_backend h;
      true)

let prop_hash_backend_tables =
  prop_hash_backend_model ~name:"flat tables: hash backend against a reference set"
    ~read_every_op:true

let prop_hash_backend_pending =
  prop_hash_backend_model ~name:"flat tables: pending rows against a reference set"
    ~read_every_op:false

(* Once a hash store has had its first read, its buckets hold the same
   rows in the same order as the same adds and removes on a store read
   after every op from that read on, whichever reads come between.
   Before it, nothing is indexed: the checker holds (every index is
   empty), and the first read of a nonempty store grows its resident
   bytes, which no later read changes. *)
let prop_hash_order_after_first_read =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let read h (s, _, _) = ignore (Rdf.Hash_backend.count1 h `S s : int) in
  let scans h (s, p, o) =
    let rows (data, n) = Array.sub data 0 (3 * n) in
    List.map
      (fun (col, c) -> rows (Rdf.Hash_backend.scan1 h col c))
      [ (`S, s); (`P, p); (`O, o) ]
    @ List.map
        (fun (cols, a, b) -> rows (Rdf.Hash_backend.scan2 h cols a b))
        [ (`SP, s, p); (`SO, s, o); (`PO, p, o) ]
  in
  QCheck.Test.make ~name:"flat tables: bucket order is fixed from the first read"
    ~count:300 arb_table_ops (fun ops ->
      let h = Rdf.Hash_backend.create () and eager = Rdf.Hash_backend.create () in
      let same_order trs =
        List.iter
          (fun ((s, p, o) as tr) ->
            if scans h tr <> scans eager tr then fail "scan order at (%d, %d, %d)" s p o)
          trs
      in
      let read_yet =
        List.fold_left
          (fun read_yet op ->
            match op with
            | Probe3 i ->
              let tr = hot_triples.(i) in
              let before = Rdf.Hash_backend.resident_bytes h in
              read h tr;
              read eager tr;
              let after = Rdf.Hash_backend.resident_bytes h in
              if read_yet && after <> before then fail "a later read wrote the indexes";
              if (not read_yet) && Rdf.Hash_backend.size h > 0 && after <= before then
                fail "the first read indexed nothing";
              same_order [ tr ];
              true
            | Add3 i | Remove3 i ->
              let ((s, p, o) as tr) = hot_triples.(i) in
              let write =
                match op with
                | Add3 _ -> Rdf.Hash_backend.add
                | _ -> Rdf.Hash_backend.remove
              in
              ignore (write h s p o : bool);
              ignore (write eager s p o : bool);
              if read_yet then read eager tr;
              if not (Rdf.Hash_backend.rows_consistent h) then
                fail "inconsistent after op on %d" i;
              read_yet)
          false ops
      in
      if read_yet then same_order (Array.to_list hot_triples);
      true)

(* How a remove meets the hash backend, replayed on the model: before
   the first read ([Probe3]) a live triple is in the triple set only,
   after it in the six indexes too. *)
type remove_kind = Of_unindexed | Of_indexed

let remove_kinds ops =
  let step (live, read, kinds) = function
    | Add3 i -> (Int3_set.add hot_triples.(i) live, read, kinds)
    | Remove3 i ->
      let tr = hot_triples.(i) in
      let kind =
        if not (Int3_set.mem tr live) then []
        else if read then [ Of_indexed ]
        else [ Of_unindexed ]
      in
      (Int3_set.remove tr live, read, kind @ kinds)
    | Probe3 _ -> (live, true, kinds)
  in
  let _, _, kinds = List.fold_left step (Int3_set.empty, false, []) ops in
  kinds

(* The pending-rows property is only as strong as its sequences: a fixed
   sample of them must remove each kind of row, in many sequences. *)
let test_ops_cover_pending_removes () =
  let sample =
    QCheck.Gen.generate ~rand:(Random.State.make [| 45 |]) ~n:300
      (QCheck.get_gen arb_table_ops)
  in
  List.iter
    (fun (kind, name) ->
      let hits =
        List.length (List.filter (fun ops -> List.mem kind (remove_kinds ops)) sample)
      in
      check_bool
        (Printf.sprintf "%d/300 sequences remove %s" hits name)
        true (hits >= 50))
    [
      (Of_unindexed, "a row before the first read");
      (Of_indexed, "a row after the first read");
    ]

(* A store built by adds and then read holds every bucket in the order
   of a store read after each add: the six indexes are filled one at a
   time, each in row order.  [Store.fold_scan]'s newest-first order,
   and through it the Barton generator and the ledger's fingerprints,
   depend on this. *)
let test_bulk_order () =
  let rand = Random.State.make [| 7 |] in
  let triples =
    List.init 3_000 (fun _ ->
        ( Random.State.int rand 60,
          Random.State.int rand 9,
          Random.State.int rand 200 ))
  in
  let bulk = Rdf.Hash_backend.create () in
  let stepwise = Rdf.Hash_backend.create () in
  List.iter
    (fun (s, p, o) ->
      ignore (Rdf.Hash_backend.add bulk s p o : bool);
      if Rdf.Hash_backend.add stepwise s p o then
        ignore (Rdf.Hash_backend.count1 stepwise `S s : int))
    triples;
  let rows (data, n) = Array.sub data 0 (3 * n) in
  List.iter
    (fun (s, p, o) ->
      List.iter
        (fun (col, c) ->
          check_bool "scan1 rows in order" true
            (rows (Rdf.Hash_backend.scan1 bulk col c)
            = rows (Rdf.Hash_backend.scan1 stepwise col c)))
        [ (`S, s); (`P, p); (`O, o) ];
      List.iter
        (fun (cols, a, b) ->
          check_bool "scan2 rows in order" true
            (rows (Rdf.Hash_backend.scan2 bulk cols a b)
            = rows (Rdf.Hash_backend.scan2 stepwise cols a b)))
        [ (`SP, s, p); (`SO, s, o); (`PO, p, o) ])
    triples;
  check_int "same resident bytes"
    (Rdf.Hash_backend.resident_bytes stepwise)
    (Rdf.Hash_backend.resident_bytes bulk);
  check_bool "consistent" true (Rdf.Hash_backend.rows_consistent bulk);
  (* A bucket holds the triple set's order at the first read, then add
     order.  X, B and C share the bucket of predicate 5; A does not.
     Read after X and A, the store indexes B and C as they are added,
     so removing A leaves the bucket in add order, as when read after
     every add.  Never read, the remove moves C, the set's last row,
     into A's row, and the first read indexes the set in that order. *)
  let x = (1, 5, 1) and a = (2, 6, 2) and b = (3, 5, 3) and c = (4, 5, 4) in
  let p5_after ~read_after =
    let h = Rdf.Hash_backend.create () in
    let read () = ignore (Rdf.Hash_backend.count1 h `S 0 : int) in
    List.iter
      (fun (s, p, o) ->
        ignore (Rdf.Hash_backend.add h s p o : bool);
        if read_after (s, p, o) then read ())
      [ x; a; b; c ];
    let s, p, o = a in
    check_bool "remove a" true (Rdf.Hash_backend.remove h s p o);
    check_bool "consistent after remove" true (Rdf.Hash_backend.rows_consistent h);
    let data, n = Rdf.Hash_backend.scan1 h `P 5 in
    List.init n (fun i -> (data.(3 * i), data.((3 * i) + 1), data.((3 * i) + 2)))
  in
  let subjects = List.map (fun (s, _, _) -> s) in
  List.iter
    (fun (name, read_after, want) ->
      Alcotest.(check (list int)) name (subjects want) (subjects (p5_after ~read_after)))
    [
      ("read after x, a", (fun tr -> tr = a), [ x; b; c ]);
      ("never read", (fun _ -> false), [ x; c; b ]);
      ("read after every add", (fun _ -> true), [ x; b; c ]);
    ]

(* Plans and warm evaluations key on [Store.version]: a store's first
   read, which indexes its rows, writes the backend but not the store's
   contents, so the version stays.  The resident bytes, which report
   what is indexed now, witness that the read did index. *)
let test_indexing_read_keeps_version () =
  let st = Rdf.Store.create ~backend:Rdf.Backend.Hash () in
  for i = 0 to 199 do
    ignore
      (Rdf.Store.add st
         (triple (uri (Printf.sprintf "s%d" (i / 4))) (uri "p") (lit (string_of_int i)))
        : bool)
  done;
  let v = Rdf.Store.version st in
  let before = Rdf.Store.resident_bytes st in
  let p = Option.get (Rdf.Store.find_term st (uri "p")) in
  check_int "count after a backlog" 200
    (Rdf.Store.count_matching st { Rdf.Store.ps = None; pp = Some p; po = None });
  check_bool "the read indexed" true (Rdf.Store.resident_bytes st > before);
  check_int "version unchanged" v (Rdf.Store.version st);
  Rdf.Store.compact st;
  check_int "compact leaves the version" v (Rdf.Store.version st)

(* Remove-then-re-add of every triple, in insertion and reverse order:
   each removal moves a last row into the hole, each re-add appends. *)
let test_hash_backend_readd () =
  let h = Rdf.Hash_backend.create () in
  let all = Array.to_list hot_triples in
  let model = Int3_set.of_list all in
  List.iter (fun (s, p, o) -> ignore (Rdf.Hash_backend.add h s p o : bool)) all;
  List.iter
    (fun order ->
      List.iter
        (fun ((s, p, o) as tr) ->
          check_bool "removed" true (Rdf.Hash_backend.remove h s p o);
          check_hash_keys h (Int3_set.remove tr model) [ tr ];
          check_bool "re-added" true (Rdf.Hash_backend.add h s p o);
          check_hash_keys h model [ tr ])
        order)
    [ all; List.rev all ];
  check_hash_backend h model;
  List.iter
    (fun (s, p, o) -> check_bool "emptied" true (Rdf.Hash_backend.remove h s p o))
    all;
  check_hash_backend h Int3_set.empty

(* A store lookup is one probe over int arrays: hits, misses and probe
   runs that wrap past the last slot all allocate nothing.  So do the
   width-3 writes on a warmed table, through its key row: adding a
   present row, an add/remove cycle and a [remove_row] added back
   (each stays within capacity). *)
let test_probes_do_not_allocate () =
  let buckets = Rdf.Rowset.Buckets.create () in
  let triples = Rdf.Rowset.of_width 3 0 in
  let key k = Rdf.Rowset.key3 triples k (k mod 13) (3 * k) in
  for k = 0 to 199 do
    ignore (Rdf.Rowset.Buckets.push buckets (7 * k) k k k : int);
    ignore (Rdf.Rowset.add triples (key k) : bool)
  done;
  let hits = ref 0 in
  let allocated f =
    f ();
    hits := 0;
    snd (words_allocated f)
  in
  let lookups () =
    for i = 0 to 9_999 do
      let k = i mod 400 in
      if Rdf.Rowset.Buckets.find buckets (7 * k) >= 0 then incr hits;
      if Rdf.Rowset.mem triples (key k) then incr hits
    done
  in
  let words = allocated lookups in
  check_int "half the lookups hit" 10_000 !hits;
  check_bool
    (Printf.sprintf "20k probes allocate nothing (saw %d words)" words)
    true (words = 0);
  List.iter
    (fun (name, write) ->
      let words = allocated (fun () -> for i = 0 to 9_999 do write (i mod 200) done) in
      check_int (name ^ ": every write hit") 10_000 !hits;
      check_int (name ^ ": the table is unchanged") 200 (Rdf.Rowset.cardinal triples);
      check_bool
        (Printf.sprintf "%s: 10k writes allocate nothing (saw %d words)" name words)
        true (words = 0))
    [
      ("add of a present row", fun k -> if not (Rdf.Rowset.add triples (key k)) then incr hits);
      ( "add/remove cycle",
        fun k ->
          if Rdf.Rowset.remove triples (key k) && Rdf.Rowset.add triples (key k) then incr hits );
      ( "remove_row",
        fun k ->
          let r = Rdf.Rowset.find triples (key k) in
          ignore (Rdf.Rowset.remove_row triples r : int);
          if Rdf.Rowset.add triples (key k) then incr hits );
    ]

(* The hash store's footprint, pinned: its triple table starts at four
   rows and four slots, doubles its rows when full and grows its slots
   4x past a load of 3/4, so a fixed store reads the same bytes before
   and after indexing. *)
let test_resident_bytes_pinned () =
  List.iter
    (fun (n, gen, unindexed, indexed) ->
      let h = Rdf.Hash_backend.create () in
      for i = 0 to n - 1 do
        let s, p, o = gen i in
        ignore (Rdf.Hash_backend.add h s p o : bool)
      done;
      check_int (Printf.sprintf "%d triples, unindexed" n) unindexed
        (Rdf.Hash_backend.resident_bytes h);
      Rdf.Hash_backend.compact h;
      check_int (Printf.sprintf "%d triples, indexed" n) indexed
        (Rdf.Hash_backend.resident_bytes h))
    [
      (3_000, (fun i -> (i / 5, i mod 9, 7 * i mod 1_001)), 131_864, 1_339_584);
      (50_000, (fun i -> (i / 8, i mod 13, i mod 4_099)), 3_670_808, 27_417_128);
    ]

type row_op =
  | Add_row of int array
  | Find_or_add of int array
  | Find_row of int array
  | Remove of int array
  | Remove_at of int

(* The one row table at widths 0 to 5 against a list of its rows in row
   order, which models removal exactly: the last row moves into the
   freed index, and [remove_row] returns where it was; [find_or_add]
   returns the row's index, a new row's being the last.  Codes come from
   [hot_codes], so rows repeat and, at width 1 and 3, collide in the
   last slot; at width 0 the table holds at most the one empty row. *)
let prop_rowset_model =
  let open QCheck.Gen in
  let gen =
    let* w = int_range 0 5 in
    let row = array_repeat w (map (Array.get hot_codes) (int_bound (Array.length hot_codes - 1))) in
    let op =
      frequency
        [
          (3, map (fun r -> Add_row r) row);
          (2, map (fun r -> Find_or_add r) row);
          (2, map (fun r -> Find_row r) row);
          (2, map (fun r -> Remove r) row);
          (2, map (fun i -> Remove_at i) small_nat);
        ]
    in
    pair (return w) (list_size (int_range 1 150) op)
  in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  QCheck.Test.make ~name:"flat tables: one row table against a reference list" ~count:300
    (QCheck.make gen) (fun (w, ops) ->
      let t = Rdf.Rowset.of_width w 0 in
      let model = ref [||] in
      let index r =
        let rec go i =
          if i = Array.length !model then -1 else if !model.(i) = r then i else go (i + 1)
        in
        go 0
      in
      let drop i =
        let last = Array.length !model - 1 in
        !model.(i) <- !model.(last);
        model := Array.sub !model 0 last;
        last
      in
      List.iter
        (fun op ->
          (match op with
          | Add_row r ->
            let fresh = index r < 0 in
            if Rdf.Rowset.add t r <> fresh then fail "add";
            if fresh then model := Array.append !model [| Array.copy r |]
          | Find_or_add r ->
            if index r < 0 then model := Array.append !model [| Array.copy r |];
            if Rdf.Rowset.find_or_add t r <> index r then fail "find_or_add"
          | Find_row r -> if Rdf.Rowset.find t r <> index r then fail "find"
          | Remove r ->
            let i = index r in
            if Rdf.Rowset.remove t r <> (i >= 0) then fail "remove";
            if i >= 0 then ignore (drop i : int)
          | Remove_at i ->
            let n = Array.length !model in
            if n > 0 then
              let i = i mod n in
              let moved = Rdf.Rowset.remove_row t i in
              if moved <> drop i then fail "remove_row %d: moved %d" i moved);
          let rows = Array.to_list !model in
          if w = 0 && List.length rows > 1 then fail "width 0 holds %d rows" (List.length rows);
          if Rdf.Rowset.cardinal t <> List.length rows then fail "cardinal";
          if Rdf.Rowset.elements t <> rows then fail "row order";
          if Rdf.Rowset.fold List.cons t [] <> List.rev rows then fail "fold";
          List.iteri
            (fun i r -> if Array.sub (Rdf.Rowset.data t) (w * i) w <> r then fail "data row %d" i)
            rows;
          List.iteri (fun i r -> if Rdf.Rowset.find t r <> i then fail "find row %d" i) rows)
        ops;
      true)

type bucket_op =
  | Push of int * int
  | Drop of int * int
  | Replace of int * int
  | Empty of int

(* [Rowset.Buckets] alone, against a map from key to row list, with the
   swap-remove the hash backend performs and the replace and key drop
   the compact scan memo performs.  [Empty k] drops every row of [k]:
   the last key takes [k]'s index and brings its bucket along, and [k],
   pushed again, comes back as the last key with a fresh bucket. *)
let prop_buckets =
  let open QCheck.Gen in
  let key = map (Array.get hot_codes) (int_bound (Array.length hot_codes - 1)) in
  let op =
    frequency
      [
        (6, map2 (fun k v -> Push (k, v)) key small_nat);
        (4, map2 (fun k i -> Drop (k, i)) key small_nat);
        (1, map2 (fun k n -> Replace (k, n)) key (int_bound 3));
        (2, map (fun k -> Empty k) key);
      ]
  in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  QCheck.Test.make ~name:"flat tables: buckets against a reference map" ~count:300
    (QCheck.make (list_size (int_range 1 150) op))
    (fun ops ->
      let t = Rdf.Rowset.Buckets.create () in
      let model = Hashtbl.create 16 in
      let keys () = List.rev (Rdf.Rowset.Buckets.fold t (fun k _ _ acc -> k :: acc) []) in
      List.iter
        (fun op ->
          (match op with
          | Push (k, v) ->
            let rows = Option.value ~default:[||] (Hashtbl.find_opt model k) in
            if Rdf.Rowset.Buckets.push t k v (v + 1) (v + 2) <> Array.length rows then
              fail "push %d: row" k;
            Hashtbl.replace model k (Array.append rows [| v |])
          | Drop (k, i) -> (
            match Hashtbl.find_opt model k with
            | None -> ()
            | Some [||] -> (* a replaced empty bucket: nothing to drop *) ()
            | Some rows ->
              let j = Rdf.Rowset.Buckets.find t k in
              let n = Array.length rows in
              let i = i mod n in
              let d = Rdf.Rowset.Buckets.data t j in
              Array.blit d (3 * (n - 1)) d (3 * i) 3;
              Rdf.Rowset.Buckets.set_rows t j (n - 1);
              rows.(i) <- rows.(n - 1);
              if n = 1 then Hashtbl.remove model k
              else Hashtbl.replace model k (Array.sub rows 0 (n - 1)))
          | Replace (k, n) ->
            Rdf.Rowset.Buckets.replace t k (Array.init (3 * n) (fun c -> (3 * k) + c)) n;
            Hashtbl.replace model k (Array.init n (fun i -> (3 * k) + (3 * i)))
          | Empty k -> (
            let j = Rdf.Rowset.Buckets.find t k in
            match Hashtbl.find_opt model k with
            | None -> if j >= 0 then fail "key %d present" k
            | Some _ ->
              let last = Rdf.Rowset.Buckets.length t - 1 in
              let last_key = List.nth (keys ()) last in
              let last_data = Rdf.Rowset.Buckets.data t last in
              let last_rows = Rdf.Rowset.Buckets.rows t last in
              Rdf.Rowset.Buckets.set_rows t j 0;
              if Rdf.Rowset.Buckets.find t k >= 0 then fail "emptied key %d present" k;
              if j < last then begin
                if Rdf.Rowset.Buckets.find t last_key <> j then
                  fail "last key %d not moved to %d" last_key j;
                if
                  Rdf.Rowset.Buckets.data t j != last_data
                  || Rdf.Rowset.Buckets.rows t j <> last_rows
                then fail "last key %d moved without its bucket" last_key
              end;
              if Rdf.Rowset.Buckets.push t k k (k + 1) (k + 2) <> 0 then
                fail "re-added key %d: row" k;
              if Rdf.Rowset.Buckets.find t k <> last then fail "re-added key %d: index" k;
              Hashtbl.replace model k [| k |]));
          if Rdf.Rowset.Buckets.length t <> Hashtbl.length model then fail "length";
          Array.iter
            (fun k ->
              let j = Rdf.Rowset.Buckets.find t k in
              match Hashtbl.find_opt model k with
              | None -> if j >= 0 then fail "key %d present" k
              | Some rows ->
                if j < 0 || Rdf.Rowset.Buckets.rows t j <> Array.length rows then
                  fail "key %d" k;
                let d = Rdf.Rowset.Buckets.data t j in
                Array.iteri
                  (fun i v -> if d.(3 * i) <> v then fail "key %d row %d" k i)
                  rows)
            hot_codes;
          if
            List.sort compare (keys ())
            <> List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model [])
          then fail "fold keys";
          List.iteri
            (fun j k -> if Rdf.Rowset.Buckets.find t k <> j then fail "fold order at %d" j)
            (keys ()))
        ops;
      true)

let () =
  Alcotest.run "store_backends"
    [
      ( "differential",
        [
          to_alcotest prop_differential;
          to_alcotest prop_scans_fresh;
          to_alcotest prop_merge_is_invisible;
          to_alcotest prop_live_counts;
          Alcotest.test_case "ops resurrect across merges" `Quick
            test_ops_cover_resurrection;
          Alcotest.test_case "ops cover the live-count paths" `Quick
            test_ops_cover_live_counts;
        ] );
      ( "flat tables",
        [
          to_alcotest prop_buckets;
          to_alcotest prop_rowset_model;
          to_alcotest prop_hash_backend_tables;
          to_alcotest prop_hash_backend_pending;
          to_alcotest prop_hash_order_after_first_read;
          Alcotest.test_case "reads between removes" `Quick
            test_ops_cover_pending_removes;
          Alcotest.test_case "bulk adds keep bucket order" `Quick test_bulk_order;
          Alcotest.test_case "indexing read keeps version" `Quick
            test_indexing_read_keeps_version;
          Alcotest.test_case "remove then re-add" `Quick test_hash_backend_readd;
          Alcotest.test_case "probes do not allocate" `Quick
            test_probes_do_not_allocate;
          Alcotest.test_case "resident bytes pinned" `Quick test_resident_bytes_pinned;
        ] );
      ("segment edges", segment_edge_tests);
      ( "compact store",
        [
          Alcotest.test_case "tombstone-only block" `Quick
            test_tombstone_only_block;
          Alcotest.test_case "Barton-scale parity" `Quick
            test_barton_scale_parity;
          Alcotest.test_case "distinct counts read no blocks" `Quick
            test_distinct_reads_no_blocks;
          Alcotest.test_case "scan block counts" `Quick test_scan_block_counts;
          Alcotest.test_case "scan memo overflow" `Quick test_scan_memo_overflow;
          Alcotest.test_case "a load leaves the memtable unindexed" `Quick
            test_load_leaves_memtable_unindexed;
          to_alcotest prop_sorted_rotation;
        ] );
    ]
