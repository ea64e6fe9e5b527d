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
              dc;
          let ah = Rdf.Store.avg_term_size hash col in
          let ac = Rdf.Store.avg_term_size compact col in
          if Float.abs (ah -. ac) > 1e-9 then
            QCheck.Test.fail_reportf "avg_term_size diverged: %f vs %f" ah ac;
          let codes st =
            List.sort_uniq compare
              (List.map (Rdf.Store.decode_term st) (Rdf.Store.column_codes st col))
          in
          if codes hash <> codes compact then
            QCheck.Test.fail_report "column_codes diverged")
        [ `S; `P; `O ];
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
    (Rdf.Store.column_codes hash `P);
  check_bool "compact resident bytes below hash" true
    (Rdf.Store.resident_bytes compact < Rdf.Store.resident_bytes hash)

(* Distinct counts on compact are kept on write: with a memtable of
   over 10k adds and tombstones over a merged segment, answering them
   decodes, hits and skips no segment block at all. *)
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
  (* the counters are live: one segment probe moves them *)
  (match Rdf.Store.find_term compact (uri "s1") with
  | Some code ->
    ignore
      (Rdf.Store.count_matching compact
         { Rdf.Store.ps = Some code; pp = None; po = None }
        : int)
  | None -> Alcotest.fail "s1 must be in the dictionary");
  check_bool "a probe touches blocks" true (block_counters () <> before)

let () =
  Alcotest.run "store_backends"
    [
      ( "differential",
        [
          to_alcotest prop_differential;
          to_alcotest prop_merge_is_invisible;
          Alcotest.test_case "ops resurrect across merges" `Quick
            test_ops_cover_resurrection;
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
        ] );
    ]
