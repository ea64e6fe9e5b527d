(* Counters and histograms are plain mutable records handed out to call
   sites, so an event on the hot path is a field update — no hashing.
   The [live] flag makes the shared no-op handles safe to use from a
   disabled sink without a branchy API. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type counter = { mutable n : int; c_live : bool }

type span_event = {
  span_name : string;
  depth : int;
  start_ns : int;
  elapsed_ns : int;
}

(* Histograms are log-bucketed: bucket 0 holds non-positive samples,
   bucket i >= 1 holds samples in [2^(i-1), 2^i).  64 buckets cover the
   whole int range, so [observe] never branches on overflow. *)
type histogram = {
  buckets : int array;
  mutable events : int;
  mutable sum : int;
  h_live : bool;
}

type gauge = {
  mutable g_value : float;
  mutable g_set : bool;
  g_live : bool;
}

(* A point list replaced wholesale on every write, like a gauge: the
   search's (elapsed, best-cost) trajectory. *)
type series = {
  mutable points : (float * float) list;
  mutable s_set : bool;
  s_live : bool;
}

type registry = {
  cs : (string, counter) Hashtbl.t;
  hs : (string, histogram) Hashtbl.t;
  gs : (string, gauge) Hashtbl.t;
  ss : (string, series) Hashtbl.t;
  mutable trace : span_event list;  (* most recently completed first *)
  mutable span_depth : int;
  mutable born_ns : int;
  mutable epoch : int;  (* bumped by [reset]; open spans check it *)
}

type t = Disabled | Enabled of registry

let disabled = Disabled

let create () =
  Enabled
    {
      cs = Hashtbl.create 64;
      hs = Hashtbl.create 16;
      gs = Hashtbl.create 16;
      ss = Hashtbl.create 4;
      trace = [];
      span_depth = 0;
      born_ns = now_ns ();
      epoch = 0;
    }

let is_enabled = function Disabled -> false | Enabled _ -> true

let reset = function
  | Disabled -> ()
  | Enabled r ->
    Hashtbl.iter (fun _ c -> c.n <- 0) r.cs;
    Hashtbl.iter
      (fun _ h ->
        Array.fill h.buckets 0 (Array.length h.buckets) 0;
        h.events <- 0;
        h.sum <- 0)
      r.hs;
    Hashtbl.iter (fun _ g -> g.g_set <- false) r.gs;
    Hashtbl.iter
      (fun _ sr ->
        sr.points <- [];
        sr.s_set <- false)
      r.ss;
    r.trace <- [];
    r.span_depth <- 0;
    (* Re-base the span clock and invalidate any span still open across
       the reset: its [Fun.protect] finalizer would otherwise restore a
       stale nesting depth and record a span predating the reset. *)
    r.born_ns <- now_ns ();
    r.epoch <- r.epoch + 1

(* The instrument registered under [name], made on first use. *)
let registered table name make =
  match Hashtbl.find_opt table name with
  | Some x -> x
  | None ->
    let x = make () in
    Hashtbl.add table name x;
    x

(* ---------- counters ----------------------------------------------------- *)

let noop_counter = { n = 0; c_live = false }

let counter t name =
  match t with
  | Disabled -> noop_counter
  | Enabled r -> registered r.cs name (fun () -> { n = 0; c_live = true })

let incr c = if c.c_live then c.n <- c.n + 1

let add c k = if c.c_live then c.n <- c.n + k

let value c = c.n

(* ---------- histograms --------------------------------------------------- *)

let noop_histogram = { buckets = [||]; events = 0; sum = 0; h_live = false }

let histogram t name =
  match t with
  | Disabled -> noop_histogram
  | Enabled r ->
    registered r.hs name (fun () ->
        { buckets = Array.make 64 0; events = 0; sum = 0; h_live = true })

let bucket_of_sample v =
  if v <= 0 then 0
  else begin
    let i = ref 0 in
    let v = ref v in
    while !v > 0 do
      i := !i + 1;
      v := !v lsr 1
    done;
    !i  (* v in [2^(i-1), 2^i), i <= 63 *)
  end

(* The representative sample of a bucket: 0 for the non-positive bucket,
   the geometric middle of [2^(i-1), 2^i) otherwise. *)
let bucket_representative i =
  if i = 0 then 0. else if i = 1 then 1. else Float.ldexp 1.5 (i - 1)

let observe h v =
  if h.h_live then begin
    let b = bucket_of_sample v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.events <- h.events + 1;
    h.sum <- h.sum + v
  end

(* On a no-op histogram: one branch, no clock read. *)
let time h f =
  if not h.h_live then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> observe h (now_ns () - t0)) f
  end

let histogram_count h = h.events

let histogram_sum h = h.sum

(* The q-th percentile (q in [0,100]) as the representative value of the
   bucket holding the ceil(q/100 * events)-th smallest sample; [nan]
   when the histogram is empty. *)
let percentile h q =
  if h.events = 0 then Float.nan
  else begin
    let target =
      Stdlib.max 1 (int_of_float (Float.ceil (q /. 100. *. float_of_int h.events)))
    in
    let rec walk i seen =
      if i >= Array.length h.buckets then bucket_representative (Array.length h.buckets - 1)
      else begin
        let seen = seen + h.buckets.(i) in
        if seen >= target then bucket_representative i else walk (i + 1) seen
      end
    in
    walk 0 0
  end

(* ---------- gauges ------------------------------------------------------- *)

let noop_gauge = { g_value = 0.; g_set = false; g_live = false }

let gauge t name =
  match t with
  | Disabled -> noop_gauge
  | Enabled r ->
    registered r.gs name (fun () -> { g_value = 0.; g_set = false; g_live = true })

let set_gauge g v =
  if g.g_live then begin
    g.g_value <- v;
    g.g_set <- true
  end

let gauge_value g = if g.g_set then Some g.g_value else None

(* ---------- series ------------------------------------------------------- *)

let noop_series = { points = []; s_set = false; s_live = false }

let series t name =
  match t with
  | Disabled -> noop_series
  | Enabled r ->
    registered r.ss name (fun () -> { points = []; s_set = false; s_live = true })

let set_series sr points =
  if sr.s_live then begin
    sr.points <- points;
    sr.s_set <- true
  end

(* ---------- spans -------------------------------------------------------- *)

let span t name f =
  match t with
  | Disabled -> f ()
  | Enabled r ->
    let start = now_ns () in
    let depth = r.span_depth in
    let epoch = r.epoch in
    r.span_depth <- depth + 1;
    Fun.protect
      ~finally:(fun () ->
        (* A [reset] issued while this span was open re-based the clock
           and zeroed the depth; restoring ours would leave the depth
           stale for every later span, so the span is simply dropped. *)
        if r.epoch = epoch then begin
          r.span_depth <- depth;
          r.trace <-
            {
              span_name = name;
              depth;
              start_ns = start - r.born_ns;
              elapsed_ns = now_ns () - start;
            }
            :: r.trace
        end)
      f

let spans = function
  | Disabled -> []
  | Enabled r ->
    List.stable_sort
      (fun a b -> Int.compare a.start_ns b.start_ns)
      (List.rev r.trace)

(* ---------- reading ------------------------------------------------------ *)

let sorted_bindings table extract =
  Hashtbl.fold (fun name x acc -> (name, extract x) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters = function
  | Disabled -> []
  | Enabled r -> sorted_bindings r.cs (fun c -> c.n)

let histograms = function
  | Disabled -> []
  | Enabled r -> sorted_bindings r.hs (fun h -> h)

let gauges = function
  | Disabled -> []
  | Enabled r ->
    Hashtbl.fold
      (fun name g acc -> if g.g_set then (name, g.g_value) :: acc else acc)
      r.gs []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let all_series = function
  | Disabled -> []
  | Enabled r ->
    Hashtbl.fold
      (fun name sr acc -> if sr.s_set then (name, sr.points) :: acc else acc)
      r.ss []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find_counter t name =
  match t with
  | Disabled -> None
  | Enabled r -> Option.map (fun c -> c.n) (Hashtbl.find_opt r.cs name)

let find_histogram t name =
  match t with Disabled -> None | Enabled r -> Hashtbl.find_opt r.hs name

let find_gauge t name =
  match t with
  | Disabled -> None
  | Enabled r -> Option.bind (Hashtbl.find_opt r.gs name) gauge_value

(* ---------- merging ------------------------------------------------------ *)

(* Fold one registry's counters and histograms into another's — how a
   parallel search folds a domain's timings into the coordinator's, and
   the coordinator's into the sink.  Both registries must be
   quiescent. *)
let merge_into ~into src =
  match (into, src) with
  | Disabled, _ | _, Disabled -> ()
  | (Enabled _ as dst), Enabled src_r ->
    Hashtbl.iter
      (fun name (c : counter) ->
        let d = counter dst name in
        d.n <- d.n + c.n)
      src_r.cs;
    Hashtbl.iter
      (fun name (h : histogram) ->
        let d = histogram dst name in
        Array.iteri (fun i n -> d.buckets.(i) <- d.buckets.(i) + n) h.buckets;
        d.events <- d.events + h.events;
        d.sum <- d.sum + h.sum)
      src_r.hs
[@@coordinator_only]

(* ---------- the global sink ---------------------------------------------- *)

(* The ambient sink is domain-local, so a domain that installs no sink
   never writes into another's.  A freshly spawned domain starts
   [Disabled] — with a single domain the behaviour is exactly a global
   ref's.  Only the coordinating domain reads or installs the sink: a
   parallel search's workers keep their books on their own engines. *)
let global_sink = Multicore.Dls.new_key (fun () -> Disabled)

let set_global t = Multicore.Dls.set global_sink t [@@coordinator_only]

let global () = Multicore.Dls.get global_sink [@@coordinator_only]

(* ---------- JSON --------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let to_string ?(indent = false) t =
    let b = Buffer.create 256 in
    let pad level = if indent then Buffer.add_string b (String.make (2 * level) ' ') in
    let newline () = if indent then Buffer.add_char b '\n' in
    let rec go level = function
      | Null -> Buffer.add_string b "null"
      | Bool x -> Buffer.add_string b (if x then "true" else "false")
      | Int i -> Buffer.add_string b (string_of_int i)
      | Float f ->
        (* JSON has no NaN/Infinity literal; serialize non-finite floats
           as null so the output always parses. *)
        if not (Float.is_finite f) then Buffer.add_string b "null"
        else if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string b (Printf.sprintf "%.1f" f)
        else Buffer.add_string b (Printf.sprintf "%.17g" f)
      | String s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
      | List [] -> Buffer.add_string b "[]"
      | List items ->
        Buffer.add_char b '[';
        newline ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char b ',';
              newline ()
            end;
            pad (level + 1);
            go (level + 1) item)
          items;
        newline ();
        pad level;
        Buffer.add_char b ']'
      | Obj [] -> Buffer.add_string b "{}"
      | Obj fields ->
        Buffer.add_char b '{';
        newline ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin
              Buffer.add_char b ',';
              newline ()
            end;
            pad (level + 1);
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b (if indent then "\": " else "\":");
            go (level + 1) v)
          fields;
        newline ();
        pad level;
        Buffer.add_char b '}'
    in
    go 0 t;
    Buffer.contents b

  exception Parse_error of string

  (* Recursive-descent parser over a cursor; just enough JSON to read
     back what [to_string] emits (and ordinary hand-written files). *)
  let of_string text =
    let n = String.length text in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some text.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect ch =
      match peek () with
      | Some c when c = ch -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" ch)
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail ("expected " ^ word)
    in
    let utf8_of_code b code =
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance ()
          | Some '\\' -> Buffer.add_char b '\\'; advance ()
          | Some '/' -> Buffer.add_char b '/'; advance ()
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 'r' -> Buffer.add_char b '\r'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'b' -> Buffer.add_char b '\b'; advance ()
          | Some 'f' -> Buffer.add_char b '\012'; advance ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub text !pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> fail "bad \\u escape"
            in
            pos := !pos + 4;
            utf8_of_code b code
          | _ -> fail "bad escape");
          go ()
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      let s = String.sub text start (!pos - start) in
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail ("bad number " ^ s))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> String (parse_string ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
      | Some ('0' .. '9' | '-') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

let schema_version = 4

let to_json t =
  let counters_json =
    Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) (counters t))
  in
  let histograms_json =
    Json.Obj
      (List.map
         (fun (name, h) ->
           ( name,
             Json.Obj
               [
                 ("count", Json.Int (histogram_count h));
                 ("total", Json.Int (histogram_sum h));
                 ("p50", Json.Float (percentile h 50.));
                 ("p90", Json.Float (percentile h 90.));
                 ("p99", Json.Float (percentile h 99.));
               ] ))
         (histograms t))
  in
  let gauges_json =
    Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) (gauges t))
  in
  let series_json =
    Json.Obj
      (List.map
         (fun (name, points) ->
           ( name,
             Json.List
               (List.map
                  (fun (x, y) -> Json.List [ Json.Float x; Json.Float y ])
                  points) ))
         (all_series t))
  in
  let spans_json =
    Json.List
      (List.map
         (fun s ->
           Json.Obj
             [
               ("name", Json.String s.span_name);
               ("depth", Json.Int s.depth);
               ("start_ns", Json.Int s.start_ns);
               ("elapsed_ns", Json.Int s.elapsed_ns);
             ])
         (spans t))
  in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("counters", counters_json);
      ("histograms", histograms_json);
      ("gauges", gauges_json);
      ("series", series_json);
      ("spans", spans_json);
    ]

let to_string t = Json.to_string ~indent:true (to_json t)

(* ---------- the metrics file --------------------------------------------- *)

module Export = struct
  type hist_snap = { hsn_buckets : int array; hsn_count : int }

  type snapshot = { snap_histograms : (string * hist_snap) list }

  let snapshot t =
    {
      snap_histograms =
        List.map
          (fun (name, h) ->
            (name, { hsn_buckets = Array.copy h.buckets; hsn_count = h.events }))
          (histograms t);
    }

  (* The GC gauges, with the label the report gives them: process
     totals from one [Gc.quick_stat], except the minor words.  On OCaml 5
     [quick_stat]'s [minor_words] leaves out the current minor heap until
     the next minor collection; [Gc.minor_words ()] counts it. *)
  let gc_gauges =
    let i = float_of_int in
    [
      ("gc.minor_collections", "minor collections", fun s -> i s.Gc.minor_collections);
      ("gc.major_collections", "major collections", fun s -> i s.Gc.major_collections);
      ("gc.compactions", "compactions", fun s -> i s.Gc.compactions);
      ("gc.minor_words", "minor words", fun _ -> Gc.minor_words ());
      ("gc.promoted_words", "promoted words", fun s -> s.Gc.promoted_words);
      ("gc.top_heap_words", "top heap words", fun s -> i s.Gc.top_heap_words);
    ]

  let dump t =
    let s = Gc.quick_stat () in
    List.iter (fun (name, _, read) -> set_gauge (gauge t name) (read s)) gc_gauges;
    to_string t

  (* tmp + rename, so a reader never sees a torn file *)
  let write path t =
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (dump t);
        output_char oc '\n';
        close_out oc);
    Sys.rename tmp path

  let with_dump ~path t f =
    write path t;
    match f () with
    | v ->
      write path t;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (* the run's own error wins over a failed final write *)
      (try write path t with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt
end

(* ---------- the search report -------------------------------------------- *)

module Report = struct
  type kind_row = {
    kind : string;
    applied : int;
    rejected : int;
    created_k : int;
    accepted_k : int;
    reopened_k : int;
    duplicates_k : int;
    discarded_k : int;
    time_ns : int;
  }

  type summary = {
    strategy : string option;
    initial_cost : float option;
    final_cost : float option;
    created : int;
    explored : int;
    duplicates : int;
    discarded : int;
    accepted : int;
    reopened : int;
    completed : bool option;
    wall_ns : int option;
    convergence : (float * float) list;
        (* (elapsed seconds, new best cost), oldest first *)
    kinds : kind_row list;
  }

  let rcr s =
    match (s.initial_cost, s.final_cost) with
    | Some i, Some f when i > 0. -> Some ((i -. f) /. i)
    | _ -> None

  (* Earliest convergence point within [pct]% of the final best cost
     (threshold final * (1 + pct/100)), in elapsed seconds. *)
  let time_to_within s pct =
    match s.final_cost with
    | None -> None
    | Some final ->
      let threshold = final *. (1. +. (pct /. 100.)) in
      List.find_map
        (fun (at_s, cost) -> if cost <= threshold then Some at_s else None)
        s.convergence

  exception Bad_dump of string

  (* The shape [to_json] writes; anything else is refused by name
     rather than read as an all-zero run. *)
  let check_dump json =
    let fail fmt = Printf.ksprintf (fun m -> raise (Bad_dump m)) fmt in
    (match Json.member "schema_version" json with
    | Some (Json.Int v) when v = schema_version -> ()
    | Some _ -> fail "schema_version: expected %d" schema_version
    | None -> fail "missing member schema_version");
    List.iter
      (fun key ->
        match Json.member key json with
        | Some (Json.Obj _) -> ()
        | Some _ -> fail "%s: expected an object" key
        | None -> fail "missing member %s" key)
      [ "counters"; "histograms"; "gauges"; "series" ];
    match Json.member "spans" json with
    | Some (Json.List _) -> ()
    | Some _ -> fail "spans: expected a list"
    | None -> fail "missing member spans"

  (* ---------- reading a dump ---------- *)

  let members key json =
    match Json.member key json with Some (Json.Obj fields) -> fields | _ -> []

  let num = function
    | Json.Int i -> Some (float_of_int i)
    | Json.Float f -> Some f
    | _ -> None

  let find key json name = Option.bind (List.assoc_opt name (members key json)) num

  let count json name =
    match List.assoc_opt name (members "counters" json) with
    | Some (Json.Int i) -> i
    | _ -> 0

  (* A numeric field ("count", "total", "p50", ...) of a histogram. *)
  let hist json name field =
    Option.bind (List.assoc_opt name (members "histograms" json)) (fun h ->
        Option.bind (Json.member field h) num)

  (* The summed samples of a duration histogram, in ns. *)
  let total_ns json name = Option.map int_of_float (hist json name "total")

  let trajectory json =
    match List.assoc_opt "search.trajectory" (members "series" json) with
    | Some (Json.List points) ->
      List.filter_map
        (function
          | Json.List [ x; y ] -> (
            match (num x, num y) with Some x, Some y -> Some (x, y) | _ -> None)
          | _ -> None)
        points
    | _ -> []

  let of_metrics json =
    check_dump json;
    let strategies =
      List.filter_map
        (fun (name, v) ->
          match (String.split_on_char '.' name, v) with
          | [ "search"; "strategy"; st ], Json.Int n when n > 0 -> Some st
          | _ -> None)
        (members "counters" json)
    in
    let kinds =
      List.map
        (fun kind ->
          let transition what = count json (Printf.sprintf "transition.%s.%s" kind what) in
          let stratum what = count json (Printf.sprintf "search.stratum.%s.%s" kind what) in
          let created_k = stratum "created" in
          let duplicates_k = stratum "duplicates" in
          let discarded_k = stratum "discarded" in
          {
            kind;
            applied = transition "applied";
            rejected = transition "rejected";
            created_k;
            accepted_k = created_k - duplicates_k - discarded_k;
            reopened_k = stratum "reopened";
            duplicates_k;
            discarded_k;
            time_ns =
              Option.value ~default:0
                (total_ns json (Printf.sprintf "transition.%s.time" kind));
          })
        (List.filter_map
           (fun (name, _) ->
             match String.split_on_char '.' name with
             | [ "transition"; kind; "applied" ] -> Some kind
             | _ -> None)
           (members "counters" json))
    in
    let created = count json "search.created" in
    let duplicates = count json "search.duplicates" in
    let discarded = count json "search.discarded" in
    {
      strategy = (if strategies = [] then None else Some (String.concat ", " strategies));
      initial_cost = find "gauges" json "search.initial_cost";
      final_cost = find "gauges" json "search.best_cost";
      created;
      explored = count json "search.explored";
      duplicates;
      discarded;
      accepted = created - duplicates - discarded;
      reopened = count json "search.reopened";
      completed = Option.map (fun v -> v <> 0.) (find "gauges" json "search.completed");
      wall_ns = total_ns json "search.run";
      convergence = trajectory json;
      kinds;
    }

  (* ---------- text rendering ---------- *)

  let btable b rows =
    match rows with
    | [] -> ()
    | header :: _ ->
      let widths = Array.make (List.length header) 0 in
      List.iter
        (List.iteri (fun i cell ->
             widths.(i) <- Stdlib.max widths.(i) (String.length cell)))
        rows;
      List.iteri
        (fun r row ->
          Buffer.add_string b "  ";
          List.iteri
            (fun i cell ->
              if i > 0 then Buffer.add_string b "  ";
              Printf.bprintf b "%-*s" widths.(i) cell)
            row;
          Buffer.add_char b '\n';
          if r = 0 then begin
            Buffer.add_string b "  ";
            Array.iteri
              (fun i w ->
                if i > 0 then Buffer.add_string b "--";
                Buffer.add_string b (String.make w '-'))
              widths;
            Buffer.add_char b '\n'
          end)
        rows

  let fcost f = Printf.sprintf "%.6g" f

  let fsec s = Printf.sprintf "%.3f" s

  let fms ns = Printf.sprintf "%.3f" (ns /. 1e6)

  let fcount f =
    if Float.abs f >= 1e9 then Printf.sprintf "%.2fG" (f /. 1e9)
    else if Float.abs f >= 1e6 then Printf.sprintf "%.2fM" (f /. 1e6)
    else if Float.abs f >= 1e4 then Printf.sprintf "%.1fk" (f /. 1e3)
    else Printf.sprintf "%.0f" f

  let render_search b s =
    Buffer.add_string b "search report\n";
    Buffer.add_string b "=============\n";
    (match s.strategy with
    | Some st -> Printf.bprintf b "strategy:   %s\n" st
    | None -> ());
    Printf.bprintf b
      "states:     created %d (accepted %d, duplicates %d, discarded %d, \
       reopened %d), explored %d\n"
      s.created s.accepted s.duplicates s.discarded s.reopened s.explored;
    (match (s.initial_cost, s.final_cost) with
    | Some i, Some f ->
      Printf.bprintf b "cost:       initial %s -> final best %s" (fcost i) (fcost f);
      (match rcr s with
      | Some r -> Printf.bprintf b " (rcr %.3f)\n" r
      | None -> Buffer.add_char b '\n')
    | None, Some f -> Printf.bprintf b "cost:       final best %s\n" (fcost f)
    | _, None -> Buffer.add_string b "cost:       (no search in dump)\n");
    (match s.wall_ns with
    | Some ns -> Printf.bprintf b "wall time:  %s s\n" (fsec (float_of_int ns /. 1e9))
    | None -> ());
    (match s.completed with
    | Some true -> Buffer.add_string b "outcome:    completed (space exhausted)\n"
    | Some false -> Buffer.add_string b "outcome:    cut (budget or memory)\n"
    | None -> ());
    Buffer.add_string b "\nconvergence (best cost vs wall time)\n";
    if s.convergence = [] then Buffer.add_string b "  (no trajectory in dump)\n"
    else begin
      btable b
        ([ "time_s"; "best_cost" ]
        :: List.map (fun (at_s, cost) -> [ fsec at_s; fcost cost ]) s.convergence);
      Buffer.add_string b "\ntime to within x% of final best cost\n";
      btable b
        ([ "within"; "time_s" ]
        :: List.filter_map
             (fun pct ->
               Option.map
                 (fun at_s -> [ Printf.sprintf "%g%%" pct; fsec at_s ])
                 (time_to_within s pct))
             [ 50.; 20.; 10.; 5.; 1.; 0. ])
    end;
    if s.kinds <> [] then begin
      Buffer.add_string b "\ntransition acceptance breakdown\n";
      btable b
        ([ "kind"; "applied"; "rejected"; "accepted"; "acceptance"; "time_ms" ]
        :: List.map
             (fun k ->
               [
                 k.kind;
                 string_of_int k.applied;
                 string_of_int k.rejected;
                 string_of_int k.accepted_k;
                 (if k.applied = 0 then "-"
                  else
                    Printf.sprintf "%.1f%%"
                      (100. *. float_of_int k.accepted_k /. float_of_int k.applied));
                 fms (float_of_int k.time_ns);
               ])
             s.kinds);
      Buffer.add_string b "\nstratum population (duplicates include reopened)\n";
      btable b
        ([ "stratum"; "created"; "accepted"; "duplicates"; "discarded"; "reopened" ]
        :: List.map
             (fun k ->
               k.kind
               :: List.map string_of_int
                    [ k.created_k; k.accepted_k; k.duplicates_k; k.discarded_k; k.reopened_k ])
             s.kinds)
    end

  (* The GC totals the metrics writer sampled at its last write, and
     the per-domain utilization of the last parallel search. *)
  let render_runtime b json =
    let cd name = Option.value ~default:0. (find "counters" json name) in
    let gc_rows =
      List.filter_map
        (fun (name, label, _) ->
          Option.map (fun v -> [ label; fcount v ]) (find "gauges" json name))
        Export.gc_gauges
    in
    if gc_rows <> [] then begin
      Buffer.add_string b "\ngarbage collector (process totals at the last write)\n";
      btable b ([ "measure"; "value" ] :: gc_rows)
    end;
    let domain_indices =
      List.sort_uniq Int.compare
        (List.filter_map
           (fun (name, _) ->
             match String.split_on_char '.' name with
             | [ "parallel"; "domain"; i; "work_ns" ] -> int_of_string_opt i
             | _ -> None)
           (members "counters" json))
    in
    if domain_indices <> [] then begin
      Buffer.add_string b "\nper-domain utilization (last parallel search)\n";
      btable b
        ([ "domain"; "work_ms"; "idle_ms"; "busy" ]
        :: List.map
             (fun i ->
               let g what = cd (Printf.sprintf "parallel.domain.%d.%s_ns" i what) in
               let work = g "work" and idle = g "idle" in
               let total = work +. idle in
               [
                 string_of_int i;
                 fms work;
                 fms idle;
                 (if total > 0. then Printf.sprintf "%.1f%%" (100. *. work /. total)
                  else "-");
               ])
             domain_indices)
    end

  let render json =
    let s = of_metrics json in
    let b = Buffer.create 4096 in
    render_search b s;
    render_runtime b json;
    Buffer.contents b
end
