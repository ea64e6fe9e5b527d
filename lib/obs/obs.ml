(* Counters and timers are plain mutable records handed out to call
   sites, so an event on the hot path is a field update — no hashing.
   The [live] flag makes the shared no-op handles safe to use from a
   disabled sink without a branchy API. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type counter = { mutable n : int; c_live : bool }

type timer = { mutable total_ns : int; mutable calls : int; t_live : bool }

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

type registry = {
  cs : (string, counter) Hashtbl.t;
  ts : (string, timer) Hashtbl.t;
  hs : (string, histogram) Hashtbl.t;
  gs : (string, gauge) Hashtbl.t;
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
      ts = Hashtbl.create 64;
      hs = Hashtbl.create 16;
      gs = Hashtbl.create 16;
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
      (fun _ tm ->
        tm.total_ns <- 0;
        tm.calls <- 0)
      r.ts;
    Hashtbl.iter
      (fun _ h ->
        Array.fill h.buckets 0 (Array.length h.buckets) 0;
        h.events <- 0;
        h.sum <- 0)
      r.hs;
    Hashtbl.iter (fun _ g -> g.g_set <- false) r.gs;
    r.trace <- [];
    r.span_depth <- 0;
    (* Re-base the span clock and invalidate any span still open across
       the reset: its [Fun.protect] finalizer would otherwise restore a
       stale nesting depth and record a span predating the reset. *)
    r.born_ns <- now_ns ();
    r.epoch <- r.epoch + 1

(* ---------- counters ----------------------------------------------------- *)

let noop_counter = { n = 0; c_live = false }

let counter t name =
  match t with
  | Disabled -> noop_counter
  | Enabled r -> (
    match Hashtbl.find_opt r.cs name with
    | Some c -> c
    | None ->
      let c = { n = 0; c_live = true } in
      Hashtbl.add r.cs name c;
      c)

let incr c = if c.c_live then c.n <- c.n + 1

let add c k = if c.c_live then c.n <- c.n + k

let value c = c.n

(* ---------- timers ------------------------------------------------------- *)

let noop_timer = { total_ns = 0; calls = 0; t_live = false }

let timer t name =
  match t with
  | Disabled -> noop_timer
  | Enabled r -> (
    match Hashtbl.find_opt r.ts name with
    | Some tm -> tm
    | None ->
      let tm = { total_ns = 0; calls = 0; t_live = true } in
      Hashtbl.add r.ts name tm;
      tm)

let time tm f =
  if not tm.t_live then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        tm.total_ns <- tm.total_ns + (now_ns () - t0);
        tm.calls <- tm.calls + 1)
      f
  end

let timer_ns tm = tm.total_ns

let timer_count tm = tm.calls

(* ---------- histograms --------------------------------------------------- *)

let noop_histogram = { buckets = [||]; events = 0; sum = 0; h_live = false }

let histogram t name =
  match t with
  | Disabled -> noop_histogram
  | Enabled r -> (
    match Hashtbl.find_opt r.hs name with
    | Some h -> h
    | None ->
      let h = { buckets = Array.make 64 0; events = 0; sum = 0; h_live = true } in
      Hashtbl.add r.hs name h;
      h)

let histogram_live h = h.h_live

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
  | Enabled r -> (
    match Hashtbl.find_opt r.gs name with
    | Some g -> g
    | None ->
      let g = { g_value = 0.; g_set = false; g_live = true } in
      Hashtbl.add r.gs name g;
      g)

let set_gauge g v =
  if g.g_live then begin
    g.g_value <- v;
    g.g_set <- true
  end

let gauge_value g = if g.g_set then Some g.g_value else None

(* ---------- spans -------------------------------------------------------- *)

(* [time] for sections feeding both a mean (timer) and a distribution
   (histogram); the clock is read once per side. *)
let time_with tm h f =
  if not (tm.t_live || h.h_live) then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dt = now_ns () - t0 in
        if tm.t_live then begin
          tm.total_ns <- tm.total_ns + dt;
          tm.calls <- tm.calls + 1
        end;
        observe h dt)
      f
  end

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

let timers = function
  | Disabled -> []
  | Enabled r -> sorted_bindings r.ts (fun tm -> (tm.calls, tm.total_ns))

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

let find_counter t name =
  match t with
  | Disabled -> None
  | Enabled r -> Option.map (fun c -> c.n) (Hashtbl.find_opt r.cs name)

let find_timer t name =
  match t with
  | Disabled -> None
  | Enabled r ->
    Option.map (fun tm -> (tm.calls, tm.total_ns)) (Hashtbl.find_opt r.ts name)

let find_histogram t name =
  match t with Disabled -> None | Enabled r -> Hashtbl.find_opt r.hs name

let find_gauge t name =
  match t with
  | Disabled -> None
  | Enabled r -> Option.bind (Hashtbl.find_opt r.gs name) gauge_value

(* ---------- merging ------------------------------------------------------ *)

(* Fold one registry into another — how per-domain registries from a
   parallel search are combined after the workers have been joined.
   Sums are summed (counters, timer totals and call counts, histogram
   buckets); a gauge travels only into a destination that has not set
   it (the coordinating domain's value is authoritative); spans are
   appended with their start offsets rebased onto the destination's
   clock origin.  Both registries must be quiescent: this runs on the
   joining domain, after the source's owner has terminated. *)
let merge_into ~into src =
  match (into, src) with
  | Disabled, _ | _, Disabled -> ()
  | (Enabled dst_r as dst), Enabled src_r ->
    Hashtbl.iter
      (fun name (c : counter) ->
        let d = counter dst name in
        d.n <- d.n + c.n)
      src_r.cs;
    Hashtbl.iter
      (fun name (tm : timer) ->
        let d = timer dst name in
        d.total_ns <- d.total_ns + tm.total_ns;
        d.calls <- d.calls + tm.calls)
      src_r.ts;
    Hashtbl.iter
      (fun name (h : histogram) ->
        let d = histogram dst name in
        Array.iteri (fun i n -> d.buckets.(i) <- d.buckets.(i) + n) h.buckets;
        d.events <- d.events + h.events;
        d.sum <- d.sum + h.sum)
      src_r.hs;
    Hashtbl.iter
      (fun name (g : gauge) ->
        if g.g_set then begin
          let d = gauge dst name in
          if not d.g_set then set_gauge d g.g_value
        end)
      src_r.gs;
    let shift = src_r.born_ns - dst_r.born_ns in
    dst_r.trace <-
      List.map
        (fun s -> { s with start_ns = s.start_ns + shift })
        src_r.trace
      @ dst_r.trace
[@@coordinator_only]

(* ---------- the global sink ---------------------------------------------- *)

(* The ambient sink and the caches of the [cached_*] handles are
   domain-local: each parallel search domain installs (and later hands
   back) its own registry, so hot-path field updates never race across
   domains.  A freshly spawned domain starts [Disabled] at generation
   0 — with a single domain the behaviour is exactly the old global
   ref's. *)
let global_sink = Multicore.Dls.new_key (fun () -> Disabled)

let global_gen = Multicore.Dls.new_key (fun () -> 0)

let set_global t =
  Multicore.Dls.set global_sink t;
  Multicore.Dls.set global_gen (Multicore.Dls.get global_gen + 1)

let global () = Multicore.Dls.get global_sink

let generation () = Multicore.Dls.get global_gen

(* Each cached handle owns a domain-local (generation, handle) pair: the
   memo cell itself must be per-domain, or one domain would resolve
   against another domain's sink. *)
let cached_counter name =
  let cache = Multicore.Dls.new_key (fun () -> (-1, noop_counter)) in
  fun () ->
    let gen = Multicore.Dls.get global_gen in
    let seen, c = Multicore.Dls.get cache in
    if seen = gen then c
    else begin
      let c = counter (Multicore.Dls.get global_sink) name in
      Multicore.Dls.set cache (gen, c);
      c
    end

let cached_timer name =
  let cache = Multicore.Dls.new_key (fun () -> (-1, noop_timer)) in
  fun () ->
    let gen = Multicore.Dls.get global_gen in
    let seen, tm = Multicore.Dls.get cache in
    if seen = gen then tm
    else begin
      let tm = timer (Multicore.Dls.get global_sink) name in
      Multicore.Dls.set cache (gen, tm);
      tm
    end

let cached_histogram name =
  let cache = Multicore.Dls.new_key (fun () -> (-1, noop_histogram)) in
  fun () ->
    let gen = Multicore.Dls.get global_gen in
    let seen, h = Multicore.Dls.get cache in
    if seen = gen then h
    else begin
      let h = histogram (Multicore.Dls.get global_sink) name in
      Multicore.Dls.set cache (gen, h);
      h
    end

let cached_gauge name =
  let cache = Multicore.Dls.new_key (fun () -> (-1, noop_gauge)) in
  fun () ->
    let gen = Multicore.Dls.get global_gen in
    let seen, g = Multicore.Dls.get cache in
    if seen = gen then g
    else begin
      let g = gauge (Multicore.Dls.get global_sink) name in
      Multicore.Dls.set cache (gen, g);
      g
    end

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

let to_json t =
  let counters_json =
    Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) (counters t))
  in
  let timers_json =
    Json.Obj
      (List.map
         (fun (name, (calls, total_ns)) ->
           ( name,
             Json.Obj
               [ ("count", Json.Int calls); ("total_ns", Json.Int total_ns) ] ))
         (timers t))
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
      ("schema_version", Json.Int 2);
      ("counters", counters_json);
      ("timers", timers_json);
      ("histograms", histograms_json);
      ("gauges", gauges_json);
      ("spans", spans_json);
    ]

let to_string t = Json.to_string ~indent:true (to_json t)

(* ---------- live runtime telemetry --------------------------------------- *)

(* Fold the OCaml runtime's own event stream (GC pauses, collection and
   lifecycle counters) into a registry.  The heavy lifting — and the
   version gating — lives in Runtime_backend: dune selects a real
   [Runtime_events] consumer when the library exists (OCaml 5) and a
   no-op twin otherwise, so this module compiles and degrades
   gracefully on 4.14. *)
module Runtime = struct
  let available = Runtime_backend.available

  (* One cursor per process; [start] is idempotent and [poll] may be
     called from the main thread and the telemetry exporter's ticker
     concurrently (the backend serializes the drain under its own
     lock). *)
  let started = Atomic.make false

  let start () =
    if Runtime_backend.available then begin
      if Runtime_backend.start () then Atomic.set started true;
      Atomic.get started
    end
    else false

  let active () = Atomic.get started

  let poll t =
    match t with
    | Disabled -> 0
    | Enabled _ when not (Atomic.get started) -> 0
    | Enabled _ ->
      (* Resolve every handle up front so the metric families exist (at
         zero) from the first poll onward, before any GC event fires —
         dump readers see a stable set of series. *)
      let minor_pause = histogram t "runtime.gc.minor.pause_ns" in
      let major_pause = histogram t "runtime.gc.major.pause_ns" in
      let compact_pause = histogram t "runtime.gc.compact.pause_ns" in
      let minor_n = counter t "runtime.gc.minor.collections" in
      let major_n = counter t "runtime.gc.major.collections" in
      let compact_n = counter t "runtime.gc.compactions" in
      let spawns = counter t "runtime.domain.spawns" in
      let terminations = counter t "runtime.domain.terminations" in
      let lost = counter t "runtime.events.lost" in
      let max_pause = gauge t "runtime.gc.max_pause_ns" in
      let on_pause kind ns =
        (match kind with
        | Runtime_backend.Minor ->
          incr minor_n;
          observe minor_pause ns
        | Runtime_backend.Major ->
          incr major_n;
          observe major_pause ns
        | Runtime_backend.Compact ->
          incr compact_n;
          observe compact_pause ns);
        match gauge_value max_pause with
        | Some m when m >= float_of_int ns -> ()
        | Some _ | None -> set_gauge max_pause (float_of_int ns)
      in
      Runtime_backend.poll
        {
          Runtime_backend.on_pause;
          on_counter = (fun key v -> add (counter t ("runtime.gc." ^ key)) v);
          on_lifecycle =
            (fun kind ->
              match kind with
              | Runtime_backend.Spawn -> incr spawns
              | Runtime_backend.Terminate -> incr terminations);
          on_lost = (fun n -> add lost n);
        }
end

(* ---------- the live metrics file --------------------------------------- *)

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

  (* A ticker systhread of the installing domain that, every second,
     drains runtime events into the registry and atomically rewrites
     [path] with its JSON dump (tmp + rename, so a reader never sees a
     torn file).  The ticker reads the registry while the domain's main
     thread mutates it: memory-safe, but a dump taken mid-update may be
     one event ahead on one series. *)
  type exporter = {
    e_registry : t;
    e_path : string;
    e_stop : bool Atomic.t;
    e_thread : Thread.t;
  }

  let interval = 1.0

  let dump registry path =
    ignore (Runtime.poll registry : int);
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    (* a failed write must not leak the channel: the ticker retries *)
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (to_string registry);
        output_char oc '\n';
        close_out oc);
    Sys.rename tmp path

  let start ~path registry =
    ignore (Runtime.start () : bool);
    (* resolved on the caller, before the ticker exists *)
    let ticks = counter registry "telemetry.ticks" in
    (* the first write is synchronous: the file exists, or the path
       error raises, before [start] returns *)
    dump registry path;
    let stop = Atomic.make false in
    let thread =
      Thread.create
        (fun () ->
          (* sleep in short slices so [stop] never waits a full interval *)
          let rec pause remaining =
            if (not (Atomic.get stop)) && remaining > 0. then begin
              let d = Float.min remaining 0.05 in
              Thread.delay d;
              pause (remaining -. d)
            end
          in
          while not (Atomic.get stop) do
            pause interval;
            if not (Atomic.get stop) then begin
              incr ticks;
              (* a failed periodic write is retried on the next tick;
                 the final write in [stop] is the one that reports *)
              try dump registry path with Sys_error _ -> ()
            end
          done)
        ()
    in
    { e_registry = registry; e_path = path; e_stop = stop; e_thread = thread }

  let stop e =
    if not (Atomic.exchange e.e_stop true) then begin
      Thread.join e.e_thread;
      dump e.e_registry e.e_path
    end
end

(* ---------- streaming search traces -------------------------------------- *)

module Trace = struct
  let schema_version = 1

  type state_class = Accepted | Discarded | Duplicate | Reopened

  let class_name = function
    | Accepted -> "accepted"
    | Discarded -> "discarded"
    | Duplicate -> "duplicate"
    | Reopened -> "reopened"

  let class_of_name = function
    | "accepted" -> Some Accepted
    | "discarded" -> Some Discarded
    | "duplicate" -> Some Duplicate
    | "reopened" -> Some Reopened
    | _ -> None

  type writer = {
    oc : out_channel;
    buf : Buffer.t;
    cap : int;          (* flush threshold, bytes *)
    w_born : int;       (* ns; event timestamps are offsets from this *)
    mutable events : int;
    mutable closed : bool;
  }

  type t = Off | On of writer

  let disabled = Off

  let is_enabled = function Off -> false | On _ -> true

  (* Events are buffered whole lines; a flush therefore always leaves
     the file line-aligned, so a crashed run's partial trace is valid
     JSONL up to the last flush. *)
  let flush_writer w =
    if not w.closed then begin
      output_string w.oc (Buffer.contents w.buf);
      Buffer.clear w.buf;
      Stdlib.flush w.oc
    end

  let finish_line w =
    Buffer.add_char w.buf '\n';
    w.events <- w.events + 1;
    if Buffer.length w.buf >= w.cap then flush_writer w

  let add_float b f =
    if Float.is_finite f then Printf.bprintf b "%.17g" f
    else Buffer.add_string b "null"

  let stamp w = Printf.bprintf w.buf {|"t":%d|} (now_ns () - w.w_born)

  let create ?(buffer_bytes = 1 lsl 16) path =
    let oc = open_out path in
    let w =
      {
        oc;
        buf = Buffer.create (buffer_bytes + 512);
        cap = buffer_bytes;
        w_born = now_ns ();
        events = 0;
        closed = false;
      }
    in
    Printf.bprintf w.buf {|{"e":"meta","v":%d}|} schema_version;
    finish_line w;
    On w

  let flush = function Off -> () | On w -> flush_writer w

  let close = function
    | Off -> ()
    | On w ->
      if not w.closed then begin
        flush_writer w;
        w.closed <- true;
        close_out w.oc
      end

  let event_count = function Off -> 0 | On w -> w.events

  (* Emitters: each is a plain call that returns immediately on [Off]
     without allocating — they sit on the search's hot path. *)

  let run_start t ~strategy ~strata ~initial_cost =
    match t with
    | Off -> ()
    | On w ->
      Printf.bprintf w.buf {|{"e":"run_start",|};
      stamp w;
      Printf.bprintf w.buf {|,"strategy":"%s","strata":[|} strategy;
      Array.iteri
        (fun i name ->
          if i > 0 then Buffer.add_char w.buf ',';
          Printf.bprintf w.buf {|"%s"|} name)
        strata;
      Buffer.add_string w.buf {|],"initial_cost":|};
      add_float w.buf initial_cost;
      Buffer.add_char w.buf '}';
      finish_line w

  let run_end t ~best_cost ~created ~explored ~duplicates ~discarded ~completed =
    match t with
    | Off -> ()
    | On w ->
      Printf.bprintf w.buf {|{"e":"run_end",|};
      stamp w;
      Buffer.add_string w.buf {|,"best_cost":|};
      add_float w.buf best_cost;
      Printf.bprintf w.buf
        {|,"created":%d,"explored":%d,"duplicates":%d,"discarded":%d,"completed":%b}|}
        created explored duplicates discarded completed;
      finish_line w;
      (* a run boundary is always durable *)
      flush_writer w

  let state t ~cls ~id ~stratum ~cost =
    match t with
    | Off -> ()
    | On w ->
      Printf.bprintf w.buf {|{"e":"state",|};
      stamp w;
      Printf.bprintf w.buf {|,"k":"%s","id":%d,"stratum":%d,"cost":|}
        (class_name cls) id stratum;
      add_float w.buf cost;
      Buffer.add_char w.buf '}';
      finish_line w

  let transition t ~kind ~applied ~rejected ~elapsed_ns =
    match t with
    | Off -> ()
    | On w ->
      Printf.bprintf w.buf {|{"e":"transition",|};
      stamp w;
      Printf.bprintf w.buf {|,"k":"%s","applied":%d,"rejected":%d,"ns":%d}|}
        kind applied rejected elapsed_ns;
      finish_line w

  let cost_memo t ~hits ~misses =
    match t with
    | Off -> ()
    | On w ->
      Printf.bprintf w.buf {|{"e":"cost_memo",|};
      stamp w;
      Printf.bprintf w.buf {|,"hits":%d,"misses":%d}|} hits misses;
      finish_line w

  let heartbeat t ~created ~explored ~best_cost ~elapsed_ns =
    match t with
    | Off -> ()
    | On w ->
      Printf.bprintf w.buf {|{"e":"heartbeat",|};
      stamp w;
      Printf.bprintf w.buf {|,"created":%d,"explored":%d,"best_cost":|} created
        explored;
      add_float w.buf best_cost;
      Printf.bprintf w.buf {|,"elapsed_ns":%d}|} elapsed_ns;
      finish_line w;
      (* heartbeats bound how much a crash can lose *)
      flush_writer w

  (* ---------- the global trace sink ---------- *)

  (* Domain-local like the metrics sink: a trace writer buffers into a
     single Buffer, so sharing one across domains would interleave
     bytes.  Worker domains default to [Off]; under a parallel search
     the trace therefore records the coordinating domain only. *)
  let global_trace = Multicore.Dls.new_key (fun () -> Off)

  let set_global t = Multicore.Dls.set global_trace t

  let global () = Multicore.Dls.get global_trace

  (* ---------- reading ---------- *)

  type event =
    | Meta of { version : int }
    | Run_start of {
        at_ns : int;
        strategy : string;
        strata : string array;
        initial_cost : float;
      }
    | Run_end of {
        at_ns : int;
        best_cost : float;
        created : int;
        explored : int;
        duplicates : int;
        discarded : int;
        completed : bool;
      }
    | State of {
        at_ns : int;
        cls : state_class;
        id : int;
        stratum : int;
        cost : float option;
      }
    | Transition of {
        at_ns : int;
        kind : string;
        applied : int;
        rejected : int;
        elapsed_ns : int;
      }
    | Cost_memo of { at_ns : int; hits : int; misses : int }
    | Heartbeat of {
        at_ns : int;
        created : int;
        explored : int;
        best_cost : float;
        elapsed_ns : int;
      }

  exception Malformed of string

  let ifield ?(default = 0) j k =
    match Json.member k j with Some (Json.Int i) -> i | _ -> default

  let ffield j k =
    match Json.member k j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> Float.nan

  let ffield_opt j k =
    match Json.member k j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | Some Json.Null | None | Some _ -> None

  let sfield j k =
    match Json.member k j with Some (Json.String s) -> s | _ -> ""

  let event_of_json j =
    let at_ns = ifield j "t" in
    match Json.member "e" j with
    | Some (Json.String "meta") -> Some (Meta { version = ifield j "v" })
    | Some (Json.String "run_start") ->
      let strata =
        match Json.member "strata" j with
        | Some (Json.List items) ->
          Array.of_list
            (List.filter_map
               (function Json.String s -> Some s | _ -> None)
               items)
        | _ -> [||]
      in
      Some
        (Run_start
           {
             at_ns;
             strategy = sfield j "strategy";
             strata;
             initial_cost = ffield j "initial_cost";
           })
    | Some (Json.String "run_end") ->
      Some
        (Run_end
           {
             at_ns;
             best_cost = ffield j "best_cost";
             created = ifield j "created";
             explored = ifield j "explored";
             duplicates = ifield j "duplicates";
             discarded = ifield j "discarded";
             completed =
               (match Json.member "completed" j with
               | Some (Json.Bool b) -> b
               | _ -> false);
           })
    | Some (Json.String "state") ->
      Option.map
        (fun cls ->
          State
            {
              at_ns;
              cls;
              id = ifield j "id";
              stratum = ifield j "stratum";
              cost = ffield_opt j "cost";
            })
        (class_of_name (sfield j "k"))
    | Some (Json.String "transition") ->
      Some
        (Transition
           {
             at_ns;
             kind = sfield j "k";
             applied = ifield j "applied";
             rejected = ifield j "rejected";
             elapsed_ns = ifield j "ns";
           })
    | Some (Json.String "cost_memo") ->
      Some (Cost_memo { at_ns; hits = ifield j "hits"; misses = ifield j "misses" })
    | Some (Json.String "heartbeat") ->
      Some
        (Heartbeat
           {
             at_ns;
             created = ifield j "created";
             explored = ifield j "explored";
             best_cost = ffield j "best_cost";
             elapsed_ns = ifield j "elapsed_ns";
           })
    | Some _ | None -> None (* unknown event kinds are skipped, not fatal *)

  (* Parse a trace.  A malformed *last* line is tolerated (a crash can
     truncate the final OS-level write mid-line); a malformed line in
     the middle raises [Malformed], and so does input whose first line
     is not the meta header [create] writes. *)
  let parse_lines text =
    let lines = String.split_on_char '\n' text in
    let n = List.length lines in
    let events = ref [] in
    let header = ref false in
    let expected = {|expected the {"e":"meta"} trace header|} in
    List.iteri
      (fun i line ->
        if not (String.equal (String.trim line) "") then begin
          let malformed msg =
            raise (Malformed (Printf.sprintf "line %d: %s" (i + 1) msg))
          in
          match Json.of_string line with
          | j -> (
            match event_of_json j with
            | Some (Meta _ as e) ->
              header := true;
              events := e :: !events
            | Some e when !header -> events := e :: !events
            | None when !header -> ()
            | Some _ | None -> malformed expected)
          | exception Json.Parse_error msg -> if i < n - 1 then malformed msg
        end)
      lines;
    if not !header then raise (Malformed ("line 1: " ^ expected));
    List.rev !events

  let read_file path =
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    parse_lines text
end

(* ---------- offline trace analysis --------------------------------------- *)

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
    source : string;  (* "trace" or "metrics" *)
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
    convergence : (int * int * float) list;
        (* (at_ns, states created so far, new best cost), oldest first *)
    kinds : kind_row list;
    memo_hits : int;
    memo_misses : int;
  }

  let rcr s =
    match (s.initial_cost, s.final_cost) with
    | Some i, Some f when i > 0. -> Some ((i -. f) /. i)
    | _ -> None

  (* Earliest convergence point within [pct]% of the final best cost
     (threshold final * (1 + pct/100)), as (at_ns, states created). *)
  let time_to_within s pct =
    match s.final_cost with
    | None -> None
    | Some final ->
      let threshold = final *. (1. +. (pct /. 100.)) in
      List.find_map
        (fun (at_ns, created, cost) ->
          if cost <= threshold then Some (at_ns, created) else None)
        s.convergence

  let empty source =
    {
      source;
      strategy = None;
      initial_cost = None;
      final_cost = None;
      created = 0;
      explored = 0;
      duplicates = 0;
      discarded = 0;
      accepted = 0;
      reopened = 0;
      completed = None;
      wall_ns = None;
      convergence = [];
      kinds = [];
      memo_hits = 0;
      memo_misses = 0;
    }

  type _kind_acc = {
    mutable a_applied : int;
    mutable a_rejected : int;
    mutable a_time : int;
    mutable a_accepted : int;
    mutable a_reopened : int;
    mutable a_duplicates : int;
    mutable a_discarded : int;
  }

  let _fresh_acc () =
    {
      a_applied = 0;
      a_rejected = 0;
      a_time = 0;
      a_accepted = 0;
      a_reopened = 0;
      a_duplicates = 0;
      a_discarded = 0;
    }

  let of_trace events =
    let s = ref (empty "trace") in
    let strata = ref [||] in
    let by_kind : (string, _kind_acc) Hashtbl.t = Hashtbl.create 8 in
    let kind_order = ref [] in
    let acc_for kind =
      match Hashtbl.find_opt by_kind kind with
      | Some a -> a
      | None ->
        let a = _fresh_acc () in
        Hashtbl.add by_kind kind a;
        kind_order := kind :: !kind_order;
        a
    in
    let kind_of_stratum i =
      if i >= 0 && i < Array.length !strata then !strata.(i)
      else Printf.sprintf "#%d" i
    in
    let best = ref Float.infinity in
    let created = ref 0 in
    let explored = ref 0 in
    let initial_accepted = ref 0 in
    let last_ns = ref 0 in
    let from_run_end = ref false in
    List.iter
      (fun e ->
        (match e with
        | Trace.Meta _ -> ()
        | Trace.Run_start r ->
          last_ns := Stdlib.max !last_ns r.at_ns;
          strata := r.strata;
          Array.iter (fun k -> ignore (acc_for k)) r.strata;
          s :=
            {
              !s with
              strategy = Some r.strategy;
              initial_cost =
                (if Float.is_finite r.initial_cost then Some r.initial_cost
                 else None);
            }
        | Trace.Run_end r ->
          last_ns := Stdlib.max !last_ns r.at_ns;
          from_run_end := true;
          s :=
            {
              !s with
              final_cost =
                (if Float.is_finite r.best_cost then Some r.best_cost
                 else !s.final_cost);
              created = r.created;
              explored = r.explored;
              duplicates = r.duplicates;
              discarded = r.discarded;
              completed = Some r.completed;
              wall_ns = Some r.at_ns;
            }
        | Trace.State st ->
          last_ns := Stdlib.max !last_ns st.at_ns;
          (* id 0 is the initial state: accepted, but neither "created"
             nor attributable to any transition's stratum *)
          if st.id > 0 then created := !created + 1;
          (match (st.cls, st.cost) with
          | (Trace.Accepted | Trace.Duplicate | Trace.Reopened), Some c
            when c < !best ->
            best := c;
            s := { !s with convergence = (st.at_ns, !created, c) :: !s.convergence }
          | _ -> ());
          if st.id = 0 then initial_accepted := !initial_accepted + 1
          else begin
            let a = acc_for (kind_of_stratum st.stratum) in
            match st.cls with
            | Trace.Accepted -> a.a_accepted <- a.a_accepted + 1
            | Trace.Reopened -> a.a_reopened <- a.a_reopened + 1
            | Trace.Duplicate -> a.a_duplicates <- a.a_duplicates + 1
            | Trace.Discarded -> a.a_discarded <- a.a_discarded + 1
          end
        | Trace.Transition tr ->
          last_ns := Stdlib.max !last_ns tr.at_ns;
          let a = acc_for tr.kind in
          a.a_applied <- a.a_applied + tr.applied;
          a.a_rejected <- a.a_rejected + tr.rejected;
          a.a_time <- a.a_time + tr.elapsed_ns
        | Trace.Cost_memo m ->
          last_ns := Stdlib.max !last_ns m.at_ns;
          s := { !s with memo_hits = m.hits; memo_misses = m.misses }
        | Trace.Heartbeat h ->
          last_ns := Stdlib.max !last_ns h.at_ns;
          explored := h.explored))
      events;
    let kinds =
      List.rev_map
        (fun kind ->
          let a = acc_for kind in
          {
            kind;
            applied = a.a_applied;
            rejected = a.a_rejected;
            created_k = a.a_accepted + a.a_reopened + a.a_duplicates + a.a_discarded;
            accepted_k = a.a_accepted;
            reopened_k = a.a_reopened;
            duplicates_k = a.a_duplicates;
            discarded_k = a.a_discarded;
            time_ns = a.a_time;
          })
        !kind_order
    in
    let accepted, reopened, duplicates, discarded =
      List.fold_left
        (fun (a, r, du, di) row ->
          ( a + row.accepted_k,
            r + row.reopened_k,
            du + row.duplicates_k,
            di + row.discarded_k ))
        (0, 0, 0, 0) kinds
    in
    let s = !s in
    let s =
      if !from_run_end then s
      else
        (* crashed / truncated trace: reconstruct totals from the events *)
        {
          s with
          created = !created;
          explored = !explored;
          duplicates = duplicates + reopened;
          discarded;
          wall_ns = (if !last_ns > 0 then Some !last_ns else None);
          final_cost =
            (if Float.is_finite !best then Some !best else s.final_cost);
        }
    in
    {
      s with
      accepted = accepted + !initial_accepted;
      reopened;
      kinds;
      convergence = List.rev s.convergence;
      final_cost =
        (match s.final_cost with
        | Some f -> Some f
        | None -> if Float.is_finite !best then Some !best else None);
    }

  exception Bad_dump of string

  (* The shape [to_json] writes; anything else is refused by name
     rather than read as an all-zero run. *)
  let check_dump json =
    let fail fmt = Printf.ksprintf (fun m -> raise (Bad_dump m)) fmt in
    (match Json.member "schema_version" json with
    | Some (Json.Int 2) -> ()
    | Some _ -> fail "schema_version: expected 2"
    | None -> fail "missing member schema_version");
    List.iter
      (fun key ->
        match Json.member key json with
        | Some (Json.Obj _) -> ()
        | Some _ -> fail "%s: expected an object" key
        | None -> fail "missing member %s" key)
      [ "counters"; "timers"; "histograms"; "gauges" ];
    match Json.member "spans" json with
    | Some (Json.List _) -> ()
    | Some _ -> fail "spans: expected a list"
    | None -> fail "missing member spans"

  (* Degraded analysis of a `--metrics` registry dump: totals and
     per-kind counters are available, but there are no per-event
     records, so the convergence curve is empty. *)
  let of_metrics json =
    check_dump json;
    let counter name =
      match Option.bind (Json.member "counters" json) (Json.member name) with
      | Some (Json.Int i) -> i
      | _ -> 0
    in
    let gauge name =
      match Option.bind (Json.member "gauges" json) (Json.member name) with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    let timer_total name =
      match Option.bind (Json.member "timers" json) (Json.member name) with
      | Some t -> (
        match Json.member "total_ns" t with Some (Json.Int i) -> Some i | _ -> None)
      | _ -> None
    in
    let kind_names =
      match Json.member "counters" json with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (name, _) ->
            match String.split_on_char '.' name with
            | [ "transition"; kind; "applied" ] -> Some kind
            | _ -> None)
          fields
      | _ -> []
    in
    let kinds =
      List.map
        (fun kind ->
          {
            kind;
            applied = counter (Printf.sprintf "transition.%s.applied" kind);
            rejected = counter (Printf.sprintf "transition.%s.rejected" kind);
            created_k = counter (Printf.sprintf "search.stratum.%s.created" kind);
            accepted_k = 0;
            reopened_k = 0;
            duplicates_k = 0;
            discarded_k = 0;
            time_ns =
              Option.value ~default:0
                (timer_total (Printf.sprintf "transition.%s.time" kind));
          })
        kind_names
    in
    {
      (empty "metrics") with
      initial_cost = gauge "search.initial_cost";
      final_cost = gauge "search.best_cost";
      created = counter "search.created";
      explored = counter "search.explored";
      duplicates = counter "search.duplicates";
      discarded = counter "search.discarded";
      reopened = counter "search.reopened";
      accepted =
        counter "search.created" - counter "search.duplicates"
        - counter "search.discarded";
      wall_ns = timer_total "search.run";
      kinds;
      memo_hits = counter "cost.state.hits";
      memo_misses = counter "cost.state.misses";
    }

  (* ---------- text rendering ---------- *)

  let _btable b rows =
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

  let _fcost f = Printf.sprintf "%.6g" f

  let _fsec ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e9)

  let render s =
    let b = Buffer.create 4096 in
    Printf.bprintf b "search %s report\n" s.source;
    Buffer.add_string b "===================\n";
    (match s.strategy with
    | Some st -> Printf.bprintf b "strategy:   %s\n" st
    | None -> ());
    Printf.bprintf b
      "states:     created %d (accepted %d, duplicates %d, discarded %d, \
       reopened %d), explored %d\n"
      s.created s.accepted s.duplicates s.discarded s.reopened s.explored;
    (match (s.initial_cost, s.final_cost) with
    | Some i, Some f ->
      Printf.bprintf b "cost:       initial %s -> final best %s" (_fcost i)
        (_fcost f);
      (match rcr s with
      | Some r -> Printf.bprintf b " (rcr %.3f)\n" r
      | None -> Buffer.add_char b '\n')
    | None, Some f -> Printf.bprintf b "cost:       final best %s\n" (_fcost f)
    | _, None -> Buffer.add_string b "cost:       (no cost events)\n");
    (match s.wall_ns with
    | Some ns -> Printf.bprintf b "wall time:  %s s\n" (_fsec ns)
    | None -> ());
    (match s.completed with
    | Some true -> Buffer.add_string b "outcome:    completed (space exhausted)\n"
    | Some false -> Buffer.add_string b "outcome:    cut (budget or memory)\n"
    | None -> ());
    if s.memo_hits + s.memo_misses > 0 then
      Printf.bprintf b "cost memo:  %d hits / %d misses (%.1f%% hit rate)\n"
        s.memo_hits s.memo_misses
        (100.
        *. float_of_int s.memo_hits
        /. float_of_int (s.memo_hits + s.memo_misses));
    Buffer.add_string b "\nconvergence (best cost vs wall time and states created)\n";
    if s.convergence = [] then
      Buffer.add_string b
        "  (no per-event data; run `rdfviews select --trace FILE` and point \
         `rdfviews report` at the trace)\n"
    else
      _btable b
        ([ "time_s"; "created"; "best_cost" ]
        :: List.map
             (fun (at_ns, created, cost) ->
               [ _fsec at_ns; string_of_int created; _fcost cost ])
             s.convergence);
    if s.convergence <> [] then begin
      Buffer.add_string b "\ntime to within x% of final best cost\n";
      _btable b
        ([ "within"; "time_s"; "created" ]
        :: List.filter_map
             (fun pct ->
               Option.map
                 (fun (at_ns, created) ->
                   [
                     Printf.sprintf "%g%%" pct;
                     _fsec at_ns;
                     string_of_int created;
                   ])
                 (time_to_within s pct))
             [ 50.; 20.; 10.; 5.; 1.; 0. ])
    end;
    (* a metrics dump has no per-state class records, so the per-class
       columns only appear for trace input *)
    let per_class = String.equal s.source "trace" in
    if s.kinds <> [] then begin
      Buffer.add_string b "\ntransition acceptance breakdown\n";
      _btable b
        (([ "kind"; "applied"; "rejected" ]
         @ (if per_class then [ "accepted"; "acceptance" ] else [])
         @ [ "time_ms" ])
        :: List.map
             (fun k ->
               [ k.kind; string_of_int k.applied; string_of_int k.rejected ]
               @ (if per_class then
                    [
                      string_of_int k.accepted_k;
                      (if k.applied = 0 then "-"
                       else
                         Printf.sprintf "%.1f%%"
                           (100. *. float_of_int k.accepted_k
                           /. float_of_int k.applied));
                    ]
                  else [])
               @ [ Printf.sprintf "%.3f" (float_of_int k.time_ns /. 1e6) ])
             s.kinds);
      Buffer.add_string b "\nstratum population\n";
      _btable b
        (([ "stratum"; "created" ]
         @
         if per_class then [ "accepted"; "reopened"; "duplicates"; "discarded" ]
         else [])
        :: List.map
             (fun k ->
               [ k.kind; string_of_int k.created_k ]
               @
               if per_class then
                 [
                   string_of_int k.accepted_k;
                   string_of_int k.reopened_k;
                   string_of_int k.duplicates_k;
                   string_of_int k.discarded_k;
                 ]
               else [])
             s.kinds)
    end;
    Buffer.contents b

  (* ---------- telemetry snapshot rendering (`rdfviews top`) ---------- *)

  let _fmt_count f =
    if Float.abs f >= 1e9 then Printf.sprintf "%.2fG" (f /. 1e9)
    else if Float.abs f >= 1e6 then Printf.sprintf "%.2fM" (f /. 1e6)
    else if Float.abs f >= 1e4 then Printf.sprintf "%.1fk" (f /. 1e3)
    else Printf.sprintf "%.0f" f

  let _fmt_ms_f ns = Printf.sprintf "%.3f" (ns /. 1e6)

  (* Render a `--metrics` dump (the live file the exporter rewrites) as
     a `top`-style summary: GC activity, domain lifecycle and
     per-domain utilization, search progress. *)
  let render_telemetry json =
    check_dump json;
    let b = Buffer.create 2048 in
    let members key =
      match Json.member key json with Some (Json.Obj fields) -> fields | _ -> []
    in
    let counters = members "counters" and histograms = members "histograms" in
    let gauges = members "gauges" and timers = members "timers" in
    let num = function
      | Json.Int i -> Some (float_of_int i)
      | Json.Float f -> Some f
      | _ -> None
    in
    let counter name = Option.bind (List.assoc_opt name counters) num in
    let gauge name = Option.bind (List.assoc_opt name gauges) num in
    let hist name field =
      Option.bind (List.assoc_opt name histograms) (fun h ->
          Option.bind (Json.member field h) num)
    in
    let cd name = Option.value ~default:0. (counter name) in
    Buffer.add_string b "runtime telemetry snapshot\n";
    Buffer.add_string b "==========================\n";
    (match counter "telemetry.ticks" with
    | Some n -> Printf.bprintf b "exporter:   %.0f ticks\n" n
    | None -> ());
    let gc_rows =
      List.filter_map
        (fun (label, count_name, pause) ->
          match counter count_name with
          | None -> None
          | Some n ->
            let sum = hist pause "total" in
            let mean =
              match (sum, hist pause "count") with
              | Some s, Some c when c > 0. -> _fmt_ms_f (s /. c)
              | _ -> "-"
            in
            let total = match sum with Some s -> _fmt_ms_f s | None -> "-" in
            Some [ label; Printf.sprintf "%.0f" n; mean; total ])
        [
          ("minor", "runtime.gc.minor.collections", "runtime.gc.minor.pause_ns");
          ("major", "runtime.gc.major.collections", "runtime.gc.major.pause_ns");
          ("compact", "runtime.gc.compactions", "runtime.gc.compact.pause_ns");
        ]
    in
    if gc_rows <> [] then begin
      Buffer.add_string b "\ngarbage collector\n";
      _btable b ([ "phase"; "collections"; "mean_ms"; "total_ms" ] :: gc_rows);
      (match gauge "runtime.gc.max_pause_ns" with
      | Some m -> Printf.bprintf b "  max pause: %s ms\n" (_fmt_ms_f m)
      | None -> ());
      (match counter "runtime.gc.minor_allocated_words" with
      | Some w -> Printf.bprintf b "  minor allocated: %s words\n" (_fmt_count w)
      | None -> ());
      (match counter "runtime.events.lost" with
      | Some l when l > 0. -> Printf.bprintf b "  LOST EVENTS: %.0f\n" l
      | _ -> ())
    end
    else
      Buffer.add_string b
        "\ngarbage collector: no runtime events (OCaml 4.x build, or a \
         dump not written by the live exporter)\n";
    let domain_indices =
      List.sort_uniq Int.compare
        (List.filter_map
           (fun (name, _) ->
             match String.split_on_char '.' name with
             | [ "parallel"; "domain"; i; "work_ns" ] -> int_of_string_opt i
             | _ -> None)
           counters)
    in
    Printf.bprintf b "\ndomains: %.0f spawned, %.0f terminated\n"
      (cd "runtime.domain.spawns")
      (cd "runtime.domain.terminations");
    if domain_indices <> [] then begin
      Buffer.add_string b "\nper-domain utilization (last parallel search)\n";
      _btable b
        ([ "domain"; "work_ms"; "steal_ms"; "idle_ms"; "busy" ]
        :: List.map
             (fun i ->
               let g what = cd (Printf.sprintf "parallel.domain.%d.%s_ns" i what) in
               let work = g "work" and steal = g "steal" and idle = g "idle" in
               let total = work +. steal +. idle in
               [
                 string_of_int i;
                 _fmt_ms_f work;
                 _fmt_ms_f steal;
                 _fmt_ms_f idle;
                 (if total > 0. then
                    Printf.sprintf "%.1f%%" (100. *. (work +. steal) /. total)
                  else "-");
               ])
             domain_indices)
    end;
    (match counter "search.created" with
    | Some created ->
      Buffer.add_string b "\nsearch\n";
      Printf.bprintf b
        "  states: created %.0f, explored %.0f, duplicates %.0f, discarded \
         %.0f\n"
        created (cd "search.explored") (cd "search.duplicates")
        (cd "search.discarded");
      (match gauge "search.best_cost" with
      | Some c -> Printf.bprintf b "  best cost: %s" (_fcost c);
        (match gauge "search.initial_cost" with
        | Some i when i > 0. ->
          Printf.bprintf b " (rcr %.3f)\n" ((i -. c) /. i)
        | _ -> Buffer.add_char b '\n')
      | None -> ())
    | None -> Buffer.add_string b "\nsearch: no search counters in dump\n");
    Printf.bprintf b "\n%d counters, %d timers, %d histograms, %d gauges\n"
      (List.length counters) (List.length timers) (List.length histograms)
      (List.length gauges);
    Buffer.contents b
end
