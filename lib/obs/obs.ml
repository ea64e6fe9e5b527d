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

let write_file t path =
  let oc = open_out path in
  output_string oc (to_string t);
  output_char oc '\n';
  close_out oc

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
         exposition consumers see a stable set of series. *)
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

(* ---------- snapshots and Prometheus exposition --------------------------- *)

module Export = struct
  (* ---------- registry snapshots ---------- *)

  type hist_snap = { hsn_buckets : int array; hsn_count : int; hsn_sum : int }

  type snapshot = {
    snap_unix_s : float;  (* Unix.gettimeofday at capture *)
    snap_counters : (string * int) list;
    snap_timers : (string * (int * int)) list;  (* (calls, total_ns) *)
    snap_gauges : (string * float) list;
    snap_histograms : (string * hist_snap) list;
  }

  (* Deep copy of a registry's current contents.  Reading a registry
     while its owning domain mutates it is memory-safe (same-domain
     systhread or quiescent registry) but advisory in consistency: a
     snapshot taken mid-update may be one event ahead on one series —
     acceptable for telemetry, never for accounting. *)
  let snapshot t =
    {
      snap_unix_s = Unix.gettimeofday ();
      snap_counters = counters t;
      snap_timers = timers t;
      snap_gauges = gauges t;
      snap_histograms =
        List.map
          (fun (name, h) ->
            ( name,
              {
                hsn_buckets = Array.copy h.buckets;
                hsn_count = h.events;
                hsn_sum = h.sum;
              } ))
          (histograms t);
    }

  (* ---------- bounded snapshot ring ---------- *)

  (* Fixed-capacity ring of the most recent snapshots, oldest
     overwritten first.  Pushed from the exporter's ticker thread and
     read from whoever renders, so every mutable field sits behind the
     ring's spinlock. *)
  type ring = {
    r_lock : Multicore.Spinlock.t;
    r_slots : snapshot option array; [@guarded_by "r_lock"]
    mutable r_next : int; [@guarded_by "r_lock"]  (* next write slot *)
    mutable r_count : int; [@guarded_by "r_lock"]
  }

  let ring_create capacity =
    let capacity = if capacity < 1 then 1 else capacity in
    {
      r_lock = Multicore.Spinlock.create ();
      r_slots = Array.make capacity None;
      r_next = 0;
      r_count = 0;
    }

  let ring_capacity r = Array.length r.r_slots

  let ring_push r snap =
    Multicore.Spinlock.with_lock r.r_lock (fun () ->
        let cap = Array.length r.r_slots in
        r.r_slots.(r.r_next) <- Some snap;
        r.r_next <- (r.r_next + 1) mod cap;
        if r.r_count < cap then r.r_count <- r.r_count + 1)

  let ring_length r = Multicore.Spinlock.with_lock r.r_lock (fun () -> r.r_count)

  (* Oldest first. *)
  let ring_to_list r =
    Multicore.Spinlock.with_lock r.r_lock (fun () ->
        let cap = Array.length r.r_slots in
        let first = (r.r_next - r.r_count + cap) mod cap in
        List.init r.r_count (fun i ->
            match r.r_slots.((first + i) mod cap) with
            | Some s -> s
            | None -> assert false (* count covers only filled slots *)))

  (* ---------- Prometheus text exposition ---------- *)

  (* Metric names: "search.expand.ns" -> "rdfviews_search_expand_ns".
     A "parallel.domain.<i>.<rest>" series instead becomes
     "rdfviews_parallel_<rest>" with a {domain="<i>"} label, so all
     domains of one quantity form one family. *)
  let mangle name =
    "rdfviews_"
    ^ String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
          | _ -> '_')
        name

  let split_domain_label name =
    match String.split_on_char '.' name with
    | "parallel" :: "domain" :: idx :: (_ :: _ as rest) -> (
      match int_of_string_opt idx with
      | Some i -> (String.concat "." ("parallel" :: rest), [ ("domain", string_of_int i) ])
      | None -> (name, []))
    | _ -> (name, [])

  let label_string labels =
    match labels with
    | [] -> ""
    | _ ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) labels)
      ^ "}"

  let add_value b v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.bprintf b "%.0f" v
    else Printf.bprintf b "%.17g" v

  (* Group a (name, payload) list into (family base name, labels,
     payload) runs, one HELP/TYPE header per family, preserving the
     input's sorted order. *)
  let group_families series =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (name, payload) ->
        let base, labels = split_domain_label name in
        match Hashtbl.find_opt tbl base with
        | Some items -> items := (labels, payload) :: !items
        | None ->
          Hashtbl.add tbl base (ref [ (labels, payload) ]);
          order := base :: !order)
      series;
    List.rev_map
      (fun base ->
        match Hashtbl.find_opt tbl base with
        | Some items -> (base, List.rev !items)
        | None -> (base, []))
      !order

  let exposition_of_snapshot snap =
    let b = Buffer.create 4096 in
    let header name typ help =
      Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" name help name typ
    in
    header "rdfviews_snapshot_timestamp_seconds" "gauge"
      "Unix time at which this snapshot was captured.";
    Printf.bprintf b "rdfviews_snapshot_timestamp_seconds %.6f\n"
      snap.snap_unix_s;
    List.iter
      (fun (base, items) ->
        let fam = mangle base ^ "_total" in
        header fam "counter" (Printf.sprintf "Obs counter %s." base);
        List.iter
          (fun (labels, v) ->
            Printf.bprintf b "%s%s %d\n" fam (label_string labels) v)
          items)
      (group_families snap.snap_counters);
    List.iter
      (fun (base, items) ->
        let ns = mangle base ^ "_ns_total" in
        let calls = mangle base ^ "_calls_total" in
        header ns "counter"
          (Printf.sprintf "Obs timer %s: accumulated nanoseconds." base);
        List.iter
          (fun (labels, (_, total_ns)) ->
            Printf.bprintf b "%s%s %d\n" ns (label_string labels) total_ns)
          items;
        header calls "counter"
          (Printf.sprintf "Obs timer %s: timed calls." base);
        List.iter
          (fun (labels, (c, _)) ->
            Printf.bprintf b "%s%s %d\n" calls (label_string labels) c)
          items)
      (group_families snap.snap_timers);
    List.iter
      (fun (base, items) ->
        let fam = mangle base in
        header fam "gauge" (Printf.sprintf "Obs gauge %s." base);
        List.iter
          (fun (labels, v) ->
            Printf.bprintf b "%s%s " fam (label_string labels);
            add_value b v;
            Buffer.add_char b '\n')
          items)
      (group_families snap.snap_gauges);
    List.iter
      (fun (base, items) ->
        let fam = mangle base in
        header fam "histogram"
          (Printf.sprintf
             "Obs histogram %s (log-bucketed; le boundaries are powers of 2)."
             base);
        List.iter
          (fun (labels, h) ->
            (* cumulative buckets up to the highest non-empty one *)
            let last = ref (-1) in
            Array.iteri
              (fun i n -> if n > 0 then last := i)
              h.hsn_buckets;
            let cum = ref 0 in
            for i = 0 to !last do
              cum := !cum + h.hsn_buckets.(i);
              let le =
                if i = 0 then "0" else Printf.sprintf "%g" (Float.ldexp 1. i)
              in
              Printf.bprintf b "%s_bucket%s %d\n" fam
                (label_string (labels @ [ ("le", le) ]))
                !cum
            done;
            Printf.bprintf b "%s_bucket%s %d\n" fam
              (label_string (labels @ [ ("le", "+Inf") ]))
              h.hsn_count;
            Printf.bprintf b "%s_sum%s %d\n" fam (label_string labels)
              h.hsn_sum;
            Printf.bprintf b "%s_count%s %d\n" fam (label_string labels)
              h.hsn_count)
          items)
      (group_families snap.snap_histograms);
    Buffer.contents b

  let exposition t = exposition_of_snapshot (snapshot t)

  (* ---------- parsing the exposition back ---------- *)

  (* Just enough of the Prometheus text format to read what
     [exposition_of_snapshot] writes (and ordinary hand-written files):
     HELP/TYPE comments open a family; sample lines carry optional
     {k="v",...} labels and a float value.  Unknown comment lines are
     skipped. *)

  type sample = {
    s_name : string;  (* full series name, suffixes included *)
    s_labels : (string * string) list;
    s_value : float;
  }

  type family = {
    f_name : string;  (* family base name from HELP/TYPE *)
    f_type : string;  (* "counter" | "gauge" | "histogram" | "untyped" *)
    f_help : string;
    f_samples : sample list;  (* in file order *)
  }

  exception Bad_exposition of string

  let is_name_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false

  let parse_sample_line lineno line =
    let n = String.length line in
    let pos = ref 0 in
    let fail msg =
      raise (Bad_exposition (Printf.sprintf "line %d: %s" lineno msg))
    in
    while !pos < n && is_name_char line.[!pos] do
      Stdlib.incr pos
    done;
    if !pos = 0 then fail "expected a metric name";
    let name = String.sub line 0 !pos in
    let labels = ref [] in
    if !pos < n && Char.equal line.[!pos] '{' then begin
      Stdlib.incr pos;
      let rec labels_loop () =
        while !pos < n && Char.equal line.[!pos] ' ' do
          Stdlib.incr pos
        done;
        if !pos < n && Char.equal line.[!pos] '}' then Stdlib.incr pos
        else begin
          let k0 = !pos in
          while !pos < n && is_name_char line.[!pos] do
            Stdlib.incr pos
          done;
          if !pos = k0 then fail "expected a label name";
          let key = String.sub line k0 (!pos - k0) in
          if not (!pos + 1 < n && Char.equal line.[!pos] '='
                  && Char.equal line.[!pos + 1] '"')
          then fail "expected =\" after label name";
          pos := !pos + 2;
          let buf = Buffer.create 8 in
          let rec value_loop () =
            if !pos >= n then fail "unterminated label value"
            else
              match line.[!pos] with
              | '"' -> Stdlib.incr pos
              | '\\' when !pos + 1 < n ->
                (match line.[!pos + 1] with
                | 'n' -> Buffer.add_char buf '\n'
                | c -> Buffer.add_char buf c);
                pos := !pos + 2;
                value_loop ()
              | c ->
                Buffer.add_char buf c;
                Stdlib.incr pos;
                value_loop ()
          in
          value_loop ();
          labels := (key, Buffer.contents buf) :: !labels;
          if !pos < n && Char.equal line.[!pos] ',' then begin
            Stdlib.incr pos;
            labels_loop ()
          end
          else if !pos < n && Char.equal line.[!pos] '}' then Stdlib.incr pos
          else fail "expected , or } in labels"
        end
      in
      labels_loop ()
    end;
    let rest = String.trim (String.sub line !pos (n - !pos)) in
    (* a trailing timestamp (exposition allows one) would be a second
       token; take the first *)
    let value_text =
      match String.index_opt rest ' ' with
      | Some i -> String.sub rest 0 i
      | None -> rest
    in
    let value =
      match value_text with
      | "+Inf" -> Float.infinity
      | "-Inf" -> Float.neg_infinity
      | "NaN" -> Float.nan
      | s -> (
        match float_of_string_opt s with
        | Some f -> f
        | None -> fail (Printf.sprintf "bad sample value %S" s))
    in
    { s_name = name; s_labels = List.rev !labels; s_value = value }

  let parse_exposition text =
    let families = ref [] in  (* newest first; samples newest first *)
    let find_family name =
      List.find_opt
        (fun f ->
          String.length name >= String.length f.f_name
          && String.equal (String.sub name 0 (String.length f.f_name)) f.f_name)
        !families
    in
    let open_family name typ help =
      match List.find_opt (fun f -> String.equal f.f_name name) !families with
      | Some f ->
        let f' =
          {
            f with
            f_type = (if String.equal typ "" then f.f_type else typ);
            f_help = (if String.equal help "" then f.f_help else help);
          }
        in
        families :=
          f' :: List.filter (fun g -> not (String.equal g.f_name name)) !families
      | None ->
        families :=
          { f_name = name; f_type = typ; f_help = help; f_samples = [] }
          :: !families
    in
    let comment_fields line =
      (* "# HELP name text..." / "# TYPE name type" *)
      match String.split_on_char ' ' line with
      | "#" :: kw :: name :: rest -> Some (kw, name, String.concat " " rest)
      | _ -> None
    in
    List.iteri
      (fun i line ->
        let line = String.trim line in
        if String.equal line "" then ()
        else if Char.equal line.[0] '#' then begin
          match comment_fields line with
          | Some ("HELP", name, help) -> open_family name "" help
          | Some ("TYPE", name, typ) -> open_family name typ ""
          | Some _ | None -> () (* other comments are legal and skipped *)
        end
        else begin
          let s = parse_sample_line (i + 1) line in
          match find_family s.s_name with
          | Some f ->
            let f' = { f with f_samples = s :: f.f_samples } in
            families :=
              f'
              :: List.filter
                   (fun g -> not (String.equal g.f_name f.f_name))
                   !families
          | None ->
            families :=
              {
                f_name = s.s_name;
                f_type = "untyped";
                f_help = "";
                f_samples = [ s ];
              }
              :: !families
        end)
      (String.split_on_char '\n' text);
    List.rev_map (fun f -> { f with f_samples = List.rev f.f_samples }) !families

  (* Cheap sniff used by `rdfviews report` to route its input: our own
     files always open with a HELP comment, and any plausible exposition
     starts with a HELP/TYPE line or a bare sample. *)
  let looks_like_exposition text =
    let rec first_line = function
      | [] -> None
      | l :: rest ->
        let l = String.trim l in
        if String.equal l "" then first_line rest else Some l
    in
    match first_line (String.split_on_char '\n' text) with
    | None -> false
    | Some l ->
      let has_prefix p =
        String.length l >= String.length p
        && String.equal (String.sub l 0 (String.length p)) p
      in
      has_prefix "# HELP " || has_prefix "# TYPE "

  (* ---------- family lookups (for renderers and tests) ---------- *)

  let find_family families name =
    List.find_opt (fun f -> String.equal f.f_name name) families

  let sample_value ?(labels = []) families name =
    List.find_map
      (fun f ->
        List.find_map
          (fun s ->
            if
              String.equal s.s_name name
              && List.for_all
                   (fun (k, v) ->
                     match List.assoc_opt k s.s_labels with
                     | Some v' -> String.equal v v'
                     | None -> false)
                   labels
            then Some s.s_value
            else None)
          f.f_samples)
      families

  (* ---------- the periodic exporter ---------- *)

  (* A ticker systhread that, every [interval] seconds: drains runtime
     events into the current registry, pushes a snapshot onto the ring,
     and atomically rewrites [path] with the exposition (tmp + rename,
     so a scraper never reads a torn file).  The thread shares the
     installing domain, hence its DLS-resolved [source] sees the same
     ambient registry the instrumented code writes to. *)
  type exporter = {
    e_ring : ring;
    e_path : string;
    e_interval : float;
    e_stop : bool Atomic.t;
    e_ticks : int Atomic.t;
    e_write_errors : int Atomic.t;
    e_tick : unit -> unit;
    e_thread : Thread.t option;
  }

  let write_atomic path text =
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc text;
    close_out oc;
    Sys.rename tmp path

  let default_ring_capacity = 64

  let start ?(ring_capacity = default_ring_capacity) ~interval ~path source =
    let interval = Float.max 0.001 interval in
    let ring = ring_create ring_capacity in
    let stop = Atomic.make false in
    let ticks = Atomic.make 0 in
    let write_errors = Atomic.make 0 in
    let tick () =
      let sink = source () in
      ignore (Runtime.poll sink : int);
      Atomic.incr ticks;
      (* ticks-so-far ride along in the registry so successive scrapes
         of the file expose a monotonic liveness counter *)
      let tc = counter sink "telemetry.ticks" in
      (match sink with Disabled -> () | Enabled _ -> tc.n <- Atomic.get ticks);
      let snap = snapshot sink in
      ring_push ring snap;
      match write_atomic path (exposition_of_snapshot snap) with
      | () -> ()
      | exception Sys_error _ -> Atomic.incr write_errors
    in
    (* First write happens on the caller: the file exists (or the path
       error surfaces synchronously) before [start] returns. *)
    let sink = source () in
    ignore (Runtime.poll sink : int);
    write_atomic path (exposition_of_snapshot (snapshot sink));
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
            if not (Atomic.get stop) then tick ()
          done)
        ()
    in
    {
      e_ring = ring;
      e_path = path;
      e_interval = interval;
      e_stop = stop;
      e_ticks = ticks;
      e_write_errors = write_errors;
      e_tick = tick;
      e_thread = Some thread;
    }

  let stop e =
    if not (Atomic.get e.e_stop) then begin
      Atomic.set e.e_stop true;
      (match e.e_thread with Some th -> Thread.join th | None -> ());
      (* final tick: the file reflects the end-of-run registry *)
      e.e_tick ()
    end

  let exporter_ring e = e.e_ring

  let exporter_ticks e = Atomic.get e.e_ticks

  let exporter_write_errors e = Atomic.get e.e_write_errors

  let exporter_path e = e.e_path

  let exporter_interval e = e.e_interval
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
          | Trace.Accepted, Some c when c < !best ->
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

  (* Degraded analysis of a `--metrics` registry dump: totals and
     per-kind counters are available, but there are no per-event
     records, so the convergence curve is empty. *)
  let of_metrics json =
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

  (* Render one parsed Prometheus exposition (a telemetry snapshot file
     written under `--telemetry`) as a `top`-style summary: GC activity,
     domain lifecycle and per-domain utilization, search progress. *)
  let render_telemetry families =
    let b = Buffer.create 2048 in
    let v ?labels name = Export.sample_value ?labels families name in
    let vd name = Option.value ~default:0. (v name) in
    Buffer.add_string b "runtime telemetry snapshot\n";
    Buffer.add_string b "==========================\n";
    (match v "rdfviews_snapshot_timestamp_seconds" with
    | Some ts ->
      let tm = Unix.localtime ts in
      Printf.bprintf b "captured:   %04d-%02d-%02d %02d:%02d:%02d (tick %.0f)\n"
        (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
        tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
        (vd "rdfviews_telemetry_ticks_total")
    | None -> ());
    let gc_rows =
      List.filter_map
        (fun (label, count_name, hist_base) ->
          match v count_name with
          | None -> None
          | Some n ->
            let sum = v (hist_base ^ "_sum") in
            let cnt = v (hist_base ^ "_count") in
            let mean =
              match (sum, cnt) with
              | Some s, Some c when c > 0. -> _fmt_ms_f (s /. c)
              | _ -> "-"
            in
            let total =
              match sum with Some s -> _fmt_ms_f s | None -> "-"
            in
            Some [ label; Printf.sprintf "%.0f" n; mean; total ])
        [
          ( "minor", "rdfviews_runtime_gc_minor_collections_total",
            "rdfviews_runtime_gc_minor_pause_ns" );
          ( "major", "rdfviews_runtime_gc_major_collections_total",
            "rdfviews_runtime_gc_major_pause_ns" );
          ( "compact", "rdfviews_runtime_gc_compactions_total",
            "rdfviews_runtime_gc_compact_pause_ns" );
        ]
    in
    if gc_rows <> [] then begin
      Buffer.add_string b "\ngarbage collector\n";
      _btable b ([ "phase"; "collections"; "mean_ms"; "total_ms" ] :: gc_rows);
      (match v "rdfviews_runtime_gc_max_pause_ns" with
      | Some m -> Printf.bprintf b "  max pause: %s ms\n" (_fmt_ms_f m)
      | None -> ());
      (match v "rdfviews_runtime_gc_minor_allocated_words_total" with
      | Some w -> Printf.bprintf b "  minor allocated: %s words\n" (_fmt_count w)
      | None -> ());
      (match v "rdfviews_runtime_events_lost_total" with
      | Some l when l > 0. -> Printf.bprintf b "  LOST EVENTS: %.0f\n" l
      | _ -> ())
    end
    else
      Buffer.add_string b
        "\ngarbage collector: no runtime events (OCaml 4.x build, or \
         telemetry started without Runtime_events)\n";
    let domain_indices =
      match Export.find_family families "rdfviews_parallel_work_ns_total" with
      | None -> []
      | Some f ->
        List.sort_uniq Int.compare
          (List.filter_map
             (fun s ->
               Option.bind
                 (List.assoc_opt "domain" s.Export.s_labels)
                 int_of_string_opt)
             f.Export.f_samples)
    in
    Printf.bprintf b "\ndomains: %.0f spawned, %.0f terminated\n"
      (vd "rdfviews_runtime_domain_spawns_total")
      (vd "rdfviews_runtime_domain_terminations_total");
    if domain_indices <> [] then begin
      Buffer.add_string b "\nper-domain utilization (last parallel search)\n";
      _btable b
        ([ "domain"; "work_ms"; "steal_ms"; "idle_ms"; "busy" ]
        :: List.map
             (fun i ->
               let labels = [ ("domain", string_of_int i) ] in
               let g name = Option.value ~default:0. (v ~labels name) in
               let work = g "rdfviews_parallel_work_ns_total" in
               let steal = g "rdfviews_parallel_steal_ns_total" in
               let idle = g "rdfviews_parallel_idle_ns_total" in
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
    (match v "rdfviews_search_created_total" with
    | Some created ->
      Buffer.add_string b "\nsearch\n";
      Printf.bprintf b
        "  states: created %.0f, explored %.0f, duplicates %.0f, discarded \
         %.0f\n"
        created
        (vd "rdfviews_search_explored_total")
        (vd "rdfviews_search_duplicates_total")
        (vd "rdfviews_search_discarded_total");
      (match v "rdfviews_search_best_cost" with
      | Some c -> Printf.bprintf b "  best cost: %s" (_fcost c);
        (match v "rdfviews_search_initial_cost" with
        | Some i when i > 0. ->
          Printf.bprintf b " (rcr %.3f)\n" ((i -. c) /. i)
        | _ -> Buffer.add_char b '\n')
      | None -> ())
    | None -> Buffer.add_string b "\nsearch: no search counters in snapshot\n");
    let n_series =
      List.fold_left (fun acc f -> acc + List.length f.Export.f_samples) 0
        families
    in
    Printf.bprintf b "\n%d series in %d families\n" n_series
      (List.length families);
    Buffer.contents b
end
