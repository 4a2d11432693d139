(* Zero-dependency observability: tracing spans and a process-wide
   metrics registry.

   Two design rules govern everything here:

   1. Disabled-by-default tracing with a no-op fast path.  [with_span]
      costs one atomic load and a branch when no trace sink is installed
      (the kernel bench asserts this stays under a microsecond per call),
      so the hot paths can stay instrumented permanently.

   2. Metrics are always collected but only at *batch* granularity.
      Counters are atomics that the instrumented subsystems publish into
      once per sweep / task / repair — never per triple — so the registry
      costs nothing measurable even when nobody reads it.  Snapshots
      (summary table, JSONL flush) are produced on demand.

   Spans nest per domain: each domain keeps its own span stack in
   domain-local storage, so parallel workers trace their chunks as root
   spans of their domain while the caller's enclosing span is unaffected.
   A span is emitted as one JSONL line when it closes (children therefore
   appear before their parents in the file; the [parent] id links them).

   The clock is [Unix.gettimeofday]: the only portable sub-microsecond
   clock available without C stubs.  Span durations are differences of
   closely spaced readings, where its non-monotonicity is limited to NTP
   steps — acceptable for diagnostics, never used for results. *)

type value = S of string | I of int | F of float | B of bool

let now_s = Unix.gettimeofday

(* ------------------------------------------------------------- JSON out *)

(* Lines are written with Jsonl's buffer writers straight into one
   buffer per line; building a [Jsonl.t] per span would nearly double
   the cost of a traced span.  Ints go through [string_of_int], so ids
   and counts keep all their bits. *)
let buf_add_int b i = Buffer.add_string b (string_of_int i)
let buf_add_bool b x = Buffer.add_string b (if x then "true" else "false")

let buf_add_value b = function
  | S s -> Jsonl.buf_add_string b s
  | I i -> buf_add_int b i
  | F f -> Jsonl.buf_add_num b f
  | B x -> buf_add_bool b x

let buf_add_attrs b attrs =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Jsonl.buf_add_string b k;
      Buffer.add_char b ':';
      buf_add_value b v)
    attrs;
  Buffer.add_char b '}'

let span_line ~id ~parent ~name ~start_s ~dur_s ~ok attrs =
  let b = Buffer.create 160 in
  Buffer.add_string b "{\"type\":\"span\",\"id\":";
  buf_add_int b id;
  Buffer.add_string b ",\"parent\":";
  buf_add_int b parent;
  Buffer.add_string b ",\"domain\":";
  buf_add_int b (Domain.self () :> int);
  Buffer.add_string b ",\"name\":";
  Jsonl.buf_add_string b name;
  Buffer.add_string b ",\"start_s\":";
  Jsonl.buf_add_num b start_s;
  Buffer.add_string b ",\"dur_s\":";
  Jsonl.buf_add_num b dur_s;
  Buffer.add_string b ",\"ok\":";
  buf_add_bool b ok;
  Buffer.add_string b ",\"attrs\":";
  buf_add_attrs b attrs;
  Buffer.add_char b '}';
  Buffer.contents b

(* ---------------------------------------------------------- trace sink *)

type sink = { oc : out_channel; lock : Mutex.t; mutable closed : bool }

let sink : sink option Atomic.t = Atomic.make None

let emit_line s line =
  Mutex.lock s.lock;
  if not s.closed then begin
    output_string s.oc line;
    output_char s.oc '\n'
  end;
  Mutex.unlock s.lock

let tracing () = Atomic.get sink <> None

let close_trace () =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      Atomic.set sink None;
      Mutex.lock s.lock;
      if not s.closed then begin
        s.closed <- true;
        flush s.oc;
        close_out_noerr s.oc
      end;
      Mutex.unlock s.lock

let at_exit_registered = ref false

let set_trace_file ?(append = false) path =
  close_trace ();
  let oc =
    if append then
      open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
    else open_out path
  in
  Atomic.set sink (Some { oc; lock = Mutex.create (); closed = false });
  (* The CLI exits through [exit] on experiment failures; close (and so
     flush) the sink from at_exit so a failing run still leaves a
     complete trace on disk. *)
  if not !at_exit_registered then begin
    at_exit_registered := true;
    Stdlib.at_exit close_trace
  end

(* --------------------------------------------------------------- spans *)

(* Optional per-span profiling: when enabled (and a sink is installed),
   each span captures [Gc.quick_stat] and CPU-time readings at open and
   close and records the deltas as attributes.  [Gc.quick_stat] is a
   cheap per-domain read (no collection is triggered), and both readings
   happen on the domain that runs the span, so parallel workers report
   their own allocation — per-worker skew is visible through the span's
   [domain] field.  Off by default; the cost sits behind the same
   sink-installed branch as tracing itself, so the disabled fast path is
   still one atomic load. *)
let profile_flag = Atomic.make false

let set_profile b = Atomic.set profile_flag b
let profiling () = Atomic.get profile_flag

type prof_start = {
  p_cpu : float; (* Sys.time: process CPU seconds *)
  p_minor : float; (* words *)
  p_promoted : float;
  p_major : float;
  p_minor_col : int;
  p_major_col : int;
}

let prof_now () =
  let q = Gc.quick_stat () in
  {
    p_cpu = Sys.time ();
    p_minor = q.Gc.minor_words;
    p_promoted = q.Gc.promoted_words;
    p_major = q.Gc.major_words;
    p_minor_col = q.Gc.minor_collections;
    p_major_col = q.Gc.major_collections;
  }

(* Allocated words = minor + major - promoted (promoted words would
   otherwise be counted in both heaps). *)
let alloc_attrs p0 =
  let q = Gc.quick_stat () in
  let bytes_per_word = Sys.word_size / 8 in
  let alloc_w =
    q.Gc.minor_words -. p0.p_minor
    +. (q.Gc.major_words -. p0.p_major)
    -. (q.Gc.promoted_words -. p0.p_promoted)
  in
  [
    ("cpu_s", F (Sys.time () -. p0.p_cpu));
    ("gc.minor_words", F (q.Gc.minor_words -. p0.p_minor));
    ("gc.major_words", F (q.Gc.major_words -. p0.p_major));
    ("gc.promoted_words", F (q.Gc.promoted_words -. p0.p_promoted));
    ("gc.alloc_bytes", F (alloc_w *. float_of_int bytes_per_word));
    ("gc.minor_collections", I (q.Gc.minor_collections - p0.p_minor_col));
    ("gc.major_collections", I (q.Gc.major_collections - p0.p_major_col));
    ("gc.heap_words", I q.Gc.heap_words);
  ]

type frame = {
  id : int;
  sname : string;
  start : float;
  prof : prof_start option;
  mutable fattrs : (string * value) list; (* reverse order of addition *)
}

let next_span_id = Atomic.make 1

(* Per-domain stack of open frames; workers get fresh empty stacks. *)
let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let emit_span s ~parent ~ok fr =
  let dur_s = now_s () -. fr.start in
  (* Profiling deltas are closed out before serialization so they appear
     with the user attributes; reversal below restores addition order. *)
  (match fr.prof with
  | None -> ()
  | Some p0 -> fr.fattrs <- List.rev_append (alloc_attrs p0) fr.fattrs);
  emit_line s
    (span_line ~id:fr.id ~parent ~name:fr.sname ~start_s:fr.start ~dur_s ~ok
       (List.rev fr.fattrs))

let with_span ?(attrs = []) name f =
  match Atomic.get sink with
  | None -> f () (* the fast path: one atomic load, no allocation *)
  | Some s ->
      let stack = Domain.DLS.get stack_key in
      let parent = match !stack with [] -> 0 | fr :: _ -> fr.id in
      (* GC counters are read before the start timestamp so the (small)
         cost of the reading itself lands outside the span's wall time;
         record-field evaluation order is unspecified, so sequence
         explicitly. *)
      let prof =
        if Atomic.get profile_flag then Some (prof_now ()) else None
      in
      let fr =
        {
          id = Atomic.fetch_and_add next_span_id 1;
          sname = name;
          start = now_s ();
          prof;
          fattrs = List.rev attrs;
        }
      in
      stack := fr :: !stack;
      let finish ok =
        (match !stack with
        | top :: rest when top == fr -> stack := rest
        | _ ->
            (* A child span escaped (e.g. an effect-based jump): drop
               frames down to ours so the stack cannot grow unbounded. *)
            let rec pop = function
              | top :: rest when top != fr -> pop rest
              | _ :: rest -> rest
              | [] -> []
            in
            stack := pop !stack);
        emit_span s ~parent ~ok fr
      in
      (match f () with
      | v ->
          finish true;
          v
      | exception e ->
          fr.fattrs <- ("error", S (Printexc.to_string e)) :: fr.fattrs;
          finish false;
          raise e)

let add_span_attr key v =
  if tracing () then
    match !(Domain.DLS.get stack_key) with
    | [] -> ()
    | fr :: _ -> fr.fattrs <- (key, v) :: fr.fattrs

let current_span_id () =
  if not (tracing ()) then 0
  else match !(Domain.DLS.get stack_key) with [] -> 0 | fr :: _ -> fr.id

let alloc_span_id () = Atomic.fetch_and_add next_span_id 1

(* Backdated spans: event-loop callers (loadgen drivers, the server's
   queue-wait accounting) measure extents with timestamps and emit the
   span after the fact.  The span never lives on the domain stack, so it
   cannot parent a [with_span]; explicit [?parent] wiring links these
   trees together instead. *)
let emit_span_at ?(attrs = []) ?parent ?id ?(ok = true) ~name ~start_s
    ~dur_s () =
  match Atomic.get sink with
  | None -> 0
  | Some s ->
      let parent =
        match parent with
        | Some p -> p
        | None -> (
            match !(Domain.DLS.get stack_key) with
            | [] -> 0
            | fr :: _ -> fr.id)
      in
      let id = match id with Some i -> i | None -> alloc_span_id () in
      emit_line s (span_line ~id ~parent ~name ~start_s ~dur_s ~ok attrs);
      id

(* -------------------------------------------------------------- metrics *)

type counter = { cname : string; c : int Atomic.t }
type gauge = { gname : string; glock : Mutex.t; mutable g : float }

(* Histograms use fixed log2-scale buckets: bucket [i] (1 <= i <= 62)
   holds observations in [2^(i-31), 2^(i-30)); bucket 0 holds everything
   non-positive (and NaN), bucket 63 everything >= 2^32.  For durations
   in seconds that resolves ~0.5 ns to ~4 x 10^9 s — far beyond anything
   observed — with exact integer bucket counts under concurrency. *)
let num_buckets = 64

let bucket_of v =
  if not (v > 0.) then 0 (* non-positive and NaN *)
  else if v >= 4294967296. (* 2^32 = lower edge of the overflow bucket;
                              also keeps int_of_float off infinity *) then
    num_buckets - 1
  else begin
    let e = int_of_float (Float.floor (Numerics.log2 v)) in
    let i = e + 31 in
    if i < 1 then 1 else if i > num_buckets - 2 then num_buckets - 2 else i
  end

let bucket_lower_bound i =
  if i <= 0 then neg_infinity else Float.pow 2. (float_of_int (i - 31))

type histogram = {
  hname : string;
  buckets : int Atomic.t array;
  hcount : int Atomic.t;
  hlock : Mutex.t; (* guards the float accumulators only *)
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let register name build describe =
  Mutex.lock registry_lock;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = build () in
        Hashtbl.replace registry name m;
        m
  in
  Mutex.unlock registry_lock;
  match describe m with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Obs: metric %S already registered with another type"
           name)

let counter name =
  register name
    (fun () -> C { cname = name; c = Atomic.make 0 })
    (function C c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () -> G { gname = name; glock = Mutex.create (); g = 0. })
    (function G g -> Some g | _ -> None)

let histogram name =
  register name
    (fun () ->
      H
        {
          hname = name;
          buckets = Array.init num_buckets (fun _ -> Atomic.make 0);
          hcount = Atomic.make 0;
          hlock = Mutex.create ();
          hsum = 0.;
          hmin = infinity;
          hmax = neg_infinity;
        })
    (function H h -> Some h | _ -> None)

let add c k = if k <> 0 then ignore (Atomic.fetch_and_add c.c k)
let incr c = ignore (Atomic.fetch_and_add c.c 1)
let counter_value c = Atomic.get c.c
let counter_name c = c.cname
let reset_counter c = Atomic.set c.c 0

let set_gauge g v =
  Mutex.lock g.glock;
  g.g <- v;
  Mutex.unlock g.glock

let gauge_value g = g.g

let observe h v =
  ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add h.hcount 1);
  Mutex.lock h.hlock;
  (* NaN observations are counted (bucket 0) but excluded from the sum:
     one bad sample must not poison the mean of thousands. *)
  if not (Float.is_nan v) then h.hsum <- h.hsum +. v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v;
  Mutex.unlock h.hlock

let histogram_count h = Atomic.get h.hcount
let histogram_sum h = h.hsum
let histogram_bucket h i = Atomic.get h.buckets.(i)

(* Occupied buckets as [(index, count)] pairs in index order. *)
let sparse_buckets h =
  let acc = ref [] in
  for i = num_buckets - 1 downto 0 do
    let n = Atomic.get h.buckets.(i) in
    if n > 0 then acc := (i, n) :: !acc
  done;
  !acc

(* The smallest bucket whose cumulative count exceeds the rank,
   estimated at its geometric midpoint (sqrt 2 times its lower edge).
   This is the one log2-bucket estimator: live histograms, telemetry,
   the serve metrics op and trace reports all call it, so every p50/p99
   the repo prints is comparable with every other. *)
let quantile_of_buckets buckets q =
  let total = List.fold_left (fun n (_, c) -> n + c) 0 buckets in
  if total = 0 then 0.
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let rank = int_of_float (Float.round (q *. float_of_int (total - 1))) in
    let rec go seen = function
      | [] -> 0.
      | (b, c) :: rest ->
          let seen = seen + c in
          if seen <= rank then go seen rest
          else if b <= 0 then 0.
          else if b >= num_buckets - 1 then bucket_lower_bound b
          else bucket_lower_bound b *. Float.sqrt 2.
    in
    go 0 buckets
  end

let histogram_quantile h q = quantile_of_buckets (sparse_buckets h) q

let sorted_metrics () =
  Mutex.lock registry_lock;
  let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let metric_names () = List.map fst (sorted_metrics ())

type metric_snapshot =
  | Counter_snapshot of int
  | Gauge_snapshot of float
  | Histogram_snapshot of {
      count : int;
      sum : float;
      buckets : (int * int) list;
    }

let snapshot () =
  List.map
    (fun (name, m) ->
      let v =
        match m with
        | C c -> Counter_snapshot (Atomic.get c.c)
        | G g -> Gauge_snapshot g.g
        | H h ->
            Histogram_snapshot
              { count = Atomic.get h.hcount; sum = h.hsum;
                buckets = sparse_buckets h }
      in
      (name, v))
    (sorted_metrics ())

let reset_metrics () =
  List.iter
    (fun (_, m) ->
      match m with
      | C c -> Atomic.set c.c 0
      | G g -> set_gauge g 0.
      | H h ->
          Mutex.lock h.hlock;
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.hcount 0;
          h.hsum <- 0.;
          h.hmin <- infinity;
          h.hmax <- neg_infinity;
          Mutex.unlock h.hlock)
    (sorted_metrics ())

let metric_line name m =
  let b = Buffer.create 96 in
  let head kind =
    Buffer.add_string b "{\"type\":\"";
    Buffer.add_string b kind;
    Buffer.add_string b "\",\"name\":";
    Jsonl.buf_add_string b name
  in
  (match m with
  | C c ->
      head "counter";
      Buffer.add_string b ",\"value\":";
      buf_add_int b (Atomic.get c.c)
  | G g ->
      head "gauge";
      Buffer.add_string b ",\"value\":";
      Jsonl.buf_add_num b g.g
  | H h ->
      head "histogram";
      Buffer.add_string b ",\"count\":";
      buf_add_int b (Atomic.get h.hcount);
      Buffer.add_string b ",\"sum\":";
      Jsonl.buf_add_num b h.hsum;
      Buffer.add_string b ",\"buckets\":{";
      List.iteri
        (fun k (i, n) ->
          if k > 0 then Buffer.add_char b ',';
          Jsonl.buf_add_string b (string_of_int i);
          Buffer.add_char b ':';
          buf_add_int b n)
        (sparse_buckets h);
      Buffer.add_char b '}');
  Buffer.add_char b '}';
  Buffer.contents b

let flush_metrics () =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      List.iter (fun (name, m) -> emit_line s (metric_line name m))
        (sorted_metrics ())

(* ------------------------------------------------------------- summary *)

let summary_table () =
  let t =
    Table.create ~title:"observability: metrics registry"
      [ "metric"; "kind"; "value"; "detail" ]
  in
  List.iter
    (fun (name, m) ->
      match m with
      | C c ->
          Table.add_row t
            [ Table.S name; Table.S "counter"; Table.I (Atomic.get c.c);
              Table.S "" ]
      | G g ->
          Table.add_row t
            [ Table.S name; Table.S "gauge"; Table.F g.g; Table.S "" ]
      | H h ->
          let n = Atomic.get h.hcount in
          let detail =
            if n = 0 then "empty"
            else
              Printf.sprintf "mean %.3g, min %.3g, max %.3g"
                (h.hsum /. float_of_int n)
                h.hmin h.hmax
          in
          Table.add_row t
            [ Table.S name; Table.S "histogram"; Table.I n; Table.S detail ])
    (sorted_metrics ());
  t

let print_summary () = Table.print (summary_table ())
