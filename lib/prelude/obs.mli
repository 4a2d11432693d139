(** Zero-dependency tracing spans and process-wide metrics registry.

    Two instruments, two rules:

    - {b Spans} ({!with_span}) record wall-clock timing of nested regions
      and are written as JSONL to a trace sink.  They are {e disabled by
      default}: with no sink installed, {!with_span} costs one atomic
      load and a branch, so hot paths stay instrumented permanently (the
      kernel bench asserts the disabled-path overhead).
    - {b Metrics} (counters, gauges, log-bucket histograms) are {e always
      collected}, but only at batch granularity — once per sweep, task or
      repair — so the registry costs nothing measurable when unread.
      Snapshots are produced on demand as a {!Table.t} or flushed to the
      trace sink as JSONL.

    Spans nest per domain (domain-local stacks), so {!Parallel} workers
    trace their chunks independently of the caller's open span.  Each
    span becomes one JSONL line when it {e closes}; children therefore
    appear before their parents in the file, linked by [parent] id.

    Trace event shapes (strings and floats are written by
    {!Jsonl.buf_add_string} and {!Jsonl.buf_add_num}):
    {v
{"type":"span","id":N,"parent":N,"domain":N,"name":"...",
 "start_s":F,"dur_s":F,"ok":true,"attrs":{...}}
{"type":"counter","name":"...","value":N}
{"type":"gauge","name":"...","value":F}
{"type":"histogram","name":"...","count":N,"sum":F,"buckets":{"I":N,...}}
    v} *)

type value = S of string | I of int | F of float | B of bool
(** Span attribute values: string, int, float, bool. *)

val now_s : unit -> float
(** Wall clock in seconds ([Unix.gettimeofday]); the clock used for all
    span timestamps. *)

(** {1 Tracing} *)

val set_trace_file : ?append:bool -> string -> unit
(** Open [path] as the JSONL trace sink, replacing any previous sink.
    Truncates by default; [~append:true] appends instead, which is how a
    supervised worker reopens the trace file across respawns so one file
    accumulates every incarnation's spans.  Registers an [at_exit] hook
    so the sink is flushed and closed even when the process exits
    through [exit]. *)

val close_trace : unit -> unit
(** Flush and close the current sink, if any.  Idempotent. *)

val tracing : unit -> bool
(** [true] iff a trace sink is installed. *)

val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span ~attrs name f] runs [f ()].  When tracing, the call is
    recorded as a span: nested under the innermost open span of the
    current domain, timed with {!now_s}, and emitted as one JSONL line
    when [f] returns.  If [f] raises, the span is emitted with
    [ok:false] and an ["error"] attribute, and the exception is
    re-raised.  When not tracing this is a single atomic load. *)

val add_span_attr : string -> value -> unit
(** Attach an attribute to the innermost open span of the current
    domain.  No-op when not tracing or when no span is open. *)

val current_span_id : unit -> int
(** Id of the innermost open span of the current domain, or [0] when
    none is open (or tracing is off).  This is the id a caller puts on
    the wire as a remote parent so another process can stitch its spans
    under ours. *)

val alloc_span_id : unit -> int
(** Reserve a span id without opening a span.  Used by event-loop style
    callers (the loadgen drivers) that must place a span's id on the
    wire before the span's extent is known; pass it back to
    {!emit_span_at} via [?id].  Always allocates, even when tracing is
    off, so ids stay stable whether or not a sink is installed. *)

val emit_span_at :
  ?attrs:(string * value) list ->
  ?parent:int ->
  ?id:int ->
  ?ok:bool ->
  name:string ->
  start_s:float ->
  dur_s:float ->
  unit ->
  int
(** Emit one already-closed span with explicit timing, bypassing the
    per-domain stack.  [parent] defaults to the innermost open span of
    the current domain (0 = root); [id] defaults to a fresh id.  Used
    for backdated spans — queue waits measured by timestamps, retry
    backoffs, per-request client spans in an event loop — that cannot be
    expressed as a [with_span] around a call.  Returns the span id used,
    or [0] without emitting when tracing is off. *)

(** {1 Per-span profiling}

    When enabled {e and} a trace sink is installed, every span also
    captures [Gc.quick_stat] and CPU-time readings at open and close and
    records the deltas as attributes:

    {v
cpu_s                 process CPU seconds (Sys.time delta)
gc.minor_words        words allocated in the minor heap
gc.major_words        words allocated directly in the major heap
gc.promoted_words     words surviving a minor collection
gc.alloc_bytes        (minor + major - promoted) * word size
gc.minor_collections  minor collections during the span
gc.major_collections  major collection slices during the span
gc.heap_words         major heap size at span close (absolute)
    v}

    Both readings happen on the domain running the span, so parallel
    workers report their own allocation (the span's [domain] field
    attributes the skew).  [Gc.quick_stat] triggers no collection; the
    whole capture is a few dozen nanoseconds and sits behind the
    sink-installed branch, so the disabled fast path of {!with_span} is
    unchanged.  Off by default. *)

val set_profile : bool -> unit
(** Enable/disable GC + CPU capture on spans.  Takes effect for spans
    opened after the call; has no effect while no sink is installed. *)

val profiling : unit -> bool
(** [true] iff profiling capture is enabled. *)

(** {1 Metrics}

    Metrics live in a process-wide registry keyed by name; constructors
    are idempotent (the same name returns the same metric) and raise
    [Invalid_argument] if the name is already registered with a
    different metric kind.  All updates are domain-safe. *)

type counter
type gauge
type histogram

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val counter_name : counter -> string

val reset_counter : counter -> unit
(** Zero one counter (e.g. per-sweep statistics between runs). *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : string -> histogram
(** Fixed log2-scale bucketing, see {!bucket_of}. *)

val observe : histogram -> float -> unit

val histogram_count : histogram -> int

val histogram_sum : histogram -> float
(** Sum of all observed values except NaN (which is counted, in bucket 0,
    but excluded from the sum so it cannot poison the mean). *)

val histogram_bucket : histogram -> int -> int
(** Count in bucket [i], [0 <= i < num_buckets]. *)

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] is {!quantile_of_buckets} over [h]'s
    buckets. *)

val quantile_of_buckets : (int * int) list -> float -> float
(** [quantile_of_buckets buckets q] estimates the [q]-quantile
    ([0 <= q <= 1], clamped) of a log2-bucket histogram given as
    [(bucket, count)] pairs in bucket order (sparse or dense): the
    smallest bucket whose cumulative count exceeds the rank
    [round (q * (total - 1))], read at its geometric midpoint ([sqrt 2]
    times its lower edge).  Bucket 0 reads as [0.], the overflow bucket
    as its lower edge; an empty histogram gives [0.].  Every p50/p99 in
    the repo comes from this one function: live histograms, telemetry
    snapshots, the serve [metrics] op and trace reports. *)

val num_buckets : int
(** 64. *)

val bucket_of : float -> int
(** Bucket index for a value: bucket [i] (for [1 <= i <= 62]) holds
    values in [[2^(i-31), 2^(i-30))]; bucket 0 holds non-positive values
    (and NaN); bucket 63 is overflow.  For durations in seconds the
    range spans ~0.5ns to ~4e9 s. *)

val bucket_lower_bound : int -> float
(** Lower edge of bucket [i]: [2^(i-31)], or [neg_infinity] for bucket
    0. *)

val metric_names : unit -> string list
(** All registered metric names, sorted. *)

(** {1 Snapshots}

    A point-in-time copy of the whole registry, used by the serving
    layer's telemetry snapshotter and the [metrics] wire op.  Histogram
    buckets are reported sparsely as [(index, count)] pairs in index
    order. *)

type metric_snapshot =
  | Counter_snapshot of int
  | Gauge_snapshot of float
  | Histogram_snapshot of {
      count : int;
      sum : float;
      buckets : (int * int) list;
    }

val snapshot : unit -> (string * metric_snapshot) list
(** Every registered metric with its current value, sorted by name. *)

val reset_metrics : unit -> unit
(** Zero every registered metric (counters to 0, gauges to 0, histograms
    emptied).  Registration survives. *)

val flush_metrics : unit -> unit
(** Write one JSONL event per registered metric to the trace sink, in
    name order.  No-op without a sink. *)

val summary_table : unit -> Table.t
(** Snapshot of every registered metric as a table sorted by name. *)

val print_summary : unit -> unit
(** [Table.print (summary_table ())]. *)
