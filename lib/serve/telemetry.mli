(** The one JSON form of a registry snapshot — encoder, decoder and diff
    — plus the daemon's periodic-snapshot ring file and the Prometheus
    text rendering.

    A snapshot ({!Bg_prelude.Obs.snapshot}) encodes as three objects
    keyed by metric name, histograms with sparse per-bucket
    [(index, count)] pairs:

    {v
"counters":{"serve.accepted":N,...},
"gauges":{"serve.queue_depth":F,...},
"histograms":{"serve.latency_s":{"count":N,"sum":F,"p50":F,"p99":F,
                                 "buckets":{"41":N,...}},...}
    v}

    The [metrics] wire op answers with these fields next to its own.
    [bg serve --telemetry FILE] threads {!maybe_snapshot} through its
    serve loop; every [interval_s] it appends one line, the header plus
    the values plus the same form again for the deltas since the
    previous line:

    {v
{"type":"telemetry","seq":N,"t_s":F,"uptime_s":F,
 "counters":{...},"gauges":{...},"histograms":{...},
 "deltas":{"counters":{...},"gauges":{...},"histograms":{...}}}
    v}

    The file is opened in append mode, so a supervised worker respawn
    continues the same ring; each process's first line takes its deltas
    against zero.  The file is a ring: once it exceeds 1024 lines, it is
    rewritten in place keeping the newest 512, so a long-lived daemon's
    telemetry stays bounded.

    [bg top] renders either source ([--socket] polls the [metrics] op,
    [--telemetry] tails the ring) through {!of_json}, and [--prometheus]
    prints {!prometheus} of it; [bg slo] scores the ring's deltas. *)

type snapshot = (string * Bg_prelude.Obs.metric_snapshot) list
(** A registry snapshot, sorted by name. *)

val json_fields : snapshot -> (string * Core.Prelude.Jsonl.t) list
(** The encoder: the [counters], [gauges] and [histograms] fields
    above, each histogram with its p50 and p99 for human readers. *)

val of_json : Core.Prelude.Jsonl.t -> snapshot
(** The decoder: read the [counters], [gauges] and [histograms] members
    of any object ({!json_fields} spliced into a reply or a ring line),
    sorted by name.  A missing or malformed field reads as zero.
    [of_json (J.Obj (json_fields s))] is [s] while counters stay below
    2{^53}, the integers a JSON number holds exactly. *)

val diff : prev:snapshot -> snapshot -> snapshot
(** The activity from [prev] to the snapshot: counters and histograms
    (count, sum, per-bucket counts) subtract; zero bucket deltas are
    left out.  A counter or histogram count that went backwards (a
    process restart) yields its whole current value, as does a metric
    absent from [prev].  Gauges are levels and keep their current
    value. *)

val counter : snapshot -> string -> int
(** A counter's value; 0 when absent. *)

val gauge : snapshot -> string -> float
(** A gauge's value; 0 when absent. *)

val buckets : snapshot -> string -> (int * int) list
(** A histogram's sparse buckets, for {!Bg_prelude.Obs.quantile_of_buckets};
    empty when absent. *)

type t

val create : ?interval_s:float -> string -> t
(** Open (appending) the ring file.  [interval_s] defaults to 1 second.
    Raises [Sys_error] if the path is not writable. *)

val maybe_snapshot : ?now:float -> t -> unit
(** Append one snapshot line if at least [interval_s] has elapsed since
    the last one (the first call always snapshots).  Cheap when it is
    not yet due: one clock read and a compare. *)

val force_snapshot : ?now:float -> t -> unit
(** Append a snapshot line now (shutdown path, so the tail of a run is
    never lost). *)

val close : t -> unit

type line = {
  seq : int;  (** per-process line number, from 0 *)
  t_s : float;  (** wall clock of the snapshot *)
  uptime_s : float;  (** of the process that wrote the line *)
  values : snapshot;
  deltas : snapshot;
}

val read : string -> line list
(** Every telemetry line of a ring file, oldest first, decoded by
    {!of_json}.  Raises [Sys_error] on an unreadable file and
    {!Core.Prelude.Jsonl.Bad} on a malformed line. *)

val prometheus : snapshot -> string
(** Render a snapshot as Prometheus text exposition: [# TYPE] headers,
    names sanitized ([.] and [-] become [_]), histograms as cumulative
    [_bucket{le="..."}] series plus [_sum] / [_count]. *)
