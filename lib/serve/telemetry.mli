(** Periodic metrics snapshotter for a running daemon: a ring-buffer
    JSONL file of registry deltas, plus Prometheus-style text rendering.

    [bg serve --telemetry FILE] threads {!maybe_snapshot} through its
    serve loop; every [interval_s] it appends one line:

    {v
{"type":"telemetry","seq":N,"t_s":F,"uptime_s":F,
 "counters":{"serve.served":{"value":N,"delta":N},...},
 "gauges":{"serve.queue_depth":F,...},
 "histograms":{"serve.latency_s":{"count":N,"count_delta":N,
   "sum":F,"sum_delta":F,"p50":F,"p99":F,
   "buckets_delta":{"41":N,...}},...}}
    v}

    Deltas are against the previous snapshot {e in this file}: the file
    is opened in append mode, so a supervised worker respawn continues
    the same ring, and a counter that went backwards (the respawned
    process restarts from zero) is treated as a fresh baseline
    ({!delta} clamps instead of going negative).  The file is a ring:
    once it exceeds 1024 lines, it is rewritten in place keeping the
    newest 512, so a long-lived daemon's telemetry stays bounded.

    [bg top --telemetry FILE] tails the ring; [bg slo] replays it
    against an SLO spec; [bg top --prometheus] renders a live
    {!prometheus} scrape from the [metrics] wire op. *)

type t

val create : ?interval_s:float -> string -> t
(** Open (appending) the ring file.  [interval_s] defaults to 1 second.
    Raises [Sys_error] if the path is not writable. *)

val interval_s : t -> float

val maybe_snapshot : ?now:float -> t -> unit
(** Append one snapshot line if at least [interval_s] has elapsed since
    the last one (the first call always snapshots).  Cheap when it is
    not yet due: one clock read and a compare. *)

val force_snapshot : ?now:float -> t -> unit
(** Append a snapshot line now (shutdown path, so the tail of a run is
    never lost). *)

val close : t -> unit

val delta : prev:int -> cur:int -> int
(** [cur - prev], except a counter that went backwards (process restart)
    yields [cur] — the new process's whole count is new activity. *)

val delta_f : prev:float -> cur:float -> float
(** Same clamp for float accumulators (histogram sums). *)

val prometheus : (string * Bg_prelude.Obs.metric_snapshot) list -> string
(** Render a registry snapshot ({!Bg_prelude.Obs.snapshot}) as
    Prometheus text exposition: [# TYPE] headers, names sanitized
    ([.] and [-] become [_]), histograms as cumulative
    [_bucket{le="..."}] series plus [_sum] / [_count]. *)
