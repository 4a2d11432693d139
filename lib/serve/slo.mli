(** Service-level objectives for the serving stack: latency and error
    targets tracked over a sliding window, with burn-rate computation.

    An objective is either a latency quantile bound ("p99 <= 50ms",
    meaning at most 1% of requests may be slower than 50ms) or an error
    -rate bound ("err <= 1%").  Both reduce to a {e bad-event budget}: a
    fraction of requests allowed to violate the target.  The burn rate
    is the observed bad fraction divided by the budget — 1.0 means the
    budget is being consumed exactly as fast as allowed, above 1.0 the
    objective is being violated.

    One grammar everywhere: [bg serve --slo], [bg loadgen --slo],
    [bg slo --spec] all parse the same comma-separated spec, e.g.
    ["p99<=0.05,err<=0.01"].  Keys: [pNN] (a latency quantile, value in
    seconds; [p999] reads as 0.999) and [err] (error rate, value as a
    fraction or with a [%] suffix).  [<] and [<=] are synonyms.

    The tracker ({!t}) is what a live server threads its responses
    through; {!eval_samples} scores a finished loadgen run;
    {!eval_telemetry} scores the deltas of a recorded telemetry ring
    (log2-bucket resolution: a bucket straddling the threshold counts as
    good). *)

type objective =
  | Latency of { quantile : float; threshold_s : float }
      (** at most [1 - quantile] of requests may exceed [threshold_s] *)
  | Error_rate of float  (** at most this fraction of requests may fail *)

type spec = objective list

val objective_name : objective -> string
(** ["p99<=0.05"] / ["err<=0.01"] — re-parseable by {!parse_spec}. *)

val parse_spec : string -> (spec, string) result
(** Parse a comma-separated spec; [Error] carries a one-line reason.
    The empty string is an error (an SLO with no objectives is a
    mistake, not a vacuous pass). *)

type status = {
  objective : objective;
  window_total : int;  (** events in the sliding window *)
  window_bad : int;
  window_burn : float;  (** bad fraction / budget; 0 on empty window *)
  lifetime_total : int;
  lifetime_bad : int;
  lifetime_burn : float;
  healthy : bool;  (** [window_burn <= 1.] *)
}

type t

val create : spec -> t
(** A tracker whose sliding window spans the last 60 seconds. *)

val record : t -> now_s:float -> latency_s:float -> ok:bool -> unit
(** Feed one finished request.  [ok = false] (a failed or rejected
    answer) counts against error-rate objectives and is also bad for
    every latency objective. *)

val report : t -> now_s:float -> status list
(** Evict events older than the window, then score every objective. *)

val violated : status list -> bool
(** Any objective with [healthy = false]. *)

val eval_samples : spec -> (float * bool) list -> status list
(** Score a finished run: each sample is [(latency_s, ok)].  Window and
    lifetime coincide. *)

val eval_telemetry : spec -> Telemetry.snapshot list -> status list
(** Score a recorded [--telemetry] ring: the {!Telemetry.line} [deltas]
    of each line.  Per objective, sum what every snapshot adds.  A
    latency objective counts the [serve.latency_s] bucket deltas as
    events and {!bad_latency_of_buckets} of them as bad; the error
    objective counts [serve.accepted] + [serve.rejected] as events and
    [serve.failed] + [serve.rejected] as bad.  Missing metrics read as
    zero.  Window and lifetime coincide, as in {!eval_samples}. *)

val bad_latency_of_buckets :
  threshold_s:float -> (int * int) list -> int
(** How many observations in a sparse log2-bucket histogram (as recorded
    by telemetry snapshots) exceed the threshold: the count of buckets
    strictly above the threshold's own bucket.  Bucket-resolution
    approximation — observations sharing the threshold's bucket count as
    good. *)

val status_to_json : status -> Core.Prelude.Jsonl.t
(** [{"objective":"p99<=0.05","window":{"total":N,"bad":N,"burn":F},
    "lifetime":{...},"healthy":B}] *)
