(** [bg loadgen] — the production-shaped workload replayer for
    {!Server}.

    A workload expands from one integer seed into a pool of distinct
    decay spaces and a request trace over them with zipf-skewed
    repetition — a few hot spaces dominate, a long tail appears once or
    twice, which is the access pattern that makes a shared cache earn
    its keep.  {!generate} is a pure function of the {!workload} record:
    the same seed yields byte-identical request lines (and therefore
    identical space digests server-side) on every run, at any driver
    concurrency — the property behind the warm-restart cache-hit
    acceptance test.

    Both drivers take an optional {!Client} policy and then exercise the
    full retry path: deadlines, seeded backoff, bounded re-sends (safe —
    requests are idempotent by cache key), breaker pauses, and
    first-answer-wins dedup, so each request contributes at most one
    answer to the report however chaotic the daemon.  Unparseable
    response lines (chaos-torn or corrupted) are counted and retried —
    a corrupt payload is never scored as an answer.

    When tracing is on ({!Bg_prelude.Obs.set_trace_file}), both drivers
    preallocate a [client.request] root span id per request, send it on
    the wire as [parent_span], and emit the (backdated) root span when
    the request resolves — the client half of the cross-process causal
    tree [Obs_tools.Trace.merge] assembles. *)

val zipf_cdf : s:float -> n:int -> float array
(** Cumulative distribution of the zipf([s]) law on ranks [1..n]
    ([P(rank=k)] proportional to [k^-s]; [s = 0] is uniform).
    @raise Invalid_argument if [n < 1]. *)

val zipf_pick : Bg_prelude.Rng.t -> float array -> int
(** Draw a 0-based rank by binary search over a {!zipf_cdf}. *)

type workload = {
  seed : int;
  requests : int;
  spaces : int;  (** distinct decay spaces in the pool *)
  nodes : int;  (** nodes per space *)
  zipf_s : float;  (** skew: 0 = uniform, larger = hotter head *)
}

val default_workload : workload
(** [{seed = 1; requests = 2000; spaces = 200; nodes = 24;
    zipf_s = 1.1}]. *)

val generate : workload -> Protocol.request list
(** Expand a workload into its request trace (ids [r000000], …).  Ops
    mix roughly 60% zeta / 20% phi / 10% gamma / 5% summarize / 5%
    estimate; estimate designs derive from the space rank so repeats of
    a hot space repeat the full cache key.  Every request carries a
    deterministic {!Protocol.trace_context} ([t<seed>-r<i>]), so a p99
    exemplar from one report names the same request in any run's trace
    files.
    @raise Invalid_argument on a non-positive size or a bad skew. *)

type report = {
  sent : int;  (** distinct requests issued (first attempts) *)
  answered : int;  (** responses received (of any status) *)
  ok : int;
  rejected : int;  (** typed admission-control rejections *)
  errors : int;
  hits : int;
  misses : int;
  coalesced : int;
  degraded : int;  (** [ok] answers served by the estimator tier *)
  retries : int;  (** wire re-sends beyond first attempts *)
  duplicates : int;  (** late answers discarded by first-answer-wins *)
  corrupt_lines : int;  (** unparseable response lines skipped *)
  gave_up : int;  (** requests abandoned after the retry budget *)
  wall_s : float;
  throughput_rps : float;  (** answered / wall *)
  mean_s : float;  (** latency statistics over answered requests *)
  p50_s : float;
  p99_s : float;  (** exact sorted-sample quantiles, not bucketed *)
  exemplars : (string * float) list;
      (** trace ids of the slowest-decile answers, worst first (capped
          at 8) — [bg trace report --id TID] jumps to the causal tree *)
  slo_samples : (float * bool) list;
      (** [(latency_s, ok)] per resolved request, for
          {!Slo.eval_samples}; gave-ups score as [(infinity, false)] *)
}

val hit_rate : report -> float
(** [hits / ok] ([0.] when nothing succeeded). *)

val build_report :
  ?retries:int ->
  ?duplicates:int ->
  ?corrupt_lines:int ->
  ?gave_up:int ->
  sent:int ->
  wall_s:float ->
  (Protocol.response * float) list ->
  report
(** Fold [(response, latency_s)] observations into a report. *)

val report_to_json : report -> Core.Prelude.Jsonl.t
val pp_report : Format.formatter -> report -> unit

val drive_inproc :
  ?window:int -> ?client:Client.t -> Server.t -> Protocol.request list -> report
(** Replay a trace against an in-process engine, closed-loop with at
    most [window] (default 32) requests in flight — tests and the perf
    gate drive this.  With [client], replies lost to chaos are detected
    at batch boundaries and re-sent under the policy's retry budget;
    this recovery requires [window <=] the engine's [batch_size] (every
    in-flight request is then inside the batch being flushed). *)

val drive_fds :
  ?window:int ->
  ?rate:float ->
  ?client:Client.t ->
  req_w:Unix.file_descr ->
  resp_r:Unix.file_descr ->
  Protocol.request list ->
  report
(** Replay a trace against a daemon speaking the protocol over a pipe
    pair: requests down [req_w] (closed once nothing more will ever be
    sent, so the daemon sees EOF), responses up [resp_r].  Closed-loop
    with a bounded in-flight [window]; [rate] adds an open-loop cap
    (requests issued no faster than [rate]/s).  Reads and writes are
    multiplexed with [select] and writes are nonblocking, so a busy
    daemon cannot deadlock the generator.  With [client], attempts that
    outlive the policy deadline are re-sent after jittered backoff, the
    breaker pauses issuing after consecutive failures, and late answers
    to timed-out attempts count as duplicates, never second results. *)

val drive_subprocess :
  ?window:int ->
  ?rate:float ->
  ?client:Client.t ->
  string array ->
  Protocol.request list ->
  report
(** Spawn [argv] (a [bg serve] command line), {!drive_fds} the trace
    through its stdin/stdout, reap it, and report. *)
