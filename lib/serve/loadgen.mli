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

    Three transports run over one private request ledger: in-process
    ({!drive_inproc}), a spawned daemon's stdio ({!drive_subprocess})
    and a Unix socket ({!drive_socket}).  The ledger is the only code
    that sends requests to a daemon and matches their replies.  It gives
    each request exactly one outcome: sent once, then answered or given
    up, never both and never twice.  A parseable reply for a sent,
    unresolved id answers it (first answer wins); a reply for a request
    already answered or given up is a duplicate; an unparseable line,
    or an id that was never sent, is corrupt.  Hence
    [answered + gave_up <= sent] and one SLO sample per resolved
    request.  Replies carry no checksum, so a mangled line that still
    parses and names a sent id answers it.  {!Client} is the retry
    policy: with one, lost attempts are re-sent under its budget (safe:
    requests are idempotent by cache key).

    When tracing is on ({!Bg_prelude.Obs.set_trace_file}), the ledger
    preallocates a [client.request] root span id per request, sends it
    on the wire as [parent_span], and emits the (backdated) root span,
    with its [attempts] count, once, when the request resolves: the only
    client span, and the client half of the cross-process causal tree
    [Obs_tools.Trace.merge] assembles. *)

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
  answered : int;  (** requests resolved by a reply (of any status) *)
  ok : int;
  rejected : int;  (** typed admission-control rejections *)
  errors : int;
  hits : int;
  misses : int;
  coalesced : int;
  degraded : int;  (** [ok] answers served by the estimator tier *)
  retries : int;  (** wire re-sends beyond first attempts *)
  duplicates : int;
      (** replies for a request already answered or given up *)
  corrupt_lines : int;
      (** unparseable reply lines, and replies naming an id never sent *)
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
  responses : Protocol.response list;
      (** the reply that answered each answered request, in answer
          order *)
}

val hit_rate : report -> float
(** [hits / ok] ([0.] when nothing succeeded). *)

val report_to_json : report -> Core.Prelude.Jsonl.t
val pp_report : Format.formatter -> report -> unit

val drive_inproc :
  ?window:int -> ?client:Client.t -> Server.t -> Protocol.request list -> report
(** Replay a trace against an in-process engine, closed-loop with at
    most [window] (default 32) requests in flight — E30, tests and the
    perf gate drive this.  An attempt still in flight when a batch's
    replies are flushed lost its reply to chaos: it is re-sent at once
    while [client]'s retry budget lasts (none without [client]), else
    given up.  This requires [window <=] the engine's [batch_size]
    (every in-flight request is then inside the batch being flushed). *)

val drive_subprocess :
  ?window:int ->
  ?client:Client.t ->
  string array ->
  Protocol.request list ->
  report
(** Spawn [argv] (a [bg serve] command line), replay a trace through its
    stdin and stdout, reap it, and report.  Closed-loop with at most
    [window] (default 32) attempts in flight; [select] and nonblocking
    writes keep a busy daemon from deadlocking the generator.  Its stdin
    is closed once nothing more will be sent, so it drains.  With
    [client], nothing is issued while its breaker is open, and an
    attempt that outlives the policy deadline is lost: re-sent after
    jittered backoff while the retry budget lasts, else given up — a
    reply that comes later is a duplicate. *)

val drive_socket : client:Client.t -> string -> Protocol.request list -> report
(** The same loop, 32 attempts in flight at most, over a connection to
    the [bg serve --socket] daemon at [path], shut down for sending (not
    closed) once nothing more will be sent.  A refused connect, or a
    connection that closes with attempts in flight, loses them: each is
    re-sent over a new connection after backoff while the retry budget
    lasts, else given up.  It returns once every request is answered or
    given up, so under a [client] deadline a daemon that accepts but
    never answers costs at most the retry budget.  [SIGPIPE] is ignored
    while it runs. *)
