(** The batched analysis engine behind [bg serve].

    Requests pass through a bounded admission queue (overload is
    answered immediately with a typed [rejected] response — the queue
    never grows without bound), are taken in batches, keyed by space
    digest + op parameters so concurrent duplicates coalesce onto one
    computation, checked against the shared {!Store}, and the remaining
    unique keys computed in parallel on the shared domain pool.  A
    compute exception becomes a typed [error] response for that request
    alone — one poisoned request cannot take down its batch or the
    daemon.

    With [degrade] configured, load sheds {e gracefully}: cache-missing
    zeta/phi/gamma requests behind a backlog over the watermark — or on
    spaces too large for an exact sweep — are answered from the
    {!Bg_decay.Estimators} tier (certified lower bound + confidence
    interval, [degraded:true] on the wire) instead of being rejected.
    Exact → estimated → rejected, in that order.  Degraded answers are
    never stored: the cache key promises the exact value.

    With [chaos] armed ({!Chaos}), per-request stalls and the mid-batch
    crash point fire inside {!process_batch}; response-line faults fire
    at the reply boundary of {!run_loop}, identically on every
    transport.  Replies are sent only after {!Store.sync} journals the
    batch (group commit), so a crash at any point loses at most the
    in-flight batch and never an answered request.

    [ping] and [metrics] requests are answered at admission — a health
    probe or telemetry scrape works precisely when the queue is full.
    Both report uptime, queue depth, supervisor lineage (restarts,
    cumulative uptime across respawns) and SLO health.  [ping] adds
    accepted and {!served} counts, hit rate and degraded-mode status;
    [metrics] adds the whole registry in {!Telemetry}'s form (every
    counter, gauge and histogram, the last with p50/p99 and its sparse
    per-bucket [(index, count)] pairs) — what [bg top --socket] polls.

    The daemon counts only in the {!Bg_prelude.Obs} registry: every
    request gets one [serve.request] span (queue-wait, batch id and
    cache outcome as attrs) and lands in the [serve.latency_s] /
    [serve.queue_wait_s] histograms; admission, batch, cache-outcome,
    degraded-answer and disconnect counters are [serve.*] counters, and
    the admission queue's length is the [serve.queue_depth] gauge.  A
    request that carried {!Protocol.trace_context} gets the
    [trace_id] / [parent_span] recorded on its [serve.request] span and
    backdated [serve.queue_wait] / [serve.kernel] child spans, so
    [Obs_tools.Trace.merge] can stitch the server's work under the
    originating client root. *)

type degrade = {
  queue_watermark : int;
      (** backlog (after taking a batch) at which misses degrade *)
  big_n : int;  (** spaces with [n >= big_n] always degrade *)
  nodes : int;  (** estimator strata (clamped to the space size) *)
  replicates : int;
  seed : int;
      (** per-key estimator seeds derive deterministically from this *)
}

val default_degrade : degrade
(** watermark 64, [big_n] 1024, 32 nodes, 6 replicates, seed 0. *)

type lineage = {
  restarts : int;  (** how many times the supervisor respawned a worker *)
  supervisor_started_s : float;  (** wall clock of supervisor start *)
  prior_uptime_s : float;  (** summed uptime of dead predecessor workers *)
}
(** Counters the supervisor threads into each worker incarnation (via
    [BG_SUPERVISE_*] environment variables, see {!Supervisor.lineage_env})
    so a respawned worker's [ping] keeps reporting cumulative figures. *)

type config = {
  ctx : Core.Decay.Ctx.t;  (** analysis context shared by all requests *)
  batch_size : int;  (** max requests taken per batch (default 32) *)
  max_queue : int;
      (** admission bound; arrivals beyond it are rejected (default 256) *)
  request_timeout_s : float option;
      (** per-compute wall-clock budget; overruns answer [error] *)
  store : Store.t option;  (** shared (optionally persistent) result cache *)
  degrade : degrade option;  (** graceful degradation; [None] = shed only *)
  chaos : Chaos.t option;  (** fault injection; [None] in production *)
  slo : Slo.t option;
      (** latency/error objectives tracked over every response; reported
          by [ping], [metrics] and [bg top] *)
  telemetry : Telemetry.t option;
      (** periodic registry snapshots to a ring-buffer JSONL file *)
  lineage : lineage option;  (** supervisor-threaded counters *)
}

val default_config : config

type t

val create : config -> t
(** @raise Invalid_argument if [batch_size < 1], [max_queue < 1], or a
    [degrade] field is out of range. *)

val served : Telemetry.snapshot -> int
(** Answered requests in a registry snapshot: [serve.computed] +
    [serve.store_hits] + [serve.coalesced] + [serve.degraded], under one
    of which every [ok] response outside [ping] and [metrics] counts.
    The other [serve.*] counters: [accepted], [rejected] (shed by
    admission control), [failed] (parse and compute errors), [batches],
    [pings] (ping and metrics requests) and [client_disconnects] (socket
    clients gone with a partial request line or a reply that could not
    be written whole; a clean close is not counted). *)

val process_batch :
  ?queue_depth:int ->
  t ->
  (Protocol.request * float) list ->
  Protocol.response list
(** Serve one batch of [(request, admission_time)] pairs (admission
    times from {!Bg_prelude.Obs.now_s}); responses come back in input
    order.  [queue_depth] (default 0) is the backlog left behind the
    batch — the degraded-mode watermark signal.  Exposed for tests and
    in-process drivers.  {!run_loop} resolves each space at admission
    and serves its batches through the same code. *)

type input =
  [ `Req of string * (string -> unit)
    (** a request line plus the reply function for its response line *)
  | `Nothing  (** nothing available right now (only when not blocking) *)
  | `Eof ]

type io = {
  read : block:bool -> input;
      (** [block:true] may wait for input; [block:false] must poll.
          {!run_loop} asks [block:true] only with its queue empty, so
          every line read before has been answered (or its reply
          dropped by chaos). *)
  flush : unit -> unit;  (** called after each batch's replies *)
}

(** A nonblocking-capable line reader over a raw fd (select + internal
    buffer) — the daemons' input stage, reused by {!Loadgen}'s pipe and
    socket transports for the response stream. *)
module Line_reader : sig
  type t

  val create : Unix.file_descr -> t

  val read_chunk : t -> unit
  (** Pull whatever bytes are ready (never blocks a nonblocking fd). *)

  val next : block:bool -> t -> [ `Line of string | `Nothing | `Eof ]
  (** Next complete line; with [block:false] this only polls. *)
end

val run_loop : ?should_stop:(unit -> bool) -> t -> io -> unit
(** The generic serve loop over any transport: drain available input
    (blocking only when idle), take a batch, {!Store.sync} the journal,
    reply in order, flush; finish when [`Eof] and the queue is empty.
    When [should_stop] flips true the loop stops {e reading}, drains the
    queued work, and exits — the SIGTERM drain path.  Flushes the store
    on exit. *)

val serve_stdio : config -> unit
(** The [bg serve] stdin/stdout daemon: JSONL requests on stdin, JSONL
    responses on stdout, until EOF.  SIGTERM / SIGINT drain the current
    queue and flush the store snapshot before exit. *)

val serve_socket : ?max_requests:int -> config -> string -> unit
(** The Unix-domain-socket daemon: listen at [path] (an existing file
    there is replaced), serve any number of concurrent clients, answer
    each request on the connection it arrived on, and never on another
    one that reuses its fd.  A reply that cannot be written whole at
    once (the client stopped reading) closes that connection, counted in
    [serve.client_disconnects]; the daemon never waits on one client.
    A client that half-closes its connection
    keeps it until every request read from it is answered (a reply
    chaos drops counts), then the daemon closes it.  A client
    disconnecting mid-request is logged and its partial line dropped;
    other clients are unaffected.  Stops on SIGINT / SIGTERM (draining
    first), or after [max_requests] answers when given. *)
