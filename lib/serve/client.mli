(** The typed retrying client for [bg serve] — deadlines, seeded
    backoff, bounded retries, and a consecutive-failure circuit breaker.

    Retrying is safe by construction: requests are idempotent (equal
    request lines resolve to equal cache keys), so a repeat after a
    torn, dropped or timed-out answer at worst costs one extra cache
    hit.  The {e policy} half (breaker + backoff schedule) is
    transport-free — {!Loadgen}'s pipe driver runs on it — while
    {!connect}/{!request} add the Unix-socket transport.

    Backoff is exponential with seeded "equal jitter"
    ({!Bg_prelude.Rng.backoff}): distinct seeds de-synchronize a fleet's
    retry storms; one seed replays one schedule.

    The breaker opens after [breaker_threshold] {e consecutive}
    failures; requests then fail fast (["circuit breaker open"], no
    network, no wait) until [breaker_cooldown_s] passes, when exactly
    one half-open probe decides: success closes the breaker, failure
    re-opens it and restarts the cooldown.  Counters: [client.retries],
    [client.breaker_opens], [client.corrupt_lines],
    [client.deadline_misses]. *)

type config = {
  deadline_s : float option;
      (** per-attempt answer budget; [None] waits forever *)
  max_retries : int;  (** wire attempts beyond the first *)
  backoff_base_s : float;
  backoff_cap_s : float;
  breaker_threshold : int;  (** consecutive failures that trip it *)
  breaker_cooldown_s : float;
}

val default_config : config
(** 5 s deadline, 4 retries, 20 ms base / 1 s cap backoff, breaker at 8
    failures with a 0.5 s cooldown. *)

type breaker_state = Closed | Open | Half_open

type t
(** Retry/breaker policy state — shared across the requests of one
    logical client. *)

val create : ?config:config -> seed:int -> unit -> t
(** @raise Invalid_argument on non-positive deadlines/backoff, negative
    [max_retries], or [breaker_threshold < 1]. *)

val config : t -> config

val backoff_s : t -> attempt:int -> float
(** Jittered delay before retry [attempt] (0-based); advances the
    seeded stream. *)

val admit : t -> now:float -> bool
(** May a request go out at [now]?  [false] only while the breaker is
    open inside its cooldown; admission after the cooldown moves the
    breaker to half-open. *)

val record_success : t -> unit
val record_failure : t -> now:float -> unit
val count_retry : t -> unit
(** Bump the retry counters — for external drivers ({!Loadgen}) that
    run the wire themselves. *)

val breaker_state : t -> breaker_state
val retries : t -> int
val breaker_opens : t -> int

(** {1 The Unix-socket transport} *)

type conn

val connect : t -> string -> conn
(** [connect policy path] prepares a connection to the daemon socket at
    [path].  Lazy: the socket opens on first {!request}, and reopens
    transparently after a failure — which is how a supervised restart is
    ridden out. *)

val request : conn -> Protocol.request -> (Protocol.response, string) result
(** Send, await the matching id within the deadline, retry with backoff
    on any failure (timeout, torn stream, dead socket), fail fast when
    the breaker is open.  Corrupt response lines are counted and
    skipped, never surfaced; stale answers from timed-out attempts are
    discarded by reconnecting.  [Error] after [max_retries + 1]
    attempts.

    When tracing is on (or the request already carries
    {!Protocol.trace_context}), the logical request is recorded as one
    [client.request] root span with each wire attempt and each backoff
    sleep as child spans, and the wire carries the trace id plus the
    attempt span's id — the other half of the cross-process causal tree
    [Obs_tools.Trace.merge] assembles. *)

val ping : conn -> (Protocol.response, string) result
(** {!request} with the [ping] health op. *)

val metrics : conn -> (Protocol.response, string) result
(** {!request} with the [metrics] telemetry-scrape op — a full registry
    snapshot from the live daemon ([bg top]'s poll). *)

val close : conn -> unit

val corrupt_seen : conn -> int
(** Mangled response lines this connection has skipped. *)
