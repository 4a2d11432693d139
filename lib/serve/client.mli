(** The retry policy for [bg serve] clients: deadlines, seeded backoff,
    bounded retries, and a consecutive-failure circuit breaker.  It has
    no transport: {!Loadgen}'s request ledger runs it over in-process,
    pipe and socket transports, and that ledger is the one place a
    request to a daemon is sent and its reply matched.

    Retrying is safe: requests are idempotent (equal request lines
    resolve to equal cache keys), so a repeat costs at worst one extra
    cache hit.  Backoff is exponential with seeded "equal jitter"
    ({!Bg_prelude.Rng.backoff}).  The breaker opens after
    [breaker_threshold] {e consecutive} failures; {!admit} then refuses
    until [breaker_cooldown_s] passes, when one admission moves it to
    half-open and the next outcome closes it or re-opens it for another
    cooldown.  Counters: [client.retries], [client.breaker_opens]. *)

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
(** Bump [client.retries]; {!Loadgen}'s ledger calls it per re-send. *)

val breaker_state : t -> breaker_state
val breaker_opens : t -> int
