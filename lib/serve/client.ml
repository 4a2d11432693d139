(* The retry policy for `bg serve` clients: deadlines, seeded backoff,
   bounded retries and a circuit breaker.  It holds no transport:
   Loadgen's request ledger runs it over in-process, pipe and socket
   transports alike.

   Retries are safe by construction: requests are idempotent (a repeat
   of the same line resolves to the same cache key, and at worst costs
   one extra cache hit), so a client may re-send on any failure without
   risk of double effects.

   Backoff is exponential with seeded "equal jitter" (Rng.backoff):
   distinct seeds de-synchronize a fleet's retry storms, one seed
   replays one schedule.

   The breaker trips after breaker_threshold consecutive failures and
   admits nothing until breaker_cooldown_s has passed; admission then
   moves it to half-open, and the next outcome closes or re-opens it.
   A dead daemon cannot absorb max_retries * backoff per request, and a
   supervised restart gets a quiet window to come back. *)

module Obs = Core.Prelude.Obs
module Rng = Core.Prelude.Rng

type config = {
  deadline_s : float option;
  max_retries : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  breaker_threshold : int;
  breaker_cooldown_s : float;
}

let default_config =
  {
    deadline_s = Some 5.;
    max_retries = 4;
    backoff_base_s = 0.02;
    backoff_cap_s = 1.;
    breaker_threshold = 8;
    breaker_cooldown_s = 0.5;
  }

type breaker_state = Closed | Open | Half_open

type t = {
  config : config;
  rng : Rng.t;
  mutable consecutive_failures : int;
  mutable state : breaker_state;
  mutable opened_at : float;
  mutable breaker_opens : int;
}

let c_retries = Obs.counter "client.retries"
let c_breaker_opens = Obs.counter "client.breaker_opens"

let create ?(config = default_config) ~seed () =
  if config.max_retries < 0 then
    invalid_arg "Client.create: max_retries must be >= 0";
  if not (config.backoff_base_s > 0.) then
    invalid_arg "Client.create: backoff_base_s must be positive";
  if config.backoff_cap_s < config.backoff_base_s then
    invalid_arg "Client.create: backoff_cap_s must be >= backoff_base_s";
  if config.breaker_threshold < 1 then
    invalid_arg "Client.create: breaker_threshold must be positive";
  (match config.deadline_s with
  | Some d when not (d > 0.) ->
      invalid_arg "Client.create: deadline_s must be positive"
  | _ -> ());
  {
    config;
    rng = Rng.create seed;
    consecutive_failures = 0;
    state = Closed;
    opened_at = neg_infinity;
    breaker_opens = 0;
  }

let config t = t.config
let breaker_opens t = t.breaker_opens
let breaker_state t = t.state

let backoff_s t ~attempt =
  Rng.backoff t.rng ~attempt ~base:t.config.backoff_base_s
    ~cap:t.config.backoff_cap_s

let count_retry _ = Obs.incr c_retries

let record_success t =
  t.consecutive_failures <- 0;
  t.state <- Closed

let record_failure t ~now =
  t.consecutive_failures <- t.consecutive_failures + 1;
  match t.state with
  | Half_open ->
      (* The probe failed: back to fully open, cooldown restarts. *)
      t.state <- Open;
      t.opened_at <- now
  | Closed when t.consecutive_failures >= t.config.breaker_threshold ->
      t.state <- Open;
      t.opened_at <- now;
      t.breaker_opens <- t.breaker_opens + 1;
      Obs.incr c_breaker_opens
  | Closed | Open -> ()

(* May a request go out right now?  Closed: yes.  Open: only once the
   cooldown has elapsed, and that admission moves to half-open — exactly
   one probe carries the breaker's fate. *)
let admit t ~now =
  match t.state with
  | Closed | Half_open -> true
  | Open ->
      if now -. t.opened_at >= t.config.breaker_cooldown_s then begin
        t.state <- Half_open;
        true
      end
      else false
