(** Time-varying decay spaces: mobility, correlated shadowing and
    speed-dependent fast fading over a static large-scale base.

    Real signal environments are not only non-geometric — they churn.
    [Evolve] turns a static base loss (geometric path loss by default, or
    any caller-supplied positive decay of two positions, e.g. a radio
    environment with walls) into a {e stream} of decay spaces:

    - {b Mobility}: random-waypoint motion in a [side x side] area — each
      node travels to a uniform waypoint at a per-trip speed drawn from
      [[speed_min, speed_max]], then pauses for a time drawn from
      [[pause_min, pause_max]].  Nodes that did not move in a step leave
      their rows and columns bit-untouched.
    - {b Correlated shadowing}: a per-ordered-link log-normal shadow field
      [S] (dB) updated with the classical Gudmundson mixing
      [S' = c * S + sqrt(1 - c^2) * N(0, shadow_std_db)] where
      [c = exp (-(dp + dq) / corr_dist)] and [dp], [dq] are the step
      displacements of the endpoints.  Stationary links keep their shadow
      exactly; the stationary variance is [shadow_std_db^2] by
      construction.
    - {b Fast fading}: a fresh per-link dB deviate each step a link
      endpoint moves, with sigma picked by the link speed — 0 when
      stationary, [fade_low_db] below [speed_threshold] (m/s of combined
      endpoint motion), [fade_high_db] at or above it.

    Every draw flows through one {!Bg_prelude.Rng.t} seeded at {!create},
    in a fixed iteration order, and no parallelism is involved: a
    trajectory is bit-reproducible from [(config, seed)] at any job
    count.  The per-step dirty set (nodes that moved) is exactly the set
    of rows/columns whose cells may differ from the previous step. *)

type config = {
  n : int;  (** number of nodes *)
  side : float;  (** side of the square arena (m) *)
  speed_min : float;  (** per-trip speed lower bound (m/s) *)
  speed_max : float;  (** per-trip speed upper bound (m/s) *)
  pause_min : float;  (** waypoint pause lower bound (s) *)
  pause_max : float;  (** waypoint pause upper bound (s) *)
  dt : float;  (** seconds of simulated time per {!step} *)
  corr_dist : float;
      (** shadow decorrelation distance (m): displacement at which the
          mixing coefficient falls to [1/e] *)
  shadow_std_db : float;  (** stationary shadowing std (dB); 0 disables *)
  fade_low_db : float;  (** fast-fade sigma below [speed_threshold] (dB) *)
  fade_high_db : float;  (** fast-fade sigma at/above [speed_threshold] *)
  speed_threshold : float;
      (** combined endpoint speed (m/s) separating slow from fast fading *)
  alpha : float;  (** path-loss exponent of the default geometric base *)
  d_min : float;  (** distance floor of the default base (m) *)
}

val default : config
(** 64 nodes in a 30 m arena, speeds 1–3 m/s, pauses 2–8 s, [dt = 1],
    [corr_dist = 10], 4 dB shadowing, 1/3 dB slow/fast fading split at
    2 m/s, [alpha = 3], [d_min = 1]. *)

type t
(** Mutable evolution state: positions, trip phases, shadow and fade
    fields, and the current decay space. *)

val create :
  ?base:(Bg_geom.Point.t -> Bg_geom.Point.t -> float) ->
  ?name:string ->
  seed:int ->
  config ->
  t
(** Fresh state at simulated time 0.  [base p q] is the large-scale decay
    between two positions — strictly positive and finite for all
    positions in the arena (default: [max d_min (dist p q) ** alpha],
    geometric path loss).  The initial shadow field is drawn at the
    stationary distribution [N(0, shadow_std_db^2)]; fades start at 0.
    @raise Invalid_argument on a non-positive [n], [dt], [side] or a
    negative speed/pause/std. *)

val config : t -> config

val space : t -> Decay_space.t
(** The current decay space (step [t] after [t] calls to {!step}). *)

val positions : t -> Bg_geom.Point.t array
(** Current node positions (a copy). *)

val step_count : t -> int

val step : t -> Decay_space.t * int array
(** Advance simulated time by [dt]: move nodes, mix the shadow field,
    redraw fades on moving links, rebuild the changed cells.  Returns the
    new space together with the sorted array of {e dirty} nodes (nodes
    that moved this step).  Cells [(i, j)] with both [i] and [j] clean
    are bit-identical to the previous space's. *)

val mixing : corr_dist:float -> delta:float -> float
(** The shadow mixing coefficient [exp (-delta / corr_dist)] for a link
    whose endpoints moved a combined [delta] metres — exposed for
    property tests: it is 1 at [delta = 0] and strictly decreasing in
    [delta]. *)

val shadow_field : t -> float array array
(** A copy of the current per-ordered-link shadow field (dB), for
    stationarity diagnostics. *)
