(** Stratified sampling estimators with bootstrap-style confidence bounds
    — the E24 tier.

    The exact kernels ({!Metricity.zeta}, {!Metricity.phi}, {!Fading.gamma})
    are cubic (resp. per-listener exponential) and need the full matrix;
    past a few thousand nodes neither the time nor the n^2 floats fit.
    This module trades exactness for scale: every estimator here

    - consumes an {!oracle} — a pay-per-probe view of the decay function —
      so memory stays bounded by the sample, never by n^2;
    - reports a {e certified lower bound} as its point estimate (each
      replicate evaluates an exact kernel on a sampled restriction, and all
      three quantities are monotone under restriction);
    - attaches a confidence interval [\[lo, hi\]] with [lo = point]
      (lower bounds are exact-sided) and [hi] extrapolated from the spread
      of the stratified replicates, cross-validated against the exact
      kernels on small spaces (see test_estimators and experiment E24).

    Determinism: all randomness flows through the given {!Bg_prelude.Rng.t};
    with an equal seed the result is bit-identical at every job count,
    because the per-replicate exact kernels are themselves job-count
    invariant. *)

type oracle
(** A decay function paying per probe: size [n] plus [decay i j] for
    [i <> j].  Nothing n^2-sized is ever materialized from it. *)

val oracle : ?name:string -> n:int -> (int -> int -> float) -> oracle
(** Wrap an arbitrary decay function.  Probes must return valid decays
    (finite, positive) for all [i <> j] in [\[0, n)]; the diagonal is never
    probed. *)

val of_space : Decay_space.t -> oracle
(** Probe an in-memory (or mmapped, {!Decay_io.load_raw_mmap}) space. *)

val of_points :
  ?name:string -> alpha:float -> Bg_geom.Point.t list -> oracle
(** Geometric path-loss oracle [dist(p, q)^alpha] over point positions —
    n=50k positions cost 2 floats each, while the induced matrix would be
    20 GB.  Points must be pairwise distinct.  [alpha] must be positive. *)

type estimate = {
  point : float;  (** best replicate — a certified lower bound *)
  lo : float;  (** = [point]: the lower side is exact *)
  hi : float;  (** upper confidence bound at [confidence] *)
  confidence : float;  (** nominal coverage of [\[lo, hi\]] *)
  replicates : float array;  (** per-replicate lower bounds, in order *)
}

val pp_estimate : Format.formatter -> estimate -> unit

val zeta :
  ?ctx:Ctx.t ->
  ?replicates:int ->
  ?confidence:float ->
  nodes:int ->
  Bg_prelude.Rng.t ->
  oracle ->
  estimate
(** Metricity via stratified sub-space replicates: each of [replicates]
    (default 8) rounds draws one node per contiguous index stratum
    ([nodes] strata, so [nodes] distinct nodes), materializes the induced
    [nodes]-point space and runs the {e exact} {!Metricity.zeta} on it.
    Memory is O([nodes]^2); time is [replicates] exact sweeps.
    Requires [3 <= nodes <= n].  [confidence] (default 0.9) must be in
    (0, 1).  [ctx] tunes the inner sweeps. *)

val phi :
  ?ctx:Ctx.t ->
  ?replicates:int ->
  ?confidence:float ->
  nodes:int ->
  Bg_prelude.Rng.t ->
  oracle ->
  estimate
(** Relaxed-triangle bound via the same sub-space scheme as {!zeta}
    (phi is likewise monotone under restriction). *)

val zeta_triples :
  ?replicates:int ->
  ?confidence:float ->
  samples:int ->
  Bg_prelude.Rng.t ->
  oracle ->
  estimate
(** Metricity via stratified {e triple} sampling: [samples] triples split
    over [replicates] batches, [x] stratified over index bands, each
    violating triple resolved by the exact per-triple bisection
    ({!Metricity.zeta_triple}).  O(1) memory and O([samples])
    oracle probes — weaker per probe than {!zeta} but usable when even a
    [nodes]^3 sub-sweep is too much.  Requires [n >= 3] and
    [samples >= replicates]. *)

val gamma :
  ?ctx:Ctx.t ->
  ?replicates:int ->
  ?confidence:float ->
  listeners:int ->
  Bg_prelude.Rng.t ->
  oracle ->
  r:float ->
  estimate
(** Fading at threshold [r] via stratified {e listener} sampling: each
    replicate draws one listener per stratum ([listeners] strata) and
    evaluates the exact per-listener fading value over the oracle — same
    candidate rule and weighted-MIS search as {!Fading.gamma}, O(n) probes
    per listener, never a matrix.  [ctx.exact_limit] bounds the exact MIS
    size exactly as in {!Fading.gamma} (default 24; greedy beyond).
    Requires [1 <= listeners <= n]. *)
