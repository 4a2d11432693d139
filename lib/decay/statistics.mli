(** Descriptive statistics of decay spaces — the measurement-campaign view
    (§2.2): summary quantities a practitioner computes from a freshly
    measured decay matrix before running any algorithm on it. *)

type summary = {
  n : int;
  min_db : float;  (** smallest off-diagonal decay, in dB *)
  max_db : float;
  median_db : float;
  dynamic_range_db : float;  (** max - min in dB *)
  asymmetry_db : float;
      (** largest |f(i,j)/f(j,i)| in dB over unordered pairs — 0 for
          symmetric spaces *)
}

val summarize : ?ctx:Ctx.t -> Decay_space.t -> summary
(** Requires at least 2 nodes.  [ctx.jobs] chunks the pairwise asymmetry
    sweep across the domain pool (default
    {!Bg_prelude.Parallel.default_jobs}); the summary is identical at
    every job count.

    On an {!Decay_space.exactly_symmetric} space the asymmetry is [0]
    without a sweep, and the minimum, maximum and median come from the
    [n (n - 1) / 2] upper-triangle values.  Each value appears twice
    among the ordered pairs, so the two middle ranks of the full multiset
    land on the triangle's: the median is the same bits (an average of a
    value with itself is that value). *)

val effective_alpha :
  positions:Bg_geom.Point.t array -> Decay_space.t -> Bg_prelude.Stats.fit
(** Log-log regression of decay against inter-node distance: the slope is
    the "effective path-loss exponent" a geometric model would fit to this
    space, and [r2] says how much of the decay variance geometry explains
    (the paper's point is that indoors it explains little). *)

val decays_db : Decay_space.t -> float array
(** All ordered off-diagonal decays in dB (for histograms), in reverse
    row-major order: [f(n-1,n-2)] first, [f(0,1)] last. *)
