(** Descriptive statistics and simple regression, used by every experiment
    driver to summarize measured quantities and to fit scaling exponents. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); [0.] for fewer than two
    samples. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val geometric_mean : float array -> float
(** Geometric mean of strictly positive samples. *)

val min_max : float array -> float * float
(** Smallest and largest sample.  Raises on empty input. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100], linear interpolation between
    order statistics.  Does not modify [xs].  Selects rather than sorts:
    introselect under [Float.compare] (nan lowest) finds the order
    statistic at [floor rank] in expected linear time, and the next one is
    the minimum of the part above it — the same floats a sort would
    give, up to the order of ties (-0. and 0., nan payloads). *)

val median : float array -> float
(** 50th percentile. *)

val pearson : float array -> float array -> float
(** Pearson linear correlation coefficient of two equal-length samples.
    Returns [0.] if either sample is constant. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation (Pearson on midranks; ties averaged).  The
    statistic behind the paper's "link quality is not correlated with
    distance" discussion. *)

type fit = { slope : float; intercept : float; r2 : float }
(** Least-squares line [y = slope*x + intercept] with coefficient of
    determination. *)

val linear_fit : float array -> float array -> fit
(** Ordinary least squares on the given points. *)

val loglog_fit : float array -> float array -> fit
(** [loglog_fit xs ys] fits [log ys ~ slope * log xs + intercept]; the slope
    estimates the polynomial degree of a power-law relation.  All inputs
    must be strictly positive. *)

type histogram = { lo : float; hi : float; counts : int array }
(** Equal-width histogram over [lo, hi]. *)

val histogram : bins:int -> float array -> histogram
(** Build a histogram; samples outside the data range cannot occur since the
    range is taken from the data itself.  [bins >= 1]. *)

val summary : float array -> string
(** One-line human-readable summary: mean, stddev, min, median, max. *)
