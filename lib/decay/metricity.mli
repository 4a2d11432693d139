(** Metricity parameters of a decay space — Definition 2.2 and §4.2.

    The metricity [zeta(D)] is the smallest [z >= 1] such that for every
    triple of distinct nodes
    [f(x,y)^(1/z) <= f(x,z)^(1/z) + f(z,y)^(1/z)].
    For geometric path loss [f = d^alpha] over a metric, [zeta = alpha]; for
    arbitrary measured decays it quantifies how far the space is from
    supporting triangle-inequality arguments.

    The variant [phi] is the smallest value with
    [f(x,z) <= phi * (f(x,y) + f(y,z))] for all triples (the relaxed
    triangle inequality), and [phi_log = lg phi] is the parameter the
    paper's Theorem 6 lower bound is stated in.  Note the paper's displayed
    formula for [phi] is the reciprocal of its prose definition; we
    implement the prose version, under which the paper's own examples check
    out (see DESIGN.md §3 and experiment E9).

    All sweep entry points take one optional {!Ctx.t} carrying tolerance,
    parallelism, caching and solver limits.

    Each executed (uncached) sweep adds its pruning tally to the
    {!Bg_prelude.Obs} counters [kernel.sweeps], [kernel.triples],
    [kernel.plain_skips], [kernel.cheap_skips], [kernel.deep],
    [kernel.exp_evals], [kernel.bisections], [kernel.row_prunes],
    [kernel.pair_prunes] and [kernel.tile_prunes], once per sweep and
    identically at every job count; when tracing, the sweep's span also
    carries [plain_skips], [cheap_skips], [deep] and [bisections].  The
    counts are diagnostics and never influence a result. *)

type witness = { x : int; y : int; z : int; value : float }
(** The triple achieving an extremal parameter, and the value there. *)

val zeta_triple : ?tol:float -> float -> float -> float -> float
(** [zeta_triple fxy fxz fzy] is the smallest [z >= 1] making the relaxed
    inequality [fxy^(1/z) <= fxz^(1/z) + fzy^(1/z)] hold for one triple of
    decays (bisection; validity is monotone in [z]).  [tol] is the relative
    bisection tolerance, default [1e-9]. *)

val zeta : ?ctx:Ctx.t -> Decay_space.t -> float
(** Exact metricity: maximum of {!zeta_triple} over all ordered triples of
    distinct nodes.  O(n^3) with log-domain incumbent tests, row / pair /
    tile bound pruning and x-panel cache blocking over the flat
    {!Decay_space.Flat} views; triples the bounds cannot dismiss fall back
    to exactly the naive evaluation, so the result (and witness) is
    bit-for-bit the naive sweep's.  Returns [1.] for spaces with fewer
    than three nodes.  [ctx] (default {!Ctx.default}) carries the
    bisection tolerance, the job count (the result is identical at every
    job count) and whether to memoize under the space's content
    {!Decay_space.digest}. *)

val zeta_witness : ?ctx:Ctx.t -> Decay_space.t -> witness
(** The metricity together with a triple attaining it.  On ties the
    lexicographically smallest [(x, y, z)] wins, at every [jobs] count
    and under every internal loop order. *)

val zeta_upper_bound : ?jobs:int -> Decay_space.t -> float
(** The paper's a-priori bound [zeta <= max(1, lg (f_max / f_min))]. *)

val holds_at : ?jobs:int -> Decay_space.t -> float -> bool
(** [holds_at d z] checks the relaxed triangle inequality at parameter [z]
    for all triples (within the bisection tolerance). *)

val phi : ?ctx:Ctx.t -> Decay_space.t -> float
(** The relaxed-triangle-inequality constant
    [max(1, max_{x,y,z} f(x,z) / (f(x,y) + f(y,z)))] over distinct triples.
    Pruned like {!zeta} (the phi bounds are exact in float arithmetic, by
    monotonicity of [+.] and [/.]); cached like {!zeta}. *)

val phi_witness : ?ctx:Ctx.t -> Decay_space.t -> witness
(** [phi] together with an attaining triple (fields [x], [z] are the outer
    pair and [y] the midpoint).  Deterministic across [jobs] like
    {!zeta_witness}. *)

val phi_log : ?ctx:Ctx.t -> Decay_space.t -> float
(** [lg phi], the exponent form used by Theorem 6 ([phi_log <= zeta] always,
    by the argument in §4.2). *)

(** {1 The analysis cache}

    [zeta] and [phi] results are memoized in {!Bg_prelude.Memo} tables
    keyed by {!Decay_space.digest} (plus [tol] for [zeta]): re-analyzing a
    bit-identical decay matrix — whatever its name, at any job count —
    costs a hash lookup instead of an O(n^3) sweep.  Disable per call with
    a [ctx] whose [cache] is [false] (e.g. {!Ctx.uncached}). *)

val cache_stats : unit -> int * int
(** [(hits, misses)] summed over the zeta and phi caches. *)

val clear_caches : unit -> unit
(** Drop all cached zeta/phi results and zero the hit/miss counters. *)
