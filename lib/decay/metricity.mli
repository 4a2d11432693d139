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

    All sweep entry points take one optional {!Ctx.t} carrying the job
    count.  No result is kept between calls: every call on a space of
    three or more nodes runs its sweep.

    Each sweep adds its pruning tally to the
    {!Bg_prelude.Obs} counters [kernel.sweeps], [kernel.triples],
    [kernel.plain_skips], [kernel.cheap_skips], [kernel.deep],
    [kernel.exp_evals], [kernel.bisections], [kernel.row_prunes],
    [kernel.pair_prunes], [kernel.tile_prunes] and [kernel.minplus_rows],
    once per sweep and identically at every job count; when tracing, the
    sweep's span also carries [plain_skips], [cheap_skips], [deep],
    [bisections], [minplus_rows] and [mirrored] (the pairs left to their
    mirror, below).  [plain_skips + cheap_skips + deep] never exceeds
    [triples]; the rest are the triples no test looked at.  The counts
    are diagnostics and never influence a result.

    {2 Symmetric spaces}

    On an {!Decay_space.exactly_symmetric} space both sweeps visit only
    the pairs x < y.  The mirrored triple (y, x, z) of a triple (x, y, z)
    reads the same three floats with its two legs swapped: zeta's
    [fxy <= fxz +. fzy], [Float.min] and holds test and phi's
    [fxy /. (fxz +. fzy)] are symmetric in the legs, so its value is the
    same bits.  The lex-first maximizer therefore has x < y (for phi in
    iteration coordinates, outer pair first), and the witness is the
    naive sweep's.  Each mirrored pair counts its [n - 2] triples as
    [cheap_skips], as a pair the min-plus pass dismisses does, so the
    [n (n - 1) / 2] mirrored pairs account for half of [triples].  The
    min-plus pass then fills only the y above its block's first row.

    Rows go to the pool in interleaved stripes, one unit of rows at a
    time: one pass block (4 rows), or one x-panel (16 rows) from 512
    nodes, so the longer early rows of a symmetric sweep spread over
    every job.  Each stripe starts
    from the seed, threads its own incumbent and polls the ambient
    {!Bg_prelude.Parallel.with_deadline} budget between units of rows.

    {2 Two paths, one result}

    Both sweeps have two ways to dismiss the pairs (x, y) whose z-loops
    cannot change the witness.  The {e pruned} path tests row, pair and
    tile bounds against the incumbent (the best value found so far).
    Where those bounds fail, as on geometric spaces, a {e min-plus row
    pass} screens every pair of a block of rows at once: it computes
    [m(x,y) = min over all z of a(x,z) + a(z,y)] with one add and one
    compare per triple.  A pair the pass dismisses counts its [n - 2]
    triples as [cheap_skips], and every row it screens counts once in
    [minplus_rows].  On spaces of 64 or more nodes, every stripe of a
    sweep starts from the exact witness of the sub-space induced by 32
    evenly spread nodes (the {e seed}), a real triple with its real
    value.
    - phi runs the pass on the decays.  Float division by a positive
      divisor is monotone, so [f(x,y) /. m(x,y)] is the pair's largest
      ratio, bit for bit; the pair is dismissed when that is below the
      incumbent or at most 1 (the initial witness is the lex-first
      triple at value 1, which no pair at most 1 can replace).  The
      sweep takes the pass for the next 4 rows (16 from 512 nodes) when
      more than a quarter of their pairs survive the pair bound at the
      incumbent.
    - zeta runs the pass on [G = exp ((1. /. v0) *. log f)], where v0 is
      the seed's value: the floats the sweep's holds test computes at
      v0.  [m(x,y) >= G(x,y)] proves that every triple of the pair holds
      at v0, hence at the incumbent, which is the property the incumbent
      skip already relies on.  A triple whose value is V fails at V, so
      any pair with a triple that ties or beats the incumbent is still
      scanned and ties still reach the lex check.  The sweep takes the
      pass when more than 1/64 of the seed sub-space's triples survive
      the geometric-mean cut at v0 (13-16% on geometric spaces, about
      0.01% on walled ones).
    Every pair the pass keeps runs the pruned path's z-loop unchanged,
    and every stripe starts from the same incumbent, so the witness is the
    same on either path and at every job count. *)

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
    than three nodes.  Every triple bisects to the relative tolerance
    [1e-9].  [ctx] (default {!Ctx.default}) carries the job count; the
    result is identical at every job count. *)

val zeta_witness : ?ctx:Ctx.t -> Decay_space.t -> witness
(** The metricity together with a triple attaining it.  On ties the
    lexicographically smallest [(x, y, z)] wins, at every [jobs] count
    and under every internal loop order. *)

val zeta_upper_bound : ?jobs:int -> Decay_space.t -> float
(** The paper's a-priori bound [zeta <= max(1, lg (f_max / f_min))]. *)

val holds_at : ?jobs:int -> Decay_space.t -> float -> bool
(** [holds_at d z] checks the relaxed triangle inequality at parameter [z]
    for all triples (within the bisection tolerance), on the zeta pass at
    [z +. 1e-7]. *)

val phi : ?ctx:Ctx.t -> Decay_space.t -> float
(** The relaxed-triangle-inequality constant
    [max(1, max_{x,y,z} f(x,z) / (f(x,y) + f(y,z)))] over distinct triples.
    Pruned like {!zeta} (the phi bounds are exact in float arithmetic, by
    monotonicity of [+.] and [/.]). *)

val phi_witness : ?ctx:Ctx.t -> Decay_space.t -> witness
(** [phi] together with an attaining triple (fields [x], [z] are the outer
    pair and [y] the midpoint).  Deterministic across [jobs] like
    {!zeta_witness}. *)

val phi_log : ?ctx:Ctx.t -> Decay_space.t -> float
(** [lg phi], the exponent form used by Theorem 6 ([phi_log <= zeta] always,
    by the argument in §4.2). *)

val clear_caches : unit -> unit
(** Does nothing.  Kept only because [perfbench/] still calls it; no
    kernel keeps results. *)

(** {1 Test-only} *)

type path =
  | Pruned  (** bounds only, no pass, no seed *)
  | Minplus  (** the pass on every row, seeded *)

val forced_zeta_witness : path -> ?ctx:Ctx.t -> Decay_space.t -> witness
(** For tests only: {!zeta_witness} with the path fixed instead of chosen
    from counts, at any [n].  [Minplus] seeds from a sub-space of
    [min 32 (n / 2)] nodes (none below 6 nodes); [Pruned] starts from
    the initial witness.  No context, flag or environment variable
    reaches it. *)

val forced_phi_witness : path -> ?ctx:Ctx.t -> Decay_space.t -> witness
(** For tests only: {!phi_witness} with the path fixed, like
    {!forced_zeta_witness}. *)
