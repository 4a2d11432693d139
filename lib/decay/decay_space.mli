(** Decay spaces — Definition 2.1 of the paper.

    A decay space is a pair [D = (V, f)] where [V] is a finite set of nodes
    and [f : V x V -> R>=0] assigns a positive decay to every ordered pair
    of distinct nodes ([f(p,p) = 0] by convention; the paper notes the
    diagonal is immaterial).  The channel gain from [p] to [q] is
    [G(p,q) = 1 / f(p,q)]: larger decay, weaker signal.  Decay spaces need
    not be symmetric and need not obey the triangle inequality — they are
    premetrics, and the whole point of the paper is to parameterize how far
    from a metric they are.

    Storage is an unboxed row-major [Bigarray.Array1] of float64, so a
    matrix can also be memory-mapped from disk ({!of_bigarray} together
    with [Decay_io.load_raw_mmap]) for out-of-core spaces.  Kernels read
    it zero-copy through the abstract {!Flat} views. *)

type t
(** An immutable decay space. *)

val of_matrix : ?name:string -> float array array -> t
(** Wrap a square matrix of decays.  Validates: square shape, zero diagonal,
    strictly positive off-diagonal entries, all finite — with the same
    cell-addressed messages as {!Validate.diagnose}.
    @raise Invalid_argument on any violation. *)

val of_matrix_repaired :
  ?name:string ->
  policy:Validate.policy ->
  float array array ->
  (t * Validate.repair, Validate.diagnosis) result
(** Route a possibly-dirty matrix through {!Validate.repair} and build the
    space from the repaired cells.  [Ok] carries the repair report (so no
    fix-up is silent); [Error] carries the full cell-addressed diagnosis.
    With [policy = Reject] and a valid matrix this is exactly
    {!of_matrix} — same cells, bit for bit. *)

val of_bigarray :
  ?name:string ->
  ?validate:bool ->
  int ->
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  t
(** [of_bigarray n buf] adopts a row-major [n*n] float64 buffer as a decay
    space {e without copying} — the door for memory-mapped out-of-core
    matrices.  The buffer must never be mutated afterwards (the content
    digest and the lazy views assume immutability).
    [validate] (default [true]) runs the same cell checks as {!of_matrix};
    pass [~validate:false] only for huge mapped matrices already validated
    at generation time.
    @raise Invalid_argument on a dimension mismatch or (when validating)
    any invalid cell. *)

val of_fn : ?name:string -> int -> (int -> int -> float) -> t
(** [of_fn n f] tabulates [f] over all ordered pairs ([f i i] is ignored and
    stored as [0]). *)

val of_metric : ?name:string -> alpha:float -> Bg_geom.Metric.t -> t
(** Geometric path loss over a metric: [f(p,q) = d(p,q)^alpha].  This embeds
    the classical GEO-SINR model as the special case in which the metricity
    [zeta] equals the path-loss exponent [alpha]. *)

val of_points : ?name:string -> alpha:float -> Bg_geom.Point.t list -> t
(** Euclidean GEO-SINR decay space on planar points: the same cells as
    [of_metric ~alpha (Metric.of_points points)], computed once per
    unordered pair straight into the flat buffer.  Coincident points
    raise the cell-addressed nonpositive-decay message. *)

val n : t -> int
(** Number of nodes. *)

val name : t -> string
(** Human-readable label (used in experiment tables). *)

val rename : string -> t -> t
(** Same space under a new label. *)

val decay : t -> int -> int -> float
(** [decay d p q] is [f(p,q)].  Bounds-checked. *)

val unsafe_get : t -> int -> int -> float
(** [unsafe_get d p q] is [f(p,q)] with no bounds check — for inner loops
    whose indices are proven in range by construction. *)

val gain : t -> int -> int -> float
(** [gain d p q = 1 / f(p,q)]; [infinity] when [p = q]. *)

val matrix : t -> float array array
(** A defensive copy of the decay matrix. *)

val is_symmetric : ?eps:float -> t -> bool
(** Whether [f(p,q) = f(q,p)] within relative tolerance [eps] (default
    [1e-9]): the tolerant notion reports use.  The kernels' shortcut is
    {!exactly_symmetric}. *)

val exactly_symmetric : t -> bool
(** Whether [f(p,q)] and [f(q,p)] are the same float, bit for bit, for
    every pair.  Computed at most once per space, lazily and race-free
    like the {!Flat} views, by a row-major pass over the upper triangle
    that stops at the first pair that differs, so an asymmetric space
    pays about one comparison.

    Only consumers that read every cell anyway ask for it: the lazy
    views, the zeta and phi sweeps ({!Metricity}) and
    {!Statistics.summarize}.  On a symmetric space the views alias
    ({!Flat.transpose} is {!Flat.data}, {!Flat.log_transpose} is
    {!Flat.logs}), the sweeps visit each unordered pair once, and the
    summary reads the upper triangle.  The estimators never ask, so a
    memory-mapped space they sample is never paged in whole. *)

val min_decay : t -> float
(** Smallest off-diagonal decay.  Raises on spaces with fewer than two
    nodes. *)

val max_decay : t -> float
(** Largest off-diagonal decay. *)

val scale : float -> t -> t
(** Multiply all decays by a positive constant.  The metricity is invariant
    under scaling only in the trivial sense that quasi-distances rescale;
    tests cover the exact behaviour.
    @raise Invalid_argument when a product overflows to [inf] or
    underflows to [0], with the cell-addressed message of {!of_matrix}. *)

val pow : float -> t -> t
(** [pow e d] raises every decay to the positive power [e]; this multiplies
    the metricity by exactly [e] (for [zeta >= 1] results).
    @raise Invalid_argument like {!scale} when a power leaves the finite
    positive floats. *)

val symmetrize : t -> t
(** Replace [f(p,q)] and [f(q,p)] by their maximum, the conservative
    symmetrization (a signal must survive the worse direction). *)

val sub_space : t -> int array -> t
(** Induced decay sub-space on the given node indices (in the given order). *)

val map : (int -> int -> float -> float) -> t -> t
(** Pointwise transformation of off-diagonal decays; the result is
    re-validated. *)

val pp : Format.formatter -> t -> unit
(** Short description: name, size, decay range. *)

(** {1 Zero-copy kernel views}

    The O(n^3) sweeps in {!Metricity} and the MIS loops in {!Fading} read
    the decay matrix through these borrowed views instead of the
    defensively copied {!matrix}.  All views are row-major [n*n] float64
    buffers owned by the space: {b never mutate them}.  The view type is
    abstract (a private [Bigarray.Array1] abbreviation), so callers index
    it through {!Flat.get} / {!Flat.unsafe_get} and can never re-grow a
    dependence on a concrete [float array] layout.

    Lazy companions ({!Flat.logs}, {!Flat.transpose},
    {!Flat.log_transpose}) are built at most once, race-free by
    construction: an atomic slot plus a per-space build mutex means pool
    workers may request any view at any time — whoever arrives first
    builds, everyone else waits or takes the published buffer.  There is
    no force-before-fanout contract anymore; {!Flat.force} remains as a
    warm-up hint only.

    On an {!exactly_symmetric} space no transpose is built: each
    transpose view is the buffer it transposes, and {!Flat.logs} fills a
    cell and its mirror from one [log].  The views are equal value for
    value either way. *)

module Flat : sig
  type buf = private
    (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** A borrowed, read-only, row-major [n*n] view.  The private
      abbreviation keeps the float64 layout statically known (so
      {!unsafe_get} compiles to a direct unboxed load) while preventing
      callers from obtaining a writable [Array1.t] without an explicit —
      and greppable — coercion. *)

  val data : t -> buf
  (** The decay matrix itself: [f(p,q)] at index [p*n + q].  Zero-copy. *)

  val logs : t -> buf
  (** Natural logs of the decays (diagonal: [neg_infinity]), built lazily
      on first use.  Lets the metricity bisection reuse [log f] instead of
      calling [log] per triple.  Building it computes the symmetry
      flag. *)

  val transpose : t -> buf
  (** The transposed decay matrix ([f(q,p)] at index [p*n + q]), built
      lazily with a cache-blocked transpose.  Turns the column accesses of
      the triple sweeps into sequential row streams.  On an
      {!exactly_symmetric} space it is {!data} itself (physically equal),
      and asking for it computes the flag. *)

  val log_transpose : t -> buf
  (** Transpose of {!logs}, built lazily; {!logs} itself on an
      {!exactly_symmetric} space. *)

  val force : t -> unit
  (** Build all lazy companions (and the symmetry flag) now.  Purely a
      warm-up/pre-touch hint — concurrent first use is safe without
      it. *)

  val length : buf -> int
  (** Number of cells ([n*n]). *)

  val get : buf -> int -> float
  (** Bounds-checked read. *)

  external unsafe_get : buf -> int -> float = "%caml_ba_unsafe_ref_1"
  (** Unchecked read — for inner loops whose indices are in range by
      construction.  A compiler primitive, so it compiles to a single
      unboxed float load. *)

  val to_array : buf -> float array
  (** Defensive copy, for callers that genuinely need a [float array]. *)
end

val digest : t -> string
(** A content digest of the decay matrix (MD5 over the raw float bytes),
    computed lazily (race-free, like the views) and cached.  Two spaces
    with bit-identical matrices share a digest regardless of {!name} — the
    key of the serve store's result cache. *)
