(** Dimension parameters of decay spaces.

    Three growth measures appear in the paper: the Assouad (doubling)
    dimension of the decay space itself (Definition 3.2, used by Theorem 2),
    the doubling dimension of the induced quasi-metric (used by Theorems 4
    and 5 as [A']), and the independence dimension (Definition 4.1, Welzl's
    guards).  All are estimated over all (or sampled) centres and the radii
    occurring in the space.

    The four estimators [Core.Analysis.run] reports each run inside an
    [Obs] span of their own: [assouad], [quasi_doubling], [independence]
    and [guards]. *)

(** {2 Assouad dimension of the decay space} *)

val packing_growth :
  ?exact_limit:int -> ?centres:int list -> Decay_space.t -> q:float -> int
(** [packing_growth d ~q] estimates [g_D(q)]: the largest [r/q]-packing
    fitting in any ball [B(x, r)], maximized over centres [x] (all by
    default) and over ball radii drawn from the decay values around each
    centre.  Each ball is solved as {!Ball.packing_number} solves it, with
    [exact_limit] (default 30); a ball with no more members than the best
    packing so far is skipped, since it cannot beat it. *)

val assouad : ?exact_limit:int -> ?qs:float list -> Decay_space.t -> float
(** Assouad dimension estimate: the log-log regression slope of [g(q)]
    against [q] over a grid of [q] values (default [2;4;8;16]) — the
    exponent [A] in [g(q) = C * q^A], absorbing the constant that
    Definition 3.2 carries explicitly.  For geometric decay [f = d^alpha]
    on large planar sets this tends to [2/alpha]; a fading space is one
    with [A < 1] (Definition 3.3). *)

val assouad_max : ?exact_limit:int -> ?qs:float list -> c:float -> Decay_space.t -> float
(** Definition 3.2 verbatim: [max_q log_q (g(q) / c)] for an explicitly
    chosen constant [c].  Sensitive to [c] at small [q]; prefer {!assouad}
    for estimation and this form for checking a claimed (A, C) pair. *)

(** {2 Doubling dimension of the induced quasi-metric} *)

val quasi_doubling : ?zeta:float -> Decay_space.t -> float
(** [log2] of the empirical doubling constant of the quasi-metric
    [f^(1/zeta)] — the parameter [A'] in Theorems 4 and 5. *)

(** {2 Independence dimension and guards (Definition 4.1)} *)

val is_independent_wrt : Decay_space.t -> x:int -> int list -> bool
(** Whether the given nodes are independent with respect to [x]: every
    member is strictly farther from every other member than it is from [x]
    (for all distinct [z], [y] in the set, [f(y,z) > f(z,x)]).  Strictness
    is the reading under which the paper's examples work out: the uniform
    space gets dimension 1, dual to its single-guard cover (guards use the
    closed inequality). *)

val independence_wrt :
  ?exact_limit:int -> Decay_space.t -> x:int -> int list
(** A maximum independent set with respect to [x]: exact when the other
    [n - 1] nodes number at most [exact_limit] (default 30), greedy
    otherwise. *)

val independence_dimension : ?exact_limit:int -> Decay_space.t -> int
(** [max_x |independence_wrt x|] — at most the kissing number 6 for planar
    Euclidean decay spaces (generically 5, by the >60-degree argument of
    §4.1), 1 for the uniform space, unbounded for the Welzl construction. *)

val is_guard_set : Decay_space.t -> x:int -> int list -> bool
(** Whether [guards] guard [x]: every node [z <> x] has some guard [y] with
    [f(z,y) <= f(z,x)]. *)

val greedy_guards : Decay_space.t -> x:int -> int list
(** A small guard set for [x] by greedy set cover (within a [ln n] factor of
    the minimum, which Welzl shows equals the independence dimension).
    @raise Invalid_argument when [x] is not a node. *)

val max_guard_count : Decay_space.t -> int
(** Largest greedy guard-set size over all nodes — the quantity bounded by 6
    in the plane via the 60-degree sector construction. *)
