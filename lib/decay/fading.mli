(** The fading parameter (Definition 3.1) and Theorem 2's bound.

    [gamma_z(r) = r * max over r-separated X of sum_{x in X} 1/f(x,z)]
    measures the worst normalized interference node [z] can receive from
    uniform-power senders that are mutually (and from [z]) at decay at least
    [r].  The fading parameter of the space is [gamma(r) = max_z gamma_z(r)].
    Distributed algorithms transfer to a decay space at a time cost governed
    by this parameter (§3); Theorem 2 bounds it on doubling spaces by
    [C * 2^(A+1) * (zetahat(2 - A) - 1)] where [zetahat] is the Riemann zeta
    function and [A < 1] the Assouad dimension. *)

val is_separated : Decay_space.t -> r:float -> int list -> bool
(** Whether all pairwise decays (both directions) of the given nodes are at
    least [r]. *)

val weighted_mis :
  weights:float array -> compat:(int -> int -> bool) -> float * int list
(** Maximum-weight independent set of the compatibility graph: exact
    branch and bound with a remaining-weight bound and a 2M-node budget
    falling back to the greedy incumbent.  Exposed for the estimator tier
    ({!Estimators.gamma}), which runs the same search over oracle-backed
    candidate sets. *)

val gamma_z :
  ?exact_limit:int -> Decay_space.t -> z:int -> r:float -> float * int list
(** The fading value of node [z] at separation [r], together with the
    witnessing separated sender set.  Maximizing over separated subsets is a
    weighted independent-set problem; solved exactly by branch and bound for
    small candidate sets (default limit 24, with the compatibility relation
    tabulated into a dense byte table first), by greedy + swap local search
    otherwise (then a lower bound). *)

val gamma : ?ctx:Ctx.t -> Decay_space.t -> r:float -> float
(** The fading parameter [max_z gamma_z(r)].  [ctx] (default
    {!Ctx.default}) carries the job count for the listener sweep (the
    result is identical at every job count), the cache flag (memoized
    under [(digest, r, exact_limit)]) and the branch-and-bound
    [exact_limit] forwarded to {!gamma_z}. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of the gamma cache. *)

val clear_caches : unit -> unit
(** Drop all cached gamma results and zero the hit/miss counters. *)

val theorem2_bound : c:float -> a:float -> float
(** Theorem 2's closed form [C * 2^(A+1) * (zetahat(2-A) - 1)]; requires
    [a < 1]. *)

val interference_at :
  Decay_space.t -> z:int -> senders:int list -> power:float -> float
(** Total received power [sum_x power / f(x,z)] — the quantity
    [I_S(z)] of the annulus argument. *)
