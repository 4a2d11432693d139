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
  weights:float array ->
  compat:(int -> int -> bool) ->
  float * int list * bool
(** Maximum-weight independent set of the compatibility graph: exact
    branch and bound with a remaining-weight bound and a 2M-node budget
    falling back to the greedy incumbent.  Returns the weight, the set and
    whether the budget cut the search short (the set is then the best
    found, not necessarily the maximum).  Exposed for the estimator tier
    ({!Estimators.gamma}), which runs the same search over oracle-backed
    candidate sets. *)

val gamma_z :
  ?exact_limit:int -> Decay_space.t -> z:int -> r:float -> float * int list
(** The fading value of node [z] at separation [r], together with the
    witnessing separated sender set.  Maximizing over separated subsets is a
    weighted independent-set problem; solved exactly by branch and bound for
    small candidate sets (default limit 24, with the compatibility relation
    tabulated into a dense byte table first), otherwise by one greedy pass
    in decreasing weight order (then a lower bound). *)

val gamma : ?ctx:Ctx.t -> Decay_space.t -> r:float -> float
(** The fading parameter [max_z gamma_z(r)].  [ctx] (default
    {!Ctx.default}) carries the job count for the listener sweep (the
    result is identical at every job count), the cache flag (memoized
    under [(digest, r, exact_limit)]) and the branch-and-bound
    [exact_limit] forwarded to {!gamma_z}.

    {b Listener ladder.}  The sweep skips listeners that cannot change
    the maximum.  Every candidate weight [1/f(x,z)] is positive, so
    [r * sum_{x in C_z} 1/f(x,z)] over listener [z]'s candidate set [C_z]
    bounds [gamma_z(r)] from above, for the exact search and the greedy
    pass alike.  The sweep computes all [n] bounds (O(n^2)), visits
    listeners in decreasing bound order, dealt round-robin to [jobs]
    stripes, and a stripe stops at its first listener whose
    [bound * (1 + 1e-9)] is strictly below the stripe's running maximum.
    The margin covers float reassociation: a k-term positive sum is
    within a factor [1 +- (k-1)u] ([u = 2^-53]) of the exact sum in any
    order, so a skipped listener's computed [gamma_z] is below the
    maximum too, for up to 4 million candidates per listener.  The result
    is a max of floats, so it is bit-identical to visiting every
    listener.  Each sweep adds to the counters [kernel.gamma_visited],
    [kernel.gamma_skipped] (the two sum to [n]), [kernel.gamma_exact],
    [kernel.gamma_greedy] (the two sum to the visited count) and
    [kernel.gamma_budget_cutoffs] (exact searches that exhausted
    {!weighted_mis}'s budget), and attaches the same counts to its
    [gamma_sweep] span when tracing. *)

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
