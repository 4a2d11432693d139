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
    witnessing separated sender set.  The candidates are the nodes [x]
    with [f(x,z) >= r] and [f(z,x) >= r], weighted [1/f(x,z)].
    Maximizing over their separated subsets is a weighted
    independent-set problem.  With at most [exact_limit] candidates
    (default 24) it is solved exactly by {!weighted_mis}, with the
    compatibility relation tabulated into a dense byte table first.
    Above that, one greedy pass gives a lower bound: it takes the
    candidates in the reference order, decreasing weight, with equal
    weights in the order [Array.sort (fun i j -> Float.compare w.(j)
    w.(i))] leaves [Array.init k Fun.id] over the candidates in
    increasing node order, and picks each one that is compatible with
    every earlier pick.  The greedy value sums the picks most recent
    first, and the witness lists them in that order.
    @raise Invalid_argument if [z] is not a node of the space. *)

val gamma : ?ctx:Ctx.t -> Decay_space.t -> r:float -> float
(** The fading parameter [max_z gamma_z(r)].  [ctx] (default
    {!Ctx.default}) carries the job count for the listener sweep (the
    result is identical at every job count) and the branch-and-bound
    [exact_limit] forwarded to {!gamma_z}.  Every call runs the sweep;
    no result is kept between calls.

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
    maximum too, for up to 4 million candidates per listener.

    {b Greedy give-up.}  The greedy pass keeps its live candidates,
    those neither picked nor in conflict with a pick, compacted in a
    scratch array; each pick takes one pass over them that drops the
    pick's conflicts, sums their weights and finds the next pick, the
    first live candidate in the reference order.  The pass's final set
    lies within its picks and its live candidates, so a visited listener
    is given up once [r * (picked + live) * (1 + 1e-9)] is strictly
    below the stripe's running maximum, where [picked] and [live] are
    the two weight sums.  The ladder's float argument covers these sums
    too, since it holds for any order and grouping; before the first
    pick the expression is the ladder's bound, bit for bit.  A listener
    whose order needs the tie rule ranks its candidates once, with the
    reference's sort.  The result is a max of floats, so it is
    bit-identical to solving every listener in full.

    Each sweep adds to the counters [kernel.gamma_visited],
    [kernel.gamma_skipped] (the two sum to [n]), [kernel.gamma_exact],
    [kernel.gamma_greedy] (the two sum to the visited count),
    [kernel.gamma_budget_cutoffs] (exact searches that exhausted
    {!weighted_mis}'s budget), [kernel.gamma_abandoned] (greedy passes
    given up, so the greedy count is the finished ones plus these) and
    [kernel.gamma_tie_sorts] (greedy passes that needed the tie rule's
    rank), and attaches the same counts to its [gamma_sweep] span when
    tracing. *)

val clear_caches : unit -> unit
(** Does nothing.  Kept only because [perfbench/] still calls it; no
    kernel keeps results. *)

val theorem2_bound : c:float -> a:float -> float
(** Theorem 2's closed form [C * 2^(A+1) * (zetahat(2-A) - 1)].
    @raise Invalid_argument unless [a < 1] (so also for a nan [a]). *)

val interference_at :
  Decay_space.t -> z:int -> senders:int list -> power:float -> float
(** Total received power [sum_x power / f(x,z)] — the quantity
    [I_S(z)] of the annulus argument. *)
