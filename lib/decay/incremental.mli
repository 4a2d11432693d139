(** ζ, φ and γ of a decay space maintained across churn steps.

    Each {!step} recomputes all three on the new space with
    [Metricity.zeta_witness], [Metricity.phi_witness] and [Fading.gamma],
    so its cost is one pruned full sweep of each.  The alternative,
    per-pair tables re-swept over the triples that touch the k dirty
    nodes (O(k·n²) triple visits), could not use the sweep's
    global-incumbent pruning, and it measured an order of magnitude
    slower than the pruned full sweep on churn traces with most rows
    dirty and with few.

    The results are the kernels' own, so they are bit-identical to an
    uncached recompute of the current space at every job count,
    witnesses and tie-breaks included.  [test/differential.ml] checks
    this at jobs 1 and 4.  No invariant is asked of the caller: cells
    outside the dirty set may change too, and [dirty] only feeds the
    statistics and the [incremental_step] span. *)

type gamma_info = {
  g_value : float;  (** [max_z gamma_z(r)] — equals [Fading.gamma] *)
}

type result = {
  zeta : Metricity.witness;
  phi : Metricity.witness;
  gamma : gamma_info option;  (** [None] unless [~r] was given *)
}

(** Cumulative accounting since {!create} (steps only). *)
type stats = {
  steps : int;
  pairs_full : int;
      (** ordered pairs re-swept over every [z]: n(n−1) per step *)
  dirty_nodes : int;  (** sum of per-step dirty-set sizes *)
}

type t

val create : ?ctx:Ctx.t -> ?r:float -> Decay_space.t -> t
(** Compute the witnesses of the given space.  [ctx] (default
    {!Ctx.default}) is passed unchanged to every kernel call, so its
    tolerance, job count, [exact_limit] and cache flag all apply.  [r]
    enables γ at that separation. *)

val space : t -> Decay_space.t
(** The space the current witnesses describe. *)

val current : t -> result
(** The witnesses of {!space}. *)

val step : t -> dirty:int array -> Decay_space.t -> result
(** Advance to [next], recompute its witnesses and return them.  [dirty]
    names the nodes that moved; it need not be sorted.
    @raise Invalid_argument if [next] has a different node count or a
    dirty index is out of range. *)

val stats : t -> stats
