(** Decay balls and packings (§3.1).

    The t-ball [B(y,t) = { x | f(x,y) < t }] collects the nodes whose decay
    *to* [y] is below [t]; a set [Y] is a t-packing when all pairwise decays
    exceed [2t] (so the t-balls around its members are disjoint).  Packing
    numbers drive the Assouad-dimension estimate and the annulus argument of
    Theorem 2. *)

val members : Decay_space.t -> centre:int -> radius:float -> int list
(** Nodes of the (open) decay ball around [centre], including the centre
    itself, in increasing order.
    @raise Invalid_argument if [centre] is not a node. *)

val is_packing : Decay_space.t -> radius:float -> int list -> bool
(** Whether all pairwise decays (both directions) strictly exceed
    [2 * radius]. *)

val max_packing :
  ?exact_limit:int -> Decay_space.t -> within:int list -> radius:float -> int list
(** Largest [radius]-packing using only nodes of [within]: exact via
    branch-and-bound MIS when [|within| <= exact_limit] (default 30),
    greedy otherwise (then a maximal — not maximum — packing, i.e. a lower
    bound). *)

val packing_number :
  ?exact_limit:int -> ?at_least:int -> Decay_space.t -> centre:int ->
  ball_radius:float -> packing_radius:float -> int
(** [P(B(centre, ball_radius), packing_radius)]: the size of the largest
    packing that fits inside the ball — Definition 3.2's building block —
    found as {!max_packing} finds it.  With [at_least] (default 0) the
    result is [max at_least P]: a ball of at most [at_least] members is not
    solved, and an exact solve starts from that incumbent, so a caller
    maximizing over many balls passes its running best. *)
