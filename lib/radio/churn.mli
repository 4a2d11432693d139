(** Radio-environment adapters for {!Bg_decay.Evolve}.

    [Evolve] lives below this library, so it takes its large-scale decay
    as a plain function of two positions.  This module supplies that
    function from the radio substrate: the deterministic part of a
    {!Propagation} link budget (path-loss model plus wall penetration
    through an {!Environment}), converted to a decay with
    {!Propagation.loss_to_decay}.  Shadowing and fast fading are {e not}
    included here — [Evolve] owns those, time-correlated, on top.

    The returned function is pure and deterministic, so cells of
    stationary links stay bit-identical across steps. *)

val base_decay :
  ?config:Propagation.config -> Environment.t ->
  Bg_geom.Point.t -> Bg_geom.Point.t -> float
(** [base_decay env p q] is
    [loss_to_decay (large_scale_loss_db config env p q)].  [config]
    defaults to {!Propagation.default} with shadowing and fading stripped
    (they would be double-counted against [Evolve]'s own fields; the
    deterministic loss ignores those fields anyway — stripping just makes
    the intent explicit). *)

val evolve :
  ?config:Propagation.config ->
  ?name:string ->
  seed:int ->
  Environment.t ->
  Bg_decay.Evolve.config ->
  Bg_decay.Evolve.t
(** Convenience: {!Bg_decay.Evolve.create} over {!base_decay} of the
    environment.  The evolve config's [side] should match
    [Environment.side] so waypoints stay inside the floor plan (checked:
    @raise Invalid_argument on a mismatch). *)
