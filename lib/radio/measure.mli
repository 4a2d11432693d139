(** Populating decay spaces from the simulated environment — the "truth on
    the ground" of §2.2, plus the measurement channel (RSSI) through which
    real deployments would observe it.

    Shadowing is frozen per unordered node pair (the same wall/obstacle
    configuration attenuates both directions equally), so the resulting
    decay space is static and symmetric unless anisotropic antennas are in
    play; small-scale fading, when enabled, is drawn per ordered pair.  All
    draws are keyed on [seed] and the pair indices: the same seed always
    yields the same space. *)

val decay_space :
  ?seed:int -> ?config:Propagation.config -> ?name:string ->
  Environment.t -> Node.t array -> Bg_decay.Decay_space.t
(** The ground-truth decay space of a deployment: for each ordered pair,
    link-budget loss (model + walls + frozen shadowing [- fading] - the
    antenna gains at both ends) converted to a decay.

    The symmetric part (model, walls, shadowing) is evaluated once per
    unordered pair: the wall test is exact ({!Bg_geom.Segment}), so it
    is the same in both directions.  Fading and the gains are evaluated
    per ordered pair, and only when present: isotropic ends are skipped,
    and with no fading and only isotropic nodes the decay itself is
    computed once per unordered pair and the space is symmetric bit for
    bit.  Rows are spread over the shared pool at
    {!Bg_prelude.Parallel.default_jobs}[ ()] (what [bg --jobs] sets);
    every draw is keyed on its pair, so the cells are the same at every
    job count. *)

val rssi_dbm :
  tx_power_dbm:float -> loss_db:float -> float
(** Received signal strength of a transmission. *)

val measured_decay_space :
  ?quantization_db:float -> ?noise_floor_dbm:float -> tx_power_dbm:float ->
  Bg_decay.Decay_space.t -> Bg_decay.Decay_space.t
(** What a cheap node would report: RSSI quantized to [quantization_db]
    steps (default 1 dB) and censored at the noise floor (default -95 dBm;
    weaker signals saturate at the corresponding maximal decay).  This is
    the measurement pipeline the paper argues suffices to populate decay
    spaces in practice. *)

val prr :
  ?samples:int -> Bg_prelude.Rng.t -> beta:float -> mean_sinr:float ->
  fading:Propagation.fading -> float
(** Monte-Carlo packet reception rate at a given long-term mean SINR under
    the thresholding rule [SINR >= beta], with small-scale fading applied to
    the desired signal.  With [No_fading] this is the exact step function;
    with fading it is the smooth S-curve whose near-threshold shape
    experimental studies report (experiment E13).

    @raise Invalid_argument if [beta <= 0.] or [samples < 1]. *)

val distance_decay_correlation :
  Environment.t -> Node.t array -> Bg_decay.Decay_space.t -> float
(** Spearman rank correlation between inter-node distance and decay — the
    statistic behind "link quality is not correlated with distance"
    (experiment E14). *)
