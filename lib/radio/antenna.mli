(** Antenna gain patterns.

    Anisotropic antennas are one of the effects the paper lists as breaking
    geometric decay: the same distance yields different gains in different
    directions.  Gains here are in dB relative to isotropic and depend only
    on the angle between the antenna's boresight and the direction of the
    peer. *)

type t

val isotropic : t
(** 0 dB in every direction. *)

val is_isotropic : t -> bool
(** [true] for {!isotropic} only: its {!gain_db} is [0.] at every angle. *)

val sector : beamwidth:float -> gain_db:float -> back_db:float -> t
(** Flat [gain_db] within [beamwidth] radians of boresight (total width),
    [back_db] (typically negative) elsewhere. *)

val cardioid : max_gain_db:float -> t
(** Smooth cardioid pattern [max_gain_db + 20 log10((1 + cos a)/2 + 0.05)],
    a gentle front-to-back ratio of ~26 dB. *)

val gain_db : t -> float -> float
(** [gain_db antenna angle] where [angle] is the offset from boresight in
    radians (any real; wrapped to [-pi, pi]). *)
