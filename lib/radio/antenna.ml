type t =
  | Isotropic
  | Sector of { beamwidth : float; gain_db : float; back_db : float }
  | Cardioid of { max_gain_db : float }

let isotropic = Isotropic
let is_isotropic = function Isotropic -> true | Sector _ | Cardioid _ -> false

let sector ~beamwidth ~gain_db ~back_db =
  if beamwidth <= 0. || beamwidth > 2. *. Float.pi then
    invalid_arg "Antenna.sector: beamwidth out of range";
  Sector { beamwidth; gain_db; back_db }

let cardioid ~max_gain_db = Cardioid { max_gain_db }

let wrap_angle a =
  let two_pi = 2. *. Float.pi in
  let a = Float.rem a two_pi in
  if a > Float.pi then a -. two_pi
  else if a < -.Float.pi then a +. two_pi
  else a

let gain_db t angle =
  let a = Float.abs (wrap_angle angle) in
  match t with
  | Isotropic -> 0.
  | Sector { beamwidth; gain_db; back_db } ->
      if a <= beamwidth /. 2. then gain_db else back_db
  | Cardioid { max_gain_db } ->
      max_gain_db +. (20. *. log10 (((1. +. cos a) /. 2.) +. 0.05))
