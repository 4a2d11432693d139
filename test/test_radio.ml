open Testutil
module Mat = Core.Radio.Material
module Env = Core.Radio.Environment
module Ant = Core.Radio.Antenna
module Prop = Core.Radio.Propagation
module Node = Core.Radio.Node
module Meas = Core.Radio.Measure
module P = Core.Geom.Point
module S = Core.Geom.Segment
module D = Core.Decay.Decay_space

(* ------------------------------------------------------------- Material *)

let test_material_ordering () =
  check_true "metal worse than glass"
    (Mat.metal.Mat.attenuation_db > Mat.glass.Mat.attenuation_db);
  check_true "concrete worse than drywall"
    (Mat.concrete.Mat.attenuation_db > Mat.drywall.Mat.attenuation_db)

let test_material_custom () =
  let m = Mat.custom ~name:"lead" ~attenuation_db:40. in
  check_float "attenuation" 40. m.Mat.attenuation_db;
  Alcotest.check_raises "negative"
    (Invalid_argument "Material.custom: attenuation must be non-negative")
    (fun () -> ignore (Mat.custom ~name:"x" ~attenuation_db:(-1.)))

(* ---------------------------------------------------------- Environment *)

let test_empty_environment () =
  let e = Env.empty ~side:10. in
  check_int "no walls" 0 (List.length (Env.walls e));
  check_float "no loss" 0. (Env.wall_loss_db e (P.make 0. 0.) (P.make 9. 9.))

let test_wall_loss_accumulates () =
  let w1 =
    { Env.segment = S.make (P.make 2. (-1.)) (P.make 2. 1.); material = Mat.concrete }
  in
  let w2 =
    { Env.segment = S.make (P.make 4. (-1.)) (P.make 4. 1.); material = Mat.glass }
  in
  let e = Env.create ~side:10. [ w1; w2 ] in
  check_float "both walls" 14. (Env.wall_loss_db e (P.make 0. 0.) (P.make 6. 0.));
  check_float "one wall" 12. (Env.wall_loss_db e (P.make 0. 0.) (P.make 3. 0.));
  check_int "crossings" 2 (Env.crossings e (P.make 0. 0.) (P.make 6. 0.))

let test_office_structure () =
  let e = Env.office ~rooms_x:2 ~rooms_y:2 ~room_size:5. Mat.drywall in
  check_true "has walls" (List.length (Env.walls e) > 4);
  (* Path across the interior wall at x = 5 away from the door gap. *)
  let loss = Env.wall_loss_db e (P.make 2.5 1.) (P.make 7.5 1.) in
  check_float "one drywall crossing" 3. loss;
  (* Path through the centred door gap at y = 2.5. *)
  let through_door = Env.wall_loss_db e (P.make 2.5 2.5) (P.make 7.5 2.5) in
  check_float "door gap is free" 0. through_door

let test_office_outer_solid () =
  let e = Env.office ~rooms_x:1 ~rooms_y:1 ~room_size:4. Mat.brick in
  (* From inside to outside must cross the boundary. *)
  check_true "boundary charged"
    (Env.wall_loss_db e (P.make 2. 2.) (P.make 10. 2.) >= 8.)

let test_corridor_builds () =
  let e = Env.corridor ~rooms:3 ~room_size:4. ~corridor_width:2. Mat.drywall in
  check_true "has walls" (List.length (Env.walls e) > 4)

let test_random_clutter_count () =
  let e = Env.random_clutter (rng 1) ~side:20. ~n_walls:15 [ Mat.concrete ] in
  check_int "wall count" 15 (List.length (Env.walls e))

(* Path ends anywhere on the floor, or on the office's wall lines and
   door edges, where paths touch walls and run along them. *)
let prop_wall_loss_symmetric =
  let coord =
    QCheck.Gen.(
      frequency
        [ (3, float_range (-1.) 25.);
          (1, oneofl [ 0.; 6.; 8.4; 9.6; 12.; 18.; 2.4; 3.6 ]) ])
  in
  let point = QCheck.Gen.map (fun (x, y) -> P.make x y) (QCheck.Gen.pair coord coord) in
  let office = Env.office ~rooms_x:3 ~rooms_y:3 ~room_size:6. Mat.drywall in
  qcheck ~count:2000 "wall loss symmetric, = reject-free sum"
    (QCheck.make
       ~print:(fun (k, a, b) -> Printf.sprintf "%d (%h,%h)-(%h,%h)" k a.P.x a.P.y b.P.x b.P.y)
       QCheck.Gen.(triple small_nat point point))
    (fun (k, a, b) ->
      let env =
        if k mod 2 = 0 then office
        else Env.random_clutter (rng k) ~side:25. ~n_walls:30 [ Mat.concrete; Mat.metal ]
      in
      let path = S.make a b in
      let plain =
        List.fold_left
          (fun acc w ->
            if S.intersects path w.Env.segment then acc +. w.Env.material.Mat.attenuation_db
            else acc)
          0. (Env.walls env)
      in
      let ab = Env.wall_loss_db env a b and ba = Env.wall_loss_db env b a in
      Int64.equal (Int64.bits_of_float ab) (Int64.bits_of_float ba)
      && Int64.equal (Int64.bits_of_float ab) (Int64.bits_of_float plain))

(* The orientation filter stays inline in the wall loop: a path's loss
   allocates only its boxed result, where an out-of-line predicate would
   box six floats per wall test. *)
let test_wall_loss_allocates_only_its_result () =
  let env = Env.office ~rooms_x:3 ~rooms_y:3 ~room_size:6. Mat.drywall in
  let pts =
    Array.of_list (Core.Decay.Spaces.random_points (rng 3) ~n:40 ~side:17.)
  in
  let before = Gc.minor_words () in
  for i = 0 to 39 do
    for j = 0 to 39 do
      ignore (Sys.opaque_identity (Env.wall_loss_db env pts.(i) pts.(j)))
    done
  done;
  let words = (Gc.minor_words () -. before) /. 1600. in
  check_true (Printf.sprintf "%.2f words per call <= 3" words) (words <= 3.)

let test_random_clutter_requires_materials () =
  Alcotest.check_raises "no materials"
    (Invalid_argument "Environment.random_clutter: no materials") (fun () ->
      ignore (Env.random_clutter (rng 1) ~side:20. ~n_walls:3 []))

(* -------------------------------------------------------------- Antenna *)

let test_isotropic () =
  check_float "0 dB everywhere" 0. (Ant.gain_db Ant.isotropic 1.7)

let test_sector () =
  let a = Ant.sector ~beamwidth:(Float.pi /. 2.) ~gain_db:10. ~back_db:(-20.) in
  check_float "boresight" 10. (Ant.gain_db a 0.);
  check_float "inside beam" 10. (Ant.gain_db a 0.7);
  check_float "outside beam" (-20.) (Ant.gain_db a 1.6);
  check_float "behind" (-20.) (Ant.gain_db a Float.pi)

let test_cardioid () =
  let a = Ant.cardioid ~max_gain_db:6. in
  check_true "front gain near max" (Ant.gain_db a 0. > 5.);
  check_true "back attenuated" (Ant.gain_db a Float.pi < Ant.gain_db a 0. -. 20.);
  check_true "monotone front-to-back"
    (Ant.gain_db a 0.5 > Ant.gain_db a 2.)

let test_angle_wrapping () =
  let a = Ant.cardioid ~max_gain_db:0. in
  check_float ~eps:1e-9 "wraps 2pi" (Ant.gain_db a 0.3)
    (Ant.gain_db a (0.3 +. (2. *. Float.pi)));
  check_float ~eps:1e-9 "wraps negative" (Ant.gain_db a 0.3) (Ant.gain_db a (-0.3))

(* ---------------------------------------------------------- Propagation *)

let test_free_space_slope () =
  (* FSPL: +20 dB per decade of distance. *)
  let cfg = Prop.free_space_config in
  let env = Env.empty ~side:1000. in
  let l1 = Prop.large_scale_loss_db cfg env (P.make 0. 0.) (P.make 10. 0.) in
  let l2 = Prop.large_scale_loss_db cfg env (P.make 0. 0.) (P.make 100. 0.) in
  check_float ~eps:1e-6 "20 dB per decade" 20. (l2 -. l1)

let test_log_distance_slope () =
  let cfg = { Prop.default with Prop.model = Prop.Log_distance { exponent = 3.5 };
              walls = false; shadowing_sigma_db = 0. } in
  let env = Env.empty ~side:1000. in
  let l1 = Prop.large_scale_loss_db cfg env (P.make 0. 0.) (P.make 10. 0.) in
  let l2 = Prop.large_scale_loss_db cfg env (P.make 0. 0.) (P.make 100. 0.) in
  check_float ~eps:1e-6 "35 dB per decade" 35. (l2 -. l1)

let test_log_distance_reference () =
  let cfg = { Prop.default with walls = false; shadowing_sigma_db = 0. } in
  let env = Env.empty ~side:10. in
  check_float ~eps:1e-9 "ref loss at ref distance" 40.
    (Prop.large_scale_loss_db cfg env (P.make 0. 0.) (P.make 1. 0.))

let test_near_field_floor () =
  let cfg = { Prop.default with walls = false; shadowing_sigma_db = 0. } in
  let env = Env.empty ~side:10. in
  check_float ~eps:1e-9 "clamped below ref distance" 40.
    (Prop.large_scale_loss_db cfg env (P.make 0. 0.) (P.make 0.01 0.))

let test_two_ray_far_field () =
  (* Beyond the break distance the two-ray model decays ~40 dB/decade. *)
  let cfg =
    { Prop.free_space_config with Prop.model = Prop.Two_ray { tx_height = 1.; rx_height = 1. } }
  in
  let env = Env.empty ~side:1e6 in
  let l1 = Prop.large_scale_loss_db cfg env (P.make 0. 0.) (P.make 1000. 0.) in
  let l2 = Prop.large_scale_loss_db cfg env (P.make 0. 0.) (P.make 10000. 0.) in
  check_float ~eps:1.5 "40 dB per decade" 40. (l2 -. l1)

let test_walls_charged () =
  let e =
    Env.create ~side:10.
      [ { Env.segment = S.make (P.make 5. 0.) (P.make 5. 10.); material = Mat.metal } ]
  in
  let cfg = { Prop.default with shadowing_sigma_db = 0. } in
  let open_loss = Prop.large_scale_loss_db { cfg with Prop.walls = false } e
      (P.make 1. 5.) (P.make 9. 5.) in
  let wall_loss = Prop.large_scale_loss_db cfg e (P.make 1. 5.) (P.make 9. 5.) in
  check_float ~eps:1e-9 "metal adds 26 dB" 26. (wall_loss -. open_loss)

let test_fading_multiplier_mean () =
  let g = rng 3 in
  let xs = Array.init 20000 (fun _ -> Prop.fading_multiplier Prop.Rayleigh g) in
  check_float ~eps:0.05 "rayleigh mean 1" 1. (Core.Prelude.Stats.mean xs);
  let ys = Array.init 20000 (fun _ -> Prop.fading_multiplier (Prop.Rician 5.) g) in
  check_float ~eps:0.05 "rician mean 1" 1. (Core.Prelude.Stats.mean ys)

let test_rician_concentrates () =
  let g = rng 5 in
  let sd k =
    Core.Prelude.Stats.stddev
      (Array.init 5000 (fun _ -> Prop.fading_multiplier (Prop.Rician k) g))
  in
  check_true "higher K, less variance" (sd 20. < sd 0.5)

let test_loss_decay_inverse () =
  check_float ~eps:1e-9 "round trip" 73.2
    (Prop.decay_to_loss (Prop.loss_to_decay 73.2))

(* -------------------------------------------------------------- Measure *)

let test_decay_space_deterministic () =
  let env = Env.office ~rooms_x:2 ~rooms_y:1 ~room_size:5. Mat.drywall in
  let nodes = Node.of_points (Core.Decay.Spaces.random_points (rng 7) ~n:6 ~side:9.) in
  let d1 = Meas.decay_space ~seed:42 env nodes in
  let d2 = Meas.decay_space ~seed:42 env nodes in
  check_true "same seed, same space"
    (D.matrix d1 = D.matrix d2);
  let d3 = Meas.decay_space ~seed:43 env nodes in
  check_false "different seed differs" (D.matrix d1 = D.matrix d3)

let bit_symmetric d =
  let n = D.n d and ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Int64.bits_of_float (D.decay d i j) <> Int64.bits_of_float (D.decay d j i)
      then ok := false
    done
  done;
  !ok

(* Isotropic nodes and no fading: every term is symmetric, with or
   without walls, so the cells are equal bit for bit. *)
let test_decay_space_symmetric_shadowing () =
  let nodes seed side =
    Node.of_points (Core.Decay.Spaces.random_points (rng seed) ~n:30 ~side)
  in
  let free = Meas.decay_space ~seed:1 (Env.empty ~side:10.) (nodes 8 9.) in
  check_true "free space" (bit_symmetric free);
  let office = Env.office ~rooms_x:3 ~rooms_y:3 ~room_size:6. Mat.drywall in
  check_true "office" (bit_symmetric (Meas.decay_space ~seed:2 office (nodes 9 17.)));
  let clutter =
    Env.random_clutter (rng 10) ~side:25. ~n_walls:30 [ Mat.concrete; Mat.metal ]
  in
  check_true "clutter" (bit_symmetric (Meas.decay_space ~seed:3 clutter (nodes 11 24.)))

(* Random office, clutter and corridor deployments, with shadowing on or
   off, Rayleigh fading, sector antennas on all or half of the nodes:
   every cell equals the per-ordered-pair reference bit for bit (equal
   digests), at jobs 1 and at jobs 4. *)
let prop_decay_space_matches_reference =
  let sector = Ant.sector ~beamwidth:1.2 ~gain_db:8. ~back_db:(-12.) in
  let build (seed, kind, n, variant) =
    let g = rng seed in
    let env, side =
      match kind with
      | 0 -> (Env.office ~rooms_x:3 ~rooms_y:3 ~room_size:6. Mat.drywall, 17.)
      | 1 -> (Env.random_clutter g ~side:25. ~n_walls:30 [ Mat.concrete; Mat.metal ], 24.)
      | _ -> (Env.corridor ~rooms:5 ~room_size:5. ~corridor_width:2. Mat.brick, 24.)
    in
    let pts = Core.Decay.Spaces.random_points g ~n ~side in
    let nodes =
      match variant with
      | 2 -> Node.random_oriented g sector pts
      | 3 ->
          let directed = Node.random_oriented g sector pts in
          Array.mapi (fun i nd -> if i mod 2 = 0 then nd else Node.make nd.Node.pos) directed
      | _ -> Node.of_points pts
    in
    let config =
      { Prop.default with
        Prop.fading = (if variant mod 2 = 1 then Prop.Rayleigh else Prop.No_fading);
        shadowing_sigma_db = (if variant = 4 then 0. else 6.) }
    in
    (env, nodes, config)
  in
  qcheck ~count:60 "decay space = per-pair reference, jobs 1 and 4"
    QCheck.(quad small_nat (int_range 0 2) (int_range 2 40) (int_range 0 4))
    (fun ((seed, _, _, _) as c) ->
      let env, nodes, config = build c in
      let at jobs =
        let saved = Core.Prelude.Parallel.default_jobs () in
        Core.Prelude.Parallel.set_default_jobs jobs;
        Fun.protect
          ~finally:(fun () -> Core.Prelude.Parallel.set_default_jobs saved)
          (fun () -> D.digest (Meas.decay_space ~seed ~config env nodes))
      in
      let reference = D.digest (Naive_ref.decay_space ~seed ~config env nodes) in
      String.equal (at 1) reference && String.equal (at 4) reference)

let test_decay_space_free_space_geo () =
  (* Free-space config on isotropic nodes reproduces d^2 geometry exactly
     (up to the constant). *)
  let env = Env.empty ~side:100. in
  let pts = Core.Decay.Spaces.random_points (rng 9) ~n:8 ~side:50. in
  let nodes = Node.of_points pts in
  let d = Meas.decay_space ~config:Prop.free_space_config env nodes in
  check_float ~eps:2e-3 "zeta = 2 in free space" 2.
    (Core.Decay.Metricity.zeta d)

let test_anisotropic_reciprocity () =
  (* With the same pattern used for transmit and receive, the channel is
     reciprocal: anisotropy changes decays but keeps them symmetric. *)
  let env = Env.empty ~side:20. in
  let pts = [ P.make 1. 1.; P.make 10. 1.; P.make 5. 8. ] in
  let ant = Ant.sector ~beamwidth:1. ~gain_db:8. ~back_db:(-15.) in
  let nodes = Node.random_oriented (rng 10) ant pts in
  let cfg = { Prop.default with Prop.shadowing_sigma_db = 0.; walls = false } in
  let d = Meas.decay_space ~config:cfg env nodes in
  check_true "reciprocal despite anisotropy" (D.is_symmetric d);
  (* But anisotropy does break the pure distance-decay relation. *)
  let iso = Meas.decay_space ~config:cfg env (Node.of_points pts) in
  check_false "anisotropy changes decays" (D.matrix d = D.matrix iso)

let test_fading_breaks_symmetry () =
  let env = Env.empty ~side:20. in
  let pts = Core.Decay.Spaces.random_points (rng 20) ~n:5 ~side:15. in
  let cfg =
    { Prop.default with Prop.shadowing_sigma_db = 0.; walls = false;
      fading = Prop.Rayleigh }
  in
  let d = Meas.decay_space ~seed:4 ~config:cfg env (Node.of_points pts) in
  check_false "per-direction fading is asymmetric" (D.is_symmetric d)

let test_measured_quantization () =
  let env = Env.empty ~side:20. in
  let nodes = Node.of_points (Core.Decay.Spaces.random_points (rng 11) ~n:5 ~side:15.) in
  let truth = Meas.decay_space ~seed:2 env nodes in
  let meas = Meas.measured_decay_space ~tx_power_dbm:0. truth in
  (* Every measured loss is within half a quantization step of the truth. *)
  let ok = ref true in
  for i = 0 to 4 do
    for j = 0 to 4 do
      if i <> j then begin
        let lt = Prop.decay_to_loss (D.decay truth i j) in
        let lm = Prop.decay_to_loss (D.decay meas i j) in
        if lt < 95. && Float.abs (lt -. lm) > 0.5 +. 1e-9 then ok := false
      end
    done
  done;
  check_true "quantization bounded by half step" !ok

let test_measured_censoring () =
  let truth =
    D.of_matrix [| [| 0.; 1e13 |]; [| 1e13; 0. |] |]
  in
  let meas = Meas.measured_decay_space ~tx_power_dbm:0. ~noise_floor_dbm:(-95.) truth in
  check_float ~eps:1e-6 "censored at the floor" 95.
    (Prop.decay_to_loss (D.decay meas 0 1))

let test_prr_step_without_fading () =
  let g = rng 12 in
  check_float "above threshold" 1.
    (Meas.prr g ~beta:2. ~mean_sinr:3. ~fading:Prop.No_fading);
  check_float "below threshold" 0.
    (Meas.prr g ~beta:2. ~mean_sinr:1. ~fading:Prop.No_fading)

let test_prr_rejects_no_samples () =
  List.iter
    (fun (samples, fading) ->
      Alcotest.check_raises
        (Printf.sprintf "samples %d" samples)
        (Invalid_argument "Measure.prr: samples must be at least 1")
        (fun () -> ignore (Meas.prr ~samples (rng 1) ~beta:1. ~mean_sinr:2. ~fading)))
    [ (0, Prop.Rayleigh); (-5, Prop.Rayleigh); (0, Prop.No_fading) ]

let test_prr_smooth_with_rayleigh () =
  let g = rng 13 in
  (* Rayleigh: PRR = exp(-beta/mean). *)
  let p = Meas.prr ~samples:20000 g ~beta:1. ~mean_sinr:2. ~fading:Prop.Rayleigh in
  check_float ~eps:0.02 "matches exp(-1/2)" (exp (-0.5)) p;
  let hi = Meas.prr ~samples:5000 g ~beta:1. ~mean_sinr:20. ~fading:Prop.Rayleigh in
  let lo = Meas.prr ~samples:5000 g ~beta:1. ~mean_sinr:0.1 ~fading:Prop.Rayleigh in
  check_true "S-curve orientation" (hi > 0.9 && lo < 0.1)

let test_distance_correlation_free_space () =
  let env = Env.empty ~side:50. in
  let nodes = Node.of_points (Core.Decay.Spaces.random_points (rng 14) ~n:10 ~side:40.) in
  let d = Meas.decay_space ~config:Prop.free_space_config env nodes in
  check_float ~eps:1e-6 "perfect rank correlation in free space" 1.
    (Meas.distance_decay_correlation env nodes d)

let test_clutter_lowers_correlation () =
  let pts = Core.Decay.Spaces.random_points (rng 15) ~n:12 ~side:18. in
  let nodes = Node.of_points pts in
  let free = Env.empty ~side:20. in
  let cluttered =
    Env.random_clutter (rng 16) ~side:20. ~n_walls:40 [ Mat.metal; Mat.concrete ]
  in
  let cfg = { Prop.default with Prop.shadowing_sigma_db = 8. } in
  let d_free =
    Meas.decay_space ~config:{ cfg with Prop.walls = false; shadowing_sigma_db = 0. }
      free nodes
  in
  let d_clut = Meas.decay_space ~seed:3 ~config:cfg cluttered nodes in
  let c_free = Meas.distance_decay_correlation free nodes d_free in
  let c_clut = Meas.distance_decay_correlation cluttered nodes d_clut in
  check_true "correlation drops with clutter" (c_clut < c_free -. 0.05)

let prop_radio_spaces_are_valid =
  qcheck ~count:20 "simulated decay spaces validate" QCheck.small_int
    (fun seed ->
      let env = Env.random_clutter (rng seed) ~side:15. ~n_walls:8 [ Mat.brick ] in
      let nodes =
        Node.of_points (Core.Decay.Spaces.random_points (rng (seed + 1)) ~n:5 ~side:14.)
      in
      let d = Meas.decay_space ~seed env nodes in
      D.n d = 5 && D.min_decay d > 0.)

let suite =
  [
    ( "radio.material",
      [ case "ordering" test_material_ordering; case "custom" test_material_custom ] );
    ( "radio.environment",
      [
        case "empty" test_empty_environment;
        case "wall loss accumulates" test_wall_loss_accumulates;
        case "office structure" test_office_structure;
        case "office outer wall" test_office_outer_solid;
        case "corridor builds" test_corridor_builds;
        case "random clutter count" test_random_clutter_count;
        case "clutter needs materials" test_random_clutter_requires_materials;
        prop_wall_loss_symmetric;
        case "wall loss allocates only its result"
          test_wall_loss_allocates_only_its_result;
      ] );
    ( "radio.antenna",
      [
        case "isotropic" test_isotropic;
        case "sector" test_sector;
        case "cardioid" test_cardioid;
        case "angle wrapping" test_angle_wrapping;
      ] );
    ( "radio.propagation",
      [
        case "free space slope" test_free_space_slope;
        case "log distance slope" test_log_distance_slope;
        case "reference loss" test_log_distance_reference;
        case "near field floor" test_near_field_floor;
        case "two-ray far field" test_two_ray_far_field;
        case "walls charged" test_walls_charged;
        case "fading mean 1" test_fading_multiplier_mean;
        case "rician concentration" test_rician_concentrates;
        case "loss/decay inverse" test_loss_decay_inverse;
      ] );
    ( "radio.measure",
      [
        case "deterministic" test_decay_space_deterministic;
        case "symmetric shadowing" test_decay_space_symmetric_shadowing;
        prop_decay_space_matches_reference;
        case "free space is geo" test_decay_space_free_space_geo;
        case "antenna reciprocity" test_anisotropic_reciprocity;
        case "fading asymmetry" test_fading_breaks_symmetry;
        case "rssi quantization" test_measured_quantization;
        case "noise-floor censoring" test_measured_censoring;
        case "prr step" test_prr_step_without_fading;
        case "prr rejects samples < 1" test_prr_rejects_no_samples;
        case "prr rayleigh s-curve" test_prr_smooth_with_rayleigh;
        case "free-space correlation 1" test_distance_correlation_free_space;
        case "clutter kills correlation" test_clutter_lowers_correlation;
        prop_radio_spaces_are_valid;
      ] );
  ]
