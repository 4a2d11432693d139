module Rng = Bg_prelude.Rng

(* Freeze per-pair randomness: derive a generator from the seed and the
   pair.  Unordered keys give symmetric draws (shadowing); ordered keys give
   direction-specific draws (fading). *)
let pair_rng ~seed ~ordered i j =
  let a, b = if ordered || i <= j then (i, j) else (j, i) in
  Rng.create ((seed * 1_000_003) + (a * 7919) + b)

(* The loss of [i -> j] is its symmetric part (model, walls, shadowing:
   the wall test is exact, so [j -> i] gives the same bits) minus its
   direction parts (fading keyed on the ordered pair, then each end's
   antenna gain), in that order.  So the symmetric part is computed once
   per unordered pair, and when nothing directional follows, so is
   [10 **].  An isotropic gain is [0.] and [x -. 0. = x], so skipping it
   changes no bit.  Rows go to the pool in interleaved stripes (row [i]
   holds the [n - 1 - i] pairs right of the diagonal), and every draw is
   keyed on its pair, so the cells do not depend on the job count. *)
let decay_space ?(seed = 0) ?(config = Propagation.default) ?(name = "radio")
    env nodes =
  let module Par = Bg_prelude.Parallel in
  let n = Array.length nodes in
  let flat = Bigarray.Array1.create Float64 C_layout (n * n) in
  let sigma = config.Propagation.shadowing_sigma_db in
  let fading = config.Propagation.fading in
  let iso = Array.map (fun nd -> Antenna.is_isotropic nd.Node.antenna) nodes in
  let symmetric = fading = Propagation.No_fading && Array.for_all Fun.id iso in
  let directed i j loss =
    let loss =
      match fading with
      | Propagation.No_fading -> loss
      | f ->
          let rng = pair_rng ~seed:(seed + 17) ~ordered:true i j in
          loss
          -. (10. *. log10 (Float.max 1e-12 (Propagation.fading_multiplier f rng)))
    in
    let ni = nodes.(i) and nj = nodes.(j) in
    let loss = if iso.(i) then loss else loss -. Node.gain_towards_db ni nj.Node.pos in
    let loss = if iso.(j) then loss else loss -. Node.gain_towards_db nj ni.Node.pos in
    Propagation.loss_to_decay loss
  in
  let row i =
    let pi = nodes.(i).Node.pos in
    flat.{(i * n) + i} <- 0.;
    for j = i + 1 to n - 1 do
      let loss = Propagation.large_scale_loss_db config env pi nodes.(j).Node.pos in
      let loss =
        if sigma > 0. then
          loss +. Rng.gaussian ~sigma (pair_rng ~seed ~ordered:false i j)
        else loss
      in
      if symmetric then begin
        let f = Propagation.loss_to_decay loss in
        flat.{(i * n) + j} <- f;
        flat.{(j * n) + i} <- f
      end
      else begin
        flat.{(i * n) + j} <- directed i j loss;
        flat.{(j * n) + i} <- directed j i loss
      end
    done
  in
  Par.map_reduce_stripes ~jobs:(Par.default_jobs ()) ~units:n ~neutral:()
    ~combine:(fun () () -> ())
    ~map:(fun ~stripes s ->
      let i = ref s in
      while !i < n do
        row !i;
        i := !i + stripes
      done);
  Bg_decay.Decay_space.of_bigarray ~name n flat

let rssi_dbm ~tx_power_dbm ~loss_db = tx_power_dbm -. loss_db

let measured_decay_space ?(quantization_db = 1.) ?(noise_floor_dbm = -95.)
    ~tx_power_dbm space =
  Bg_decay.Decay_space.map
    (fun _ _ f ->
      let loss = Propagation.decay_to_loss f in
      let rssi = rssi_dbm ~tx_power_dbm ~loss_db:loss in
      (* Censor below the noise floor, then quantize. *)
      let rssi = Float.max rssi noise_floor_dbm in
      let rssi = Float.round (rssi /. quantization_db) *. quantization_db in
      Propagation.loss_to_decay (tx_power_dbm -. rssi))
    space

let prr ?(samples = 2000) rng ~beta ~mean_sinr ~fading =
  if beta <= 0. then invalid_arg "Measure.prr: beta must be positive";
  if samples < 1 then invalid_arg "Measure.prr: samples must be at least 1";
  match fading with
  | Propagation.No_fading -> if mean_sinr >= beta then 1. else 0.
  | f ->
      let ok = ref 0 in
      for _ = 1 to samples do
        let m = Propagation.fading_multiplier f rng in
        if mean_sinr *. m >= beta then incr ok
      done;
      float_of_int !ok /. float_of_int samples

let distance_decay_correlation _env nodes space =
  let n = Array.length nodes in
  let dists = ref [] and decays = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        dists :=
          Bg_geom.Point.dist nodes.(i).Node.pos nodes.(j).Node.pos :: !dists;
        decays := Bg_decay.Decay_space.decay space i j :: !decays
      end
    done
  done;
  Bg_prelude.Stats.spearman (Array.of_list !dists) (Array.of_list !decays)
