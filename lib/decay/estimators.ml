module Rng = Bg_prelude.Rng
module Stats = Bg_prelude.Stats
module Obs = Bg_prelude.Obs

type oracle = { n : int; name : string; decay : int -> int -> float }

let oracle ?(name = "oracle") ~n decay =
  if n < 0 then invalid_arg "Estimators.oracle: negative size";
  { n; name; decay }

let of_space d =
  {
    n = Decay_space.n d;
    name = Decay_space.name d;
    decay = (fun i j -> Decay_space.unsafe_get d i j);
  }

let of_points ?(name = "plane") ~alpha points =
  if alpha <= 0. then invalid_arg "Estimators.of_points: alpha must be positive";
  let pts = Array.of_list points in
  {
    n = Array.length pts;
    name;
    decay =
      (fun i j -> Bg_geom.Point.dist pts.(i) pts.(j) ** alpha);
  }

type estimate = {
  point : float;
  lo : float;
  hi : float;
  confidence : float;
  replicates : float array;
}

(* How far past the best replicate the upper bound reaches, in units of
   the confidence-percentile replicate deficit.  Calibrated against exact
   kernels on n <= 256 (test_estimators, experiment E24) so that
   [exact <= hi] holds at >= the stated confidence: the replicate spread
   measures how much one more batch of the same size tends to gain, and
   the true maximum sits within a few such gains of the best batch. *)
let spread_inflation = 3.0

(* A small relative pad covering the case where all replicates agree yet
   none captured the exact extremum: the spread is then 0 and the
   interval would otherwise degenerate to a point. *)
let agreement_pad = 0.02

let interval ~confidence reps =
  if Array.length reps = 0 then
    invalid_arg "Estimators: need at least one replicate";
  if not (confidence > 0. && confidence < 1.) then
    invalid_arg "Estimators: confidence must be in (0, 1)";
  let point = Array.fold_left Float.max neg_infinity reps in
  let deficits = Array.map (fun b -> point -. b) reps in
  let q = Stats.percentile deficits (100. *. confidence) in
  let hi = point +. (spread_inflation *. q) +. (agreement_pad *. point) in
  { point; lo = point; hi; confidence; replicates = reps }

let pp_estimate fmt e =
  Format.fprintf fmt "%.4f in [%.4f, %.4f] @@ %g%% (%d replicates)" e.point
    e.lo e.hi
    (100. *. e.confidence)
    (Array.length e.replicates)

(* Stratified node sample: partition [0, n) into [nodes] contiguous
   strata and draw one node uniformly from each.  Distinctness is by
   construction; stratification keeps every region of the index space
   represented in every replicate (measurement campaigns commonly order
   nodes by location, so uniform-without-replacement sampling can leave
   whole regions untouched). *)
let stratified_nodes rng n nodes =
  Array.init nodes (fun s ->
      let lo = s * n / nodes and hi = (s + 1) * n / nodes in
      lo + Rng.int rng (hi - lo))

(* One draw per replicate, alternating two designs.  Index-stratified
   draws cover every region but can never co-draw two nodes sharing a
   stratum — a violation concentrated on adjacent indices would be
   invisible to them at any replicate count.  Uniform draws without
   replacement give every node subset positive probability.  Alternating
   keeps both guarantees. *)
let replicate_nodes rng n nodes rep =
  if rep mod 2 = 0 then stratified_nodes rng n nodes
  else Rng.sample rng nodes (Array.init n Fun.id)

let sub_space_of_oracle o idx =
  let k = Array.length idx in
  Decay_space.of_fn ~name:(o.name ^ "/est") k (fun i j ->
      o.decay idx.(i) idx.(j))

let check_subspace_args fname o ~nodes ~replicates =
  if nodes < 3 || nodes > o.n then
    invalid_arg (fname ^ ": need 3 <= nodes <= n");
  if replicates < 1 then invalid_arg (fname ^ ": need replicates >= 1")

(* ------------------------------------------------- zeta / phi estimators *)

(* Sub-space replicates: metricity (and phi) are monotone under induced
   sub-spaces — every triple of the sub-space is a triple of the full
   space — so each replicate is a true lower bound and so is their max. *)

let subspace_estimate kernel name ?(ctx = Ctx.default) ?(replicates = 8)
    ?(confidence = 0.9) ~nodes rng o =
  check_subspace_args name o ~nodes ~replicates;
  Obs.with_span
    ~attrs:
      [ ("n", Obs.I o.n); ("nodes", Obs.I nodes);
        ("replicates", Obs.I replicates) ]
    (name ^ "_estimate")
  @@ fun () ->
  (* Explicit loop: the rng is drawn in replicate order, so results are
     reproducible regardless of [Array.init]'s evaluation order. *)
  let reps = Array.make replicates 0. in
  for rep = 0 to replicates - 1 do
    let idx = replicate_nodes rng o.n nodes rep in
    reps.(rep) <- kernel ~ctx (sub_space_of_oracle o idx)
  done;
  interval ~confidence reps

let zeta ?ctx ?replicates ?confidence ~nodes rng o =
  subspace_estimate
    (fun ~ctx d -> Metricity.zeta ~ctx d)
    "zeta_sub" ?ctx ?replicates ?confidence ~nodes rng o

let phi ?ctx ?replicates ?confidence ~nodes rng o =
  subspace_estimate
    (fun ~ctx d -> Metricity.phi ~ctx d)
    "phi_sub" ?ctx ?replicates ?confidence ~nodes rng o

(* Stratified triple sampling: cheaper per unit of work than sub-space
   sweeps (no O(k^3) exactness), weaker per sample — the tool of choice
   when even a [nodes^3] sub-sweep is too much.  The x coordinate is
   stratified over contiguous index bands; y, z are uniform.  Every
   sampled triple's threshold is a true lower bound, so the batch maxima
   are, and the interval machinery is shared. *)
let zeta_triples ?(replicates = 8) ?(confidence = 0.9) ~samples rng o =
  if o.n < 3 then invalid_arg "Estimators.zeta_triples: need at least 3 nodes";
  if samples < replicates then
    invalid_arg "Estimators.zeta_triples: need samples >= replicates";
  if replicates < 1 then
    invalid_arg "Estimators.zeta_triples: need replicates >= 1";
  let n = o.n in
  let strata = min n 16 in
  let per_rep = samples / replicates in
  Obs.with_span
    ~attrs:
      [ ("n", Obs.I n); ("samples", Obs.I samples);
        ("replicates", Obs.I replicates) ]
    "zeta_triples_estimate"
  @@ fun () ->
  let reps = Array.make replicates 1. in
  for rep = 0 to replicates - 1 do
    let best = ref 1. in
        for s = 0 to per_rep - 1 do
          let stratum = s mod strata in
          let lo = stratum * n / strata and hi = (stratum + 1) * n / strata in
          let x = lo + Rng.int rng (hi - lo) in
          let y = ref (Rng.int rng n) in
          while !y = x do
            y := Rng.int rng n
          done;
          let z = ref (Rng.int rng n) in
          while !z = x || !z = !y do
            z := Rng.int rng n
          done;
          let fxy = o.decay x !y
          and fxz = o.decay x !z
          and fzy = o.decay !z !y in
          if fxy > fxz +. fzy then begin
            let v = Metricity.zeta_triple fxy fxz fzy in
            if v > !best then best := v
          end
    done;
    reps.(rep) <- !best
  done;
  interval ~confidence reps

(* ------------------------------------------------------ gamma estimator *)

(* Exact fading value of one listener, over the oracle.  Mirrors
   [Fading.gamma_z] (same candidate rule, same weighted-MIS search, same
   greedy fallback) without materializing any matrix: O(n) oracle probes
   for the candidate scan plus O(k^2) for the tabulated compatibility
   relation. *)
let gamma_z_oracle ~exact_limit o ~z ~r =
  let n = o.n in
  let candidates = ref [] in
  for x = n - 1 downto 0 do
    if x <> z && o.decay x z >= r && o.decay z x >= r then
      candidates := x :: !candidates
  done;
  let arr = Array.of_list !candidates in
  let k = Array.length arr in
  if k = 0 then 0.
  else begin
    let weights = Array.map (fun x -> 1. /. o.decay x z) arr in
    let compat_direct i j =
      i = j
      || (o.decay arr.(i) arr.(j) >= r && o.decay arr.(j) arr.(i) >= r)
    in
    let value =
      if k <= exact_limit then begin
        let adj = Bytes.make (k * k) '\000' in
        for i = 0 to k - 1 do
          for j = i + 1 to k - 1 do
            if compat_direct i j then begin
              Bytes.unsafe_set adj ((i * k) + j) '\001';
              Bytes.unsafe_set adj ((j * k) + i) '\001'
            end
          done
        done;
        let v, _, _ =
          Fading.weighted_mis ~weights ~compat:(fun i j ->
              i = j || Bytes.unsafe_get adj ((i * k) + j) = '\001')
        in
        v
      end
      else begin
        let order = Array.init k Fun.id in
        Array.sort (fun i j -> Float.compare weights.(j) weights.(i)) order;
        let pick = ref [] in
        Array.iter
          (fun i ->
            if List.for_all (fun j -> compat_direct i j) !pick then
              pick := i :: !pick)
          order;
        List.fold_left (fun a i -> a +. weights.(i)) 0. !pick
      end
    in
    r *. value
  end

(* Listener-sampling replicates: gamma is a maximum over listeners, so
   the exact fading value over any listener subset is a true lower
   bound. *)
let gamma ?(ctx = Ctx.default) ?(replicates = 8) ?(confidence = 0.9)
    ~listeners rng o ~r =
  if listeners < 1 || listeners > o.n then
    invalid_arg "Estimators.gamma: need 1 <= listeners <= n";
  if replicates < 1 then invalid_arg "Estimators.gamma: need replicates >= 1";
  let exact_limit =
    match ctx.Ctx.exact_limit with None -> 24 | Some k -> k
  in
  Obs.with_span
    ~attrs:
      [ ("n", Obs.I o.n); ("listeners", Obs.I listeners);
        ("replicates", Obs.I replicates) ]
    "gamma_estimate"
  @@ fun () ->
  let reps = Array.make replicates 0. in
  for rep = 0 to replicates - 1 do
    let zs = stratified_nodes rng o.n listeners in
    reps.(rep) <-
      Array.fold_left
        (fun best z -> Float.max best (gamma_z_oracle ~exact_limit o ~z ~r))
        0. zs
  done;
  interval ~confidence reps
