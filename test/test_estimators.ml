(* The estimator tier (Core.Decay.Estimators) is cross-validated against
   the exact kernels where both can run: point estimates are certified
   lower bounds (hard invariant, every trial), confidence intervals
   contain the exact value at no less than nominal-minus-5% over a fixed
   deterministic trial set, and every estimate is bit-reproducible from
   its seed at every job count. *)

open Testutil
module D = Core.Decay.Decay_space
module Met = Core.Decay.Metricity
module Fad = Core.Decay.Fading
module Sp = Core.Decay.Spaces
module Est = Core.Decay.Estimators
module Ctx = Core.Decay.Ctx
module Rng = Core.Prelude.Rng

(* A deterministic zoo of spaces the coverage claim is audited on: random
   symmetric/asymmetric matrices and geometric spaces, n <= 64 so the
   exact kernel stays cheap across ~60 trials. *)
let trial_space i =
  match i mod 3 with
  | 0 -> random_space ~n:(16 + (8 * (i mod 5))) (1000 + i)
  | 1 -> random_asym_space ~n:(16 + (8 * (i mod 5))) (2000 + i)
  | _ ->
      D.of_points ~alpha:3.
        (Sp.random_points (Rng.create (3000 + i)) ~n:(24 + (4 * (i mod 6)))
           ~side:30.)

let trials = 60
let confidence = 0.9

(* nominal - 5%: the acceptance bar from the issue.  The trial set and
   seeds are fixed, so this is a deterministic regression test, not a
   flaky statistical one — if calibration drifts, it fails reproducibly. *)
let required = int_of_float (ceil (float_of_int (trials) *. (confidence -. 0.05)))

let test_zeta_ci_coverage () =
  let covered = ref 0 in
  for i = 0 to trials - 1 do
    let d = trial_space i in
    let exact = Met.zeta d in
    let e =
      Est.zeta ~confidence ~nodes:(D.n d / 2) (rng (100 + i))
        (Est.of_space d)
    in
    check_true "point is a lower bound" (e.Est.point <= exact +. 1e-9);
    check_true "lo = point" (e.Est.lo = e.Est.point);
    check_true "hi >= point" (e.Est.hi >= e.Est.point);
    if exact <= e.Est.hi then incr covered
  done;
  check_true
    (Printf.sprintf "zeta CI coverage %d/%d >= %d" !covered trials required)
    (!covered >= required)

let test_phi_ci_coverage () =
  let covered = ref 0 in
  for i = 0 to trials - 1 do
    let d = trial_space i in
    let exact = Met.phi d in
    let e =
      Est.phi ~confidence ~nodes:(D.n d / 2) (rng (200 + i)) (Est.of_space d)
    in
    check_true "point is a lower bound" (e.Est.point <= exact +. 1e-9);
    if exact <= e.Est.hi then incr covered
  done;
  check_true
    (Printf.sprintf "phi CI coverage %d/%d >= %d" !covered trials required)
    (!covered >= required)

let test_gamma_ci_coverage () =
  let covered = ref 0 and n_trials = 20 in
  let req = int_of_float (ceil (float_of_int n_trials *. (confidence -. 0.05))) in
  for i = 0 to n_trials - 1 do
    let d = trial_space i in
    let r = D.min_decay d *. 2. in
    let exact = Fad.gamma d ~r in
    let e =
      Est.gamma ~confidence ~listeners:(D.n d / 2) (rng (300 + i))
        (Est.of_space d) ~r
    in
    check_true "point is a lower bound" (e.Est.point <= exact +. 1e-9);
    if exact <= e.Est.hi then incr covered
  done;
  check_true
    (Printf.sprintf "gamma CI coverage %d/%d >= %d" !covered n_trials req)
    (!covered >= req)

let prop_zeta_triples_lower_bound =
  qcheck ~count:30 "zeta_triples point never exceeds exact" QCheck.small_int
    (fun seed ->
      let d = random_asym_space ~n:12 seed in
      let e = Est.zeta_triples ~samples:500 (rng (seed + 7)) (Est.of_space d) in
      e.Est.point <= Met.zeta d +. 1e-9
      && e.Est.point >= 1. && e.Est.hi >= e.Est.point)

(* ---------------------------------------------- determinism across jobs *)

let prop_seed_determinism_across_jobs =
  qcheck ~count:15
    "estimates are bit-identical from a seed at every job count"
    QCheck.small_int
    (fun seed ->
      let d = random_asym_space ~n:20 seed in
      let o = Est.of_space d in
      let at jobs =
        let ctx = Ctx.make ~jobs () in
        ( Est.zeta ~ctx ~nodes:10 (rng (seed + 11)) o,
          Est.phi ~ctx ~nodes:8 (rng (seed + 13)) o,
          Est.gamma ~ctx ~listeners:6 (rng (seed + 17)) o
            ~r:(D.min_decay d *. 1.5),
          Est.zeta_triples ~samples:200 (rng (seed + 19)) o )
      in
      at 1 = at 4)

let test_rerun_identical () =
  (* Same seed, same call: the full estimate record reproduces, including
     the replicate array. *)
  let d = random_space ~n:24 99 in
  let o = Est.of_space d in
  let a = Est.zeta ~nodes:12 (rng 5) o and b = Est.zeta ~nodes:12 (rng 5) o in
  check_true "identical records" (a = b)

(* ------------------------------------------------------- oracle plumbing *)

let test_of_points_matches_materialized () =
  let pts = Sp.random_points (Rng.create 41) ~n:32 ~side:25. in
  let d = D.of_points ~alpha:3. pts in
  let o = Est.of_points ~alpha:3. pts in
  let a = Est.zeta ~nodes:16 (rng 6) o
  and b = Est.zeta ~nodes:16 (rng 6) (Est.of_space d) in
  (* of_points recomputes dist^alpha per probe; of_space reads the
     tabulated matrix built by the same formula — same floats, bit-equal
     replicates. *)
  check_true "oracle = materialized space" (a = b)

let test_planted_violation_found () =
  (* A severe violation on adjacent indices: invisible to purely
     index-stratified draws (two of the three nodes share a stratum), so
     this exercises the alternating uniform draws. *)
  let base = Sp.three_point ~q:1e6 in
  let n = 16 in
  let d =
    D.of_fn ~name:"hidden" n (fun i j ->
        if i < 3 && j < 3 then D.decay base i j else 1e6)
  in
  let e = Est.zeta ~replicates:40 ~nodes:6 (rng 51) (Est.of_space d) in
  check_true "planted triple found" (e.Est.point > 5.)

let test_validation () =
  let d = random_space ~n:6 1 in
  let o = Est.of_space d in
  Alcotest.check_raises "nodes too small"
    (Invalid_argument "zeta_sub: need 3 <= nodes <= n") (fun () ->
      ignore (Est.zeta ~nodes:2 (rng 1) o));
  Alcotest.check_raises "nodes beyond n"
    (Invalid_argument "phi_sub: need 3 <= nodes <= n") (fun () ->
      ignore (Est.phi ~nodes:7 (rng 1) o));
  Alcotest.check_raises "listeners range"
    (Invalid_argument "Estimators.gamma: need 1 <= listeners <= n")
    (fun () -> ignore (Est.gamma ~listeners:0 (rng 1) o ~r:1.));
  Alcotest.check_raises "samples vs replicates"
    (Invalid_argument "Estimators.zeta_triples: need samples >= replicates")
    (fun () -> ignore (Est.zeta_triples ~samples:3 ~replicates:8 (rng 1) o));
  Alcotest.check_raises "confidence range"
    (Invalid_argument "Estimators: confidence must be in (0, 1)") (fun () ->
      ignore (Est.zeta ~confidence:1. ~nodes:3 (rng 1) o))

let test_gamma_matches_exact_on_full_listener_set () =
  (* With every listener sampled (one stratum per node) and the same
     exact_limit, a replicate is exactly Fading.gamma. *)
  let d = random_asym_space ~n:10 7 in
  let r = D.min_decay d *. 1.5 in
  let exact = Fad.gamma d ~r in
  let e = Est.gamma ~replicates:1 ~listeners:10 (rng 8) (Est.of_space d) ~r in
  check_float ~eps:0. "full listener set = exact gamma" exact e.Est.point

let suite =
  [
    ( "estimators",
      [
        case "zeta CI coverage on the trial zoo" test_zeta_ci_coverage;
        case "phi CI coverage" test_phi_ci_coverage;
        case "gamma CI coverage" test_gamma_ci_coverage;
        prop_zeta_triples_lower_bound;
        prop_seed_determinism_across_jobs;
        case "same-seed rerun is bit-identical" test_rerun_identical;
        case "point oracle = materialized space"
          test_of_points_matches_materialized;
        case "planted adjacent violation found" test_planted_violation_found;
        case "argument validation" test_validation;
        case "full listener set = exact gamma"
          test_gamma_matches_exact_on_full_listener_set;
      ] );
  ]
