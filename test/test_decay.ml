open Testutil
module D = Core.Decay.Decay_space
module Met = Core.Decay.Metricity
module QM = Core.Decay.Quasi_metric
module Ball = Core.Decay.Ball
module Dim = Core.Decay.Dimension
module Fad = Core.Decay.Fading
module Sp = Core.Decay.Spaces
module M = Core.Geom.Metric
module P = Core.Geom.Point
module Rng = Core.Prelude.Rng
module Ctx = Core.Decay.Ctx
module Est = Core.Decay.Estimators

let seq_of jobs = Ctx.make ~jobs ()
let el12 jobs = Ctx.make ~jobs ~exact_limit:12 ()

(* ---------------------------------------------------------- Decay_space *)

let test_of_matrix_valid () =
  let d = D.of_matrix [| [| 0.; 2. |]; [| 3.; 0. |] |] in
  check_float "f(0,1)" 2. (D.decay d 0 1);
  check_float "f(1,0)" 3. (D.decay d 1 0);
  check_float "gain" 0.5 (D.gain d 0 1)

(* Validation failures carry the offending cell's address and value. *)
let test_of_matrix_rejects_nonsquare () =
  Alcotest.check_raises "not square"
    (Invalid_argument
       "decay: row 0 has 2 cells, expected 1 (the square matrix has 1 rows)")
    (fun () -> ignore (D.of_matrix [| [| 0.; 1. |] |]))

let test_of_matrix_rejects_diagonal () =
  Alcotest.check_raises "diagonal"
    (Invalid_argument "decay: nonzero diagonal decay 1 at (0,0)") (fun () ->
      ignore (D.of_matrix [| [| 1. |] |]))

let test_of_matrix_rejects_zero_offdiag () =
  Alcotest.check_raises "zero off-diagonal"
    (Invalid_argument
       "decay: nonpositive decay 0 at (0,1) between distinct nodes")
    (fun () -> ignore (D.of_matrix [| [| 0.; 0. |]; [| 1.; 0. |] |]))

let test_of_matrix_rejects_nonfinite () =
  Alcotest.check_raises "inf"
    (Invalid_argument "decay: non-finite decay inf at (0,1)") (fun () ->
      ignore (D.of_matrix [| [| 0.; infinity |]; [| 1.; 0. |] |]))

let test_matrix_defensive_copy () =
  let m = [| [| 0.; 2. |]; [| 3.; 0. |] |] in
  let d = D.of_matrix m in
  m.(0).(1) <- 99.;
  check_float "input mutation isolated" 2. (D.decay d 0 1);
  let out = D.matrix d in
  out.(1).(0) <- 99.;
  check_float "output mutation isolated" 3. (D.decay d 1 0)

let test_symmetry_checks () =
  check_true "symmetric" (D.is_symmetric (random_space 3));
  check_false "asymmetric"
    (D.is_symmetric (D.of_matrix [| [| 0.; 1. |]; [| 2.; 0. |] |]))

let test_min_max_decay () =
  let d = D.of_matrix [| [| 0.; 2. |]; [| 5.; 0. |] |] in
  check_float "min" 2. (D.min_decay d);
  check_float "max" 5. (D.max_decay d)

let test_scale_pow () =
  let d = D.of_matrix [| [| 0.; 4. |]; [| 9.; 0. |] |] in
  check_float "scaled" 8. (D.decay (D.scale 2. d) 0 1);
  check_float "pow" 2. (D.decay (D.pow 0.5 d) 0 1);
  check_float "pow other entry" 3. (D.decay (D.pow 0.5 d) 1 0)

(* A transform that leaves the finite positive floats is rejected with
   the offending cell's address, as [of_matrix] would reject the cells. *)
let test_scale_pow_validate () =
  let d =
    D.of_matrix [| [| 0.; 100.; 2. |]; [| 100.; 0.; 1e-30 |]; [| 2.; 1e-30; 0. |] |]
  in
  Alcotest.check_raises "pow overflows to inf"
    (Invalid_argument "decay: non-finite decay inf at (0,1)") (fun () ->
      ignore (D.pow 200. d));
  Alcotest.check_raises "scale underflows to 0"
    (Invalid_argument
       "decay: nonpositive decay 0 at (1,2) between distinct nodes")
    (fun () -> ignore (D.scale 1e-300 d));
  Alcotest.check_raises "scale overflows to inf"
    (Invalid_argument "decay: non-finite decay inf at (0,1)") (fun () ->
      ignore (D.scale 1e307 d))

let test_symmetrize () =
  let d = D.symmetrize (D.of_matrix [| [| 0.; 1. |]; [| 7.; 0. |] |]) in
  check_float "takes max" 7. (D.decay d 0 1);
  check_true "symmetric" (D.is_symmetric d)

let test_sub_space () =
  let d = random_space ~n:6 1 in
  let s = D.sub_space d [| 4; 1; 0 |] in
  check_int "size" 3 (D.n s);
  check_float "entries permuted" (D.decay d 4 1) (D.decay s 0 1);
  check_float "entries permuted 2" (D.decay d 0 4) (D.decay s 2 0)

let test_map () =
  let d = D.of_matrix [| [| 0.; 2. |]; [| 3.; 0. |] |] in
  let e = D.map (fun _ _ f -> f +. 1.) d in
  check_float "mapped" 3. (D.decay e 0 1)

let test_of_metric_embeds_alpha () =
  let m = M.line [ 0.; 1.; 3. ] in
  let d = D.of_metric ~alpha:2. m in
  check_float "squared distance" 9. (D.decay d 0 2);
  check_float "squared distance 2" 4. (D.decay d 1 2)

let prop_of_points_is_of_metric =
  qcheck ~count:60 "of_points cells = of_metric over Metric.of_points"
    QCheck.(triple (int_range 0 10_000) (int_range 0 40) (float_range 0.5 6.))
    (fun (seed, n, alpha) ->
      let pts = Sp.random_points (rng seed) ~n ~side:30. in
      let d = D.of_points ~alpha pts in
      D.exactly_symmetric d
      && D.digest d = D.digest (D.of_metric ~alpha (M.of_points pts)))

let test_of_points_rejects_coincident () =
  let p = P.make 1. 2. and q = P.make 4. 6. in
  Alcotest.check_raises "coincident points"
    (Invalid_argument
       "plane: nonpositive decay 0 at (0,2) between distinct nodes")
    (fun () -> ignore (D.of_points ~alpha:3. [ p; q; p ]));
  Alcotest.check_raises "alpha must be positive"
    (Invalid_argument "Decay_space.of_metric: alpha must be positive")
    (fun () -> ignore (D.of_points ~alpha:0. [ p; q ]))

(* ------------------------------------------------------------ Metricity *)

let test_zeta_triple_triangle_ok () =
  check_float "already metric" 1. (Met.zeta_triple 3. 2. 2.)

let test_zeta_triple_violation () =
  (* f_xy = 16, sides 2 and 2: need 16^t <= 2 * 2^t, i.e. 2^{4t} <= 2^{t+1}:
     t <= 1/3, zeta = 3. *)
  check_float ~eps:1e-6 "exact threshold" 3. (Met.zeta_triple 16. 2. 2.)

let test_zeta_geo_equals_alpha () =
  (* Random point sets approach zeta = alpha from below (equality needs
     collinear triples), so allow a small slack... *)
  List.iter
    (fun alpha ->
      let pts = Sp.random_points (rng 5) ~n:15 ~side:10. in
      let d = D.of_points ~alpha pts in
      check_float ~eps:2e-3
        (Printf.sprintf "zeta ~ alpha = %g" alpha)
        alpha (Met.zeta d))
    [ 2.; 2.5; 4. ];
  (* ...while a collinear triple attains it exactly. *)
  let collinear = [ P.make 0. 0.; P.make 1. 0.; P.make 2. 0. ] in
  check_float ~eps:1e-6 "collinear attains alpha" 3.
    (Met.zeta (D.of_points ~alpha:3. collinear))

let test_zeta_metric_is_one () =
  let pts = Sp.random_points (rng 6) ~n:12 ~side:10. in
  let d = D.of_points ~alpha:1. pts in
  check_float ~eps:1e-6 "alpha=1 gives zeta=1" 1. (Met.zeta d)

let test_zeta_within_upper_bound () =
  let d = random_space ~n:10 7 in
  check_true "zeta <= lg(max/min)" (Met.zeta d <= Met.zeta_upper_bound d +. 1e-6)

let test_zeta_witness_attains () =
  let d = random_space ~n:8 9 in
  let w = Met.zeta_witness d in
  check_float ~eps:1e-9 "witness value is zeta" (Met.zeta d) w.Met.value;
  if w.Met.value > 1. then begin
    let fxy = D.decay d w.Met.x w.Met.y
    and fxz = D.decay d w.Met.x w.Met.z
    and fzy = D.decay d w.Met.z w.Met.y in
    check_float ~eps:1e-6 "triple reproduces value" w.Met.value
      (Met.zeta_triple fxy fxz fzy)
  end

let test_zeta_sampled_lower_bound () =
  let d = random_space ~n:10 11 in
  let e = Est.zeta_triples ~samples:2000 (rng 1) (Est.of_space d) in
  check_true "sampled <= exact" (e.Est.point <= Met.zeta d +. 1e-9)

let test_holds_at () =
  let d = random_space ~n:8 13 in
  let z = Met.zeta d in
  check_true "holds at zeta" (Naive_ref.holds_at d z);
  if z > 1.05 then
    check_false "fails below zeta" (Naive_ref.holds_at d ((z /. 2.) +. 0.4999))

let test_zeta_pow_scales () =
  (* pow e on decays multiplies zeta by e (for results >= 1). *)
  let pts = [ P.make 0. 0.; P.make 1. 0.; P.make 2. 0.; P.make 0.5 1.3 ] in
  let d = D.of_points ~alpha:2. pts in
  check_float ~eps:1e-5 "pow 1.5 gives zeta 3" (1.5 *. Met.zeta d)
    (Met.zeta (D.pow 1.5 d))

let test_phi_three_point () =
  let d = Sp.three_point ~q:1000. in
  (* max f(x,z)/(f(x,y)+f(y,z)) = 2q/(1+q) -> just under 2. *)
  check_float ~eps:1e-3 "phi just under 2" (2000. /. 1001.) (Met.phi d);
  check_true "phi_log <= 1" (Met.phi_log d <= 1.)

let test_phi_log_leq_zeta () =
  (* Section 4.2: f_xz <= 2^zeta (f_xy + f_yz), so phi <= 2^zeta. *)
  List.iter
    (fun seed ->
      let d = random_space ~n:8 seed in
      check_true "phi_log <= zeta" (Met.phi_log d <= Met.zeta d +. 1e-6))
    [ 1; 2; 3; 4; 5 ]

let test_three_point_zeta_grows () =
  let z1 = Met.zeta (Sp.three_point ~q:100.) in
  let z2 = Met.zeta (Sp.three_point ~q:1e8) in
  check_true "zeta grows with q" (z2 > z1 +. 1.);
  check_true "phi stays below 2" (Met.phi (Sp.three_point ~q:1e8) < 2.)

let test_zeta_small_spaces () =
  check_float "n=2 trivially 1" 1. (Met.zeta (D.of_matrix [| [| 0.; 5. |]; [| 5.; 0. |] |]))

(* ----------------------------------------------------------- Quasi_metric *)

let test_induce_satisfies_triangle () =
  List.iter
    (fun seed ->
      let d = random_space ~n:8 seed in
      let m, z = QM.induce d in
      check_true "zeta >= 1" (z >= 1.);
      check_true "triangle holds" (M.check_triangle ~eps:1e-6 m))
    [ 21; 22; 23 ]

let test_induce_symmetric_gives_metric () =
  let d = random_space ~n:7 31 in
  let m, _ = QM.induce d in
  check_true "metric" (M.check_symmetry m)

let test_round_trip () =
  let d = random_space ~n:6 33 in
  let m, z = QM.induce d in
  let d' = QM.round_trip ~zeta:z m in
  let ok = ref true in
  for i = 0 to 5 do
    for j = 0 to 5 do
      if i <> j && not (Core.Prelude.Numerics.feq ~eps:1e-6 (D.decay d i j) (D.decay d' i j))
      then ok := false
    done
  done;
  check_true "round trip reproduces decays" !ok

let test_distance_pointwise () =
  let d = D.of_matrix [| [| 0.; 8. |]; [| 8.; 0. |] |] in
  check_float ~eps:1e-9 "f^(1/3)" 2. (QM.distance ~zeta:3. d 0 1)

(* ----------------------------------------------------------------- Ball *)

let test_ball_members () =
  let d = Sp.uniform 5 in
  Alcotest.(check (list int)) "radius below decay: singleton" [ 2 ]
    (Ball.members d ~centre:2 ~radius:0.5);
  check_int "radius above decay: everyone" 5
    (List.length (Ball.members d ~centre:2 ~radius:1.5))

let test_is_packing () =
  let d = D.of_matrix [| [| 0.; 10.; 10. |]; [| 10.; 0.; 1. |]; [| 10.; 1.; 0. |] |] in
  check_true "far nodes pack" (Ball.is_packing d ~radius:4. [ 0; 1 ]);
  check_false "near nodes do not" (Ball.is_packing d ~radius:4. [ 1; 2 ])

let test_max_packing_exact () =
  let d = Sp.uniform 6 in
  (* Pairwise decay 1 > 2t requires t < 0.5. *)
  check_int "all pack at small radius" 6
    (List.length (Ball.max_packing d ~within:[ 0; 1; 2; 3; 4; 5 ] ~radius:0.4));
  check_int "only one at large radius" 1
    (List.length (Ball.max_packing d ~within:[ 0; 1; 2; 3; 4; 5 ] ~radius:0.6))

let test_packing_number_monotone () =
  let pts = Sp.grid_points ~rows:4 ~cols:4 ~spacing:1. in
  let d = D.of_points ~alpha:2. pts in
  let p1 =
    Ball.packing_number d ~centre:0 ~ball_radius:50. ~packing_radius:4.
  in
  let p2 =
    Ball.packing_number d ~centre:0 ~ball_radius:50. ~packing_radius:1.
  in
  check_true "finer packing is larger" (p2 >= p1);
  check_true "nonempty" (p1 >= 1)

(* ------------------------------------------------------------ Dimension *)

let test_independence_uniform () =
  check_int "uniform space: 1" 1 (Dim.independence_dimension (Sp.uniform 8))

let test_independence_welzl () =
  let w = Sp.welzl ~n:7 ~eps:0.25 in
  check_int "welzl: n+1" 8 (Dim.independence_dimension w);
  (* The big independent set is specifically w.r.t. v_{-1} (index 0). *)
  check_int "witness at v_-1" 8 (List.length (Dim.independence_wrt w ~x:0))

let test_independence_plane_bounded () =
  List.iter
    (fun seed ->
      let pts = Sp.random_points (rng seed) ~n:14 ~side:10. in
      let d = D.of_points ~alpha:2. pts in
      check_true "planar independence <= 6" (Dim.independence_dimension d <= 6))
    [ 41; 42; 43 ]

let test_independence_hexagon () =
  (* Five points at 72 degrees around a centre: strictly independent. *)
  let centre = P.make 0. 0. in
  let ring =
    List.init 5 (fun i ->
        let a = 2. *. Float.pi *. float_of_int i /. 5. in
        P.make (cos a) (sin a))
  in
  let d = D.of_points ~alpha:1. (centre :: ring) in
  check_true "pentagon independent wrt centre"
    (Dim.is_independent_wrt d ~x:0 [ 1; 2; 3; 4; 5 ])

let test_is_independent_rejects_x () =
  let d = Sp.uniform 4 in
  Alcotest.check_raises "x in set"
    (Invalid_argument "Dimension.is_independent_wrt: set contains x") (fun () ->
      ignore (Dim.is_independent_wrt d ~x:1 [ 1; 2 ]))

let test_guards_cover () =
  List.iter
    (fun seed ->
      let d = random_space ~n:9 seed in
      for x = 0 to 2 do
        let g = Dim.greedy_guards d ~x in
        check_true "guards guard" (Dim.is_guard_set d ~x g)
      done)
    [ 51; 52 ]

let test_guards_uniform_single () =
  let d = Sp.uniform 7 in
  check_int "one guard suffices" 1 (List.length (Dim.greedy_guards d ~x:3));
  check_int "max over nodes" 1 (Dim.max_guard_count d)

let test_guards_plane_at_most_six () =
  List.iter
    (fun seed ->
      let pts = Sp.random_points (rng seed) ~n:16 ~side:10. in
      let d = D.of_points ~alpha:2. pts in
      check_true "<= 6 guards on the plane" (Dim.max_guard_count d <= 6))
    [ 61; 62; 63 ]

let test_quasi_doubling_welzl () =
  check_float ~eps:0.01 "welzl doubling dim 1" 1.
    (Dim.quasi_doubling ~zeta:1. (Sp.welzl ~n:8 ~eps:0.25))

let test_assouad_decreases_with_alpha () =
  let pts = Sp.grid_points ~rows:5 ~cols:5 ~spacing:1. in
  let a2 = Dim.assouad (D.of_points ~alpha:2. pts) in
  let a4 = Dim.assouad (D.of_points ~alpha:4. pts) in
  check_true "A ~ 2/alpha decreasing" (a4 < a2);
  check_true "alpha=4 grid is a fading space" (a4 < 1.)

let test_packing_growth_positive () =
  let d = random_space ~n:8 71 in
  check_true "g(2) >= 1" (Dim.packing_growth d ~q:2. >= 1)

let test_packing_growth_rejects_q () =
  let d = Sp.uniform 3 in
  Alcotest.check_raises "q <= 1"
    (Invalid_argument "Dimension.packing_growth: q must exceed 1") (fun () ->
      ignore (Dim.packing_growth d ~q:1.))

(* ------------------------------------------------ Dimension vs reference *)

(* The estimators must be bit-identical to the verbatim list-and-Hashtbl
   code in [Naive_ref]: the member-count skips only drop balls that cannot
   beat the running maximum, and the bitset solvers replay the list
   search. *)

module R = Core.Radio

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A geometric (alpha = 3), office or clutter space on [n] random points:
   the three kinds perfbench's offline workload analyzes. *)
let dimension_space kind ~n seed =
  let g = rng seed in
  match kind with
  | 0 -> D.of_points ~alpha:3. (Sp.random_points g ~n ~side:25.)
  | 1 ->
      let env =
        R.Environment.office ~rooms_x:3 ~rooms_y:3 ~room_size:6. R.Material.drywall
      in
      R.Measure.decay_space ~seed env
        (R.Node.of_points (Sp.random_points g ~n ~side:17.))
  | _ ->
      let env =
        R.Environment.random_clutter g ~side:25. ~n_walls:30
          [ R.Material.concrete; R.Material.metal ]
      in
      R.Measure.decay_space ~seed env
        (R.Node.of_points (Sp.random_points g ~n ~side:24.))

(* The names of the estimators that differ from the reference. *)
let dimension_mismatches ?exact_limit d =
  let n = D.n d in
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("assouad", bits_equal (Dim.assouad ?exact_limit d) (Naive_ref.assouad ?exact_limit d));
      ("quasi_doubling", bits_equal (Dim.quasi_doubling d) (Naive_ref.quasi_doubling d));
      ( "independence",
        Dim.independence_dimension ?exact_limit d
        = Naive_ref.independence_dimension ?exact_limit d );
      ( "independence_wrt",
        List.for_all
          (fun x ->
            Dim.independence_wrt ?exact_limit d ~x
            = Naive_ref.independence_wrt ?exact_limit d ~x)
          (List.init n Fun.id) );
      ("guards", Dim.max_guard_count d = Naive_ref.max_guard_count d);
    ]

let check_dimension_identical ?exact_limit label d =
  match dimension_mismatches ?exact_limit d with
  | [] -> ()
  | bad -> Alcotest.failf "%s: %s differ from the reference" label (String.concat ", " bad)

let prop_dimension_matches_reference =
  qcheck ~count:24 "dimension estimators = reference (geo/office/clutter, n<=28)"
    QCheck.(triple (int_range 0 2) (int_range 2 28) small_int)
    (fun (kind, n, seed) -> dimension_mismatches (dimension_space kind ~n seed) = [])

(* With a small exact_limit the larger balls and conflict graphs take the
   greedy branch, whose lists depend on vertex order. *)
let prop_dimension_greedy_branch =
  qcheck ~count:16 "dimension estimators = reference on the greedy branch"
    QCheck.(quad (int_range 0 2) (int_range 2 24) small_int (int_range 0 10))
    (fun (kind, n, seed, exact_limit) ->
      dimension_mismatches ~exact_limit (dimension_space kind ~n seed) = [])

let test_dimension_named_spaces () =
  List.iter
    (fun (label, d) ->
      check_dimension_identical label d;
      check_dimension_identical ~exact_limit:4 (label ^ " greedy") d)
    [
      ("welzl", Sp.welzl ~n:8 ~eps:0.25);
      ("uniform", Sp.uniform 9);
      ("star", Sp.star ~k:10 ~r:4.);
    ]

(* Analysis passes its exact_limit to every solver: above 64 the exact
   branch used to hit Mis.exact's default guard. *)
let test_exact_limit_above_64 () =
  let d = D.of_points ~alpha:3. (Sp.random_points (rng 11) ~n:70 ~side:40.) in
  let exact = Dim.independence_dimension ~exact_limit:100 d in
  check_true "exact independence >= greedy"
    (exact >= Dim.independence_dimension d);
  check_true "max_packing over 70 nodes"
    (Ball.is_packing d ~radius:1.
       (Ball.max_packing ~exact_limit:100 d ~within:(List.init 70 Fun.id) ~radius:1.))

(* --------------------------------------------------------------- Fading *)

let test_separated_predicate () =
  let d = Sp.uniform 5 in
  check_true "uniform 1-separated" (Fad.is_separated d ~r:1. [ 0; 1; 2 ]);
  check_false "not 2-separated" (Fad.is_separated d ~r:2. [ 0; 1 ])

let test_interference_sum () =
  let d = D.of_matrix [| [| 0.; 2.; 4. |]; [| 2.; 0.; 4. |]; [| 4.; 4.; 0. |] |] in
  check_float ~eps:1e-9 "I = P/2 + P/4" 0.75
    (Fad.interference_at d ~z:0 ~senders:[ 1; 2 ] ~power:1.)

let test_gamma_star_example () =
  (* Section 3.4: star with k far leaves.  The r-separated senders around
     x_{-1} are the centre (at decay r) plus all k far leaves (at decay
     k^2 + r), so gamma_z = r * (1/r + k/(k^2 + r)) = 1 + o(1): bounded
     even though the doubling dimension grows with k. *)
  let k = 20 and r = 4. in
  let d = Sp.star ~k ~r in
  let v, witness = Fad.gamma_z ~exact_limit:30 d ~z:1 ~r in
  let kf = float_of_int k in
  let expected = 1. +. (r *. kf /. ((kf *. kf) +. r)) in
  check_float ~eps:1e-6 "gamma_z(x_-1) matches closed form" expected v;
  check_int "witness has centre plus leaves" (k + 1) (List.length witness);
  (* Leaves alone contribute only ~r/k: the paper's vanishing-interference
     point. *)
  let leaves = List.filter (fun x -> x >= 2) witness in
  let leaf_sum = r *. Fad.interference_at d ~z:1 ~senders:leaves ~power:1. in
  check_true "far-leaf share vanishes" (leaf_sum < 2. *. r /. kf)

let test_gamma_zero_when_no_candidates () =
  let d = Sp.uniform 4 in
  let v, set = Fad.gamma_z d ~z:0 ~r:5. in
  check_float "no separated senders" 0. v;
  check_int "empty witness" 0 (List.length set)

let test_gamma_monotone_in_r_scaled () =
  (* gamma(r) = r * max-sum: for the uniform space with r <= 1 every subset
     qualifies, so gamma(r) = r * (n-1). *)
  let d = Sp.uniform 6 in
  check_float ~eps:1e-9 "uniform gamma" 2.5 (Fad.gamma d ~r:0.5)

let test_theorem2_bound_on_grid () =
  (* Planar grid with alpha = 4: A ~ 1/2 < 1; Theorem 2's bound with the
     empirical constant should dominate the measured gamma. *)
  let pts = Sp.grid_points ~rows:5 ~cols:5 ~spacing:1. in
  let d = D.of_points ~alpha:4. pts in
  let measured = Fad.gamma ~ctx:(Ctx.make ~exact_limit:20 ()) d ~r:1. in
  let bound = Fad.theorem2_bound ~c:6. ~a:0.5 in
  check_true "bound dominates" (measured <= bound)

let test_theorem2_bound_requires_fading () =
  List.iter
    (fun a ->
      Alcotest.check_raises
        (Printf.sprintf "A = %g" a)
        (Invalid_argument "Fading.theorem2_bound: requires A < 1") (fun () ->
          ignore (Fad.theorem2_bound ~c:1. ~a)))
    [ 1.; nan ]

let test_gamma_z_node_out_of_range () =
  let d = D.of_points ~alpha:3. (Sp.grid_points ~rows:4 ~cols:4 ~spacing:1.) in
  List.iter
    (fun z ->
      Alcotest.check_raises
        (Printf.sprintf "z = %d" z)
        (Invalid_argument "Fading.gamma_z: node out of range") (fun () ->
          ignore (Fad.gamma_z d ~z ~r:1.)))
    [ 16; 17; -1; 1000 ]

let test_gamma_witness_is_separated () =
  let d = random_space ~n:10 81 in
  let r = D.min_decay d *. 2. in
  let _, set = Fad.gamma_z d ~z:0 ~r in
  check_true "witness is r-separated" (Fad.is_separated d ~r set)

(* --------------------------------------------------------------- Spaces *)

let test_uniform_space () =
  let d = Sp.uniform 5 in
  check_float "all ones" 1. (D.decay d 0 4);
  check_float "zeta 1" 1. (Met.zeta d)

let test_star_distances () =
  let d = Sp.star ~k:5 ~r:2. in
  check_float "centre to close leaf" 2. (D.decay d 0 1);
  check_float "centre to far leaf" 25. (D.decay d 0 3);
  check_float "leaf to leaf through centre" 27. (D.decay d 1 3);
  check_float "star metric is metric" 1. (Met.zeta d)

let test_welzl_structure () =
  let d = Sp.welzl ~n:5 ~eps:0.25 in
  (* d(v_-1, v_i) = 2^i - eps, d(v_j, v_i) = 2^i for j < i. *)
  check_float "v-1 to v0" 0.75 (D.decay d 0 1);
  check_float "v-1 to v3" 7.75 (D.decay d 0 4);
  check_float "v0 to v3" 8. (D.decay d 1 4);
  check_true "symmetric" (D.is_symmetric d)

let test_welzl_validation () =
  Alcotest.check_raises "eps too big"
    (Invalid_argument "Spaces.welzl: need 0 < eps <= 1/4") (fun () ->
      ignore (Sp.welzl ~n:3 ~eps:0.3))

let test_three_point_values () =
  let d = Sp.three_point ~q:10. in
  check_float "fab" 1. (D.decay d 0 1);
  check_float "fbc" 10. (D.decay d 1 2);
  check_float "fac" 20. (D.decay d 0 2)

let test_mis_construction_structure () =
  let g = Core.Graph.Graph.cycle 5 in
  let d, links = Sp.mis_construction g in
  check_int "2n nodes" 10 (D.n d);
  check_int "n links" 5 (List.length links);
  (* Link decay is 1; edges decay 1/2 (strong interference); non-edges n
     (weak interference). *)
  check_float "link decay" 1. (D.decay d 0 5);
  check_float "edge decay" 0.5 (D.decay d 0 6);
  check_float "non-edge decay" 5. (D.decay d 0 7);
  (* zeta <= lg(2n) and tight-ish. *)
  check_true "zeta <= lg 2n"
    (Met.zeta d <= Core.Prelude.Numerics.log2 (2. *. 10.) +. 1e-6)

let test_two_line_structure () =
  let g = Core.Graph.Graph.path 4 in
  let d, links = Sp.two_line g ~alpha':2. () in
  check_int "2n nodes" 8 (D.n d);
  check_int "n links" 4 (List.length links);
  check_float "diagonal decay n^a'" 16. (D.decay d 0 4);
  check_float "edge decay n^a' - delta" 15.75 (D.decay d 0 5);
  check_float "non-edge decay n^(a'+1)" 64. (D.decay d 0 6);
  check_float "same line |i-j|^a'" 4. (D.decay d 0 2);
  (* phi = Theta(n): here the worst ratio is n^(a'+1) / small sums. *)
  check_true "phi is large" (Met.phi d > 2.);
  (* Decay-ball doubling of the construction stays small (A <= 2 claimed). *)
  check_true "independence dimension small"
    (Dim.independence_dimension d <= 4)

let test_grid_points_count () =
  check_int "rows*cols" 12 (List.length (Sp.grid_points ~rows:3 ~cols:4 ~spacing:1.))

let test_perturbed_sigma_zero () =
  let pts = Sp.random_points (rng 91) ~n:6 ~side:5. in
  let d0 = Sp.perturbed (rng 1) ~alpha:3. ~sigma:0. pts in
  let dg = D.of_points ~alpha:3. pts in
  let ok = ref true in
  for i = 0 to 5 do
    for j = 0 to 5 do
      if D.decay d0 i j <> D.decay dg i j then ok := false
    done
  done;
  check_true "sigma 0 recovers geometry" !ok

let test_perturbed_increases_zeta () =
  let pts = Sp.random_points (rng 92) ~n:12 ~side:10. in
  let d = Sp.perturbed (rng 2) ~alpha:2. ~sigma:1.5 pts in
  check_true "shadowing raises metricity" (Met.zeta d > 2.)

(* --------------------------------------------------------------- QCheck *)

let prop_zeta_monotone_validity =
  qcheck "inequality valid at any z >= zeta" QCheck.small_int (fun seed ->
      let d = random_space ~n:6 seed in
      let z = Met.zeta d in
      Naive_ref.holds_at d (z +. 0.5) && Naive_ref.holds_at d (2. *. z))

let prop_quasi_metric_triangle =
  qcheck ~count:50 "induced quasi-metric satisfies triangle" QCheck.small_int
    (fun seed ->
      let d = random_asym_space ~n:6 seed in
      let m, _ = QM.induce d in
      (* Asymmetric spaces: check the directed triangle inequality. *)
      let ok = ref true in
      for i = 0 to 5 do
        for j = 0 to 5 do
          for k = 0 to 5 do
            if m.M.d.(i).(j) > m.M.d.(i).(k) +. m.M.d.(k).(j) +. 1e-6 then
              ok := false
          done
        done
      done;
      !ok)

let prop_phi_log_leq_zeta =
  qcheck ~count:50 "phi_log <= zeta everywhere" QCheck.small_int (fun seed ->
      let d = random_asym_space ~n:6 seed in
      Met.phi_log d <= Met.zeta d +. 1e-6)

let prop_scale_preserves_zeta_within_bound =
  qcheck ~count:30 "scaling decays leaves zeta close" QCheck.small_int
    (fun seed ->
      (* Scaling changes zeta in general (it is not scale-invariant), but
         scaled spaces stay within the a-priori upper bound. *)
      let d = random_space ~n:6 seed in
      let s = D.scale 10. d in
      Met.zeta s <= Met.zeta_upper_bound s +. 1e-6)

let prop_mis_space_zeta_bound =
  qcheck ~count:20 "thm3 spaces: zeta <= lg 2n" QCheck.small_int (fun seed ->
      let g = Core.Graph.Graph.random (rng seed) 7 0.4 in
      let d, _ = Sp.mis_construction g in
      Met.zeta d <= Core.Prelude.Numerics.log2 14. +. 1e-6)

let prop_ball_packing_disjointness =
  qcheck ~count:30 "packings have pairwise decay > 2r" QCheck.small_int
    (fun seed ->
      let d = random_space ~n:8 seed in
      let r = D.min_decay d in
      let p = Ball.max_packing d ~within:(List.init 8 Fun.id) ~radius:r in
      Ball.is_packing d ~radius:r p)

let prop_parallel_equals_sequential =
  qcheck ~count:25 "zeta/phi/gamma identical at jobs=1 and jobs=4"
    QCheck.small_int (fun seed ->
      (* Exact witness equality, not just value equality: chunked parallel
         sweeps must reproduce the sequential tie-breaking bit-for-bit on
         every space family. *)
      let spaces =
        [ random_space ~n:9 seed;
          random_asym_space ~n:9 (seed + 1);
          Sp.star ~k:(4 + (seed mod 5)) ~r:2.;
          Sp.welzl ~n:(4 + (seed mod 4)) ~eps:0.25;
          Sp.three_point ~q:(10. ** float_of_int (2 + (seed mod 6))) ]
      in
      List.for_all
        (fun d ->
          Met.zeta_witness ~ctx:(seq_of 1) d
          = Met.zeta_witness ~ctx:(seq_of 4) d
          && Met.phi_witness ~ctx:(seq_of 1) d
             = Met.phi_witness ~ctx:(seq_of 4) d
          &&
          let r = D.min_decay d *. 1.5 in
          Fad.gamma ~ctx:(el12 1) d ~r = Fad.gamma ~ctx:(el12 4) d ~r)
        spaces)

(* The digest is MD5 over the cells as little-endian float64, whatever
   buffer it is laid out in: one space after another, sizes up and down
   and one over the 1 MiB the per-domain buffer keeps. *)
let test_digest_is_md5_of_cells () =
  List.iter
    (fun n ->
      let d = random_space ~n n in
      let b = Bytes.create (8 * n * n) in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Bytes.set_int64_le b (8 * ((i * n) + j))
            (Int64.bits_of_float (D.decay d i j))
        done
      done;
      check_true
        (Printf.sprintf "n = %d: digest is MD5 of the cells" n)
        (String.equal (D.digest d) (Digest.bytes b)))
    [ 3; 32; 5; 400; 32 ]

let suite =
  [
    ( "decay.space",
      [
        case "of_matrix valid" test_of_matrix_valid;
        case "rejects non-square" test_of_matrix_rejects_nonsquare;
        case "rejects diagonal" test_of_matrix_rejects_diagonal;
        case "rejects zero off-diagonal" test_of_matrix_rejects_zero_offdiag;
        case "rejects non-finite" test_of_matrix_rejects_nonfinite;
        case "defensive copies" test_matrix_defensive_copy;
        case "symmetry checks" test_symmetry_checks;
        case "min/max decay" test_min_max_decay;
        case "scale/pow" test_scale_pow;
        case "scale/pow validate their cells" test_scale_pow_validate;
        case "symmetrize" test_symmetrize;
        case "sub space" test_sub_space;
        case "map" test_map;
        case "of_metric" test_of_metric_embeds_alpha;
        prop_of_points_is_of_metric;
        case "of_points rejects coincident points"
          test_of_points_rejects_coincident;
        case "digest is MD5 of the cells" test_digest_is_md5_of_cells;
      ] );
    ( "decay.metricity",
      [
        case "triple: triangle ok" test_zeta_triple_triangle_ok;
        case "triple: exact threshold" test_zeta_triple_violation;
        case "geo-sinr: zeta = alpha" test_zeta_geo_equals_alpha;
        case "metric: zeta = 1" test_zeta_metric_is_one;
        case "a-priori upper bound" test_zeta_within_upper_bound;
        case "witness attains" test_zeta_witness_attains;
        case "sampled lower bound" test_zeta_sampled_lower_bound;
        case "holds_at" test_holds_at;
        case "pow multiplies zeta" test_zeta_pow_scales;
        case "phi on three-point" test_phi_three_point;
        case "phi_log <= zeta" test_phi_log_leq_zeta;
        case "three-point: zeta grows, phi bounded" test_three_point_zeta_grows;
        case "two-node space" test_zeta_small_spaces;
        prop_zeta_monotone_validity;
        prop_phi_log_leq_zeta;
        prop_parallel_equals_sequential;
        prop_scale_preserves_zeta_within_bound;
      ] );
    ( "decay.quasi_metric",
      [
        case "triangle inequality" test_induce_satisfies_triangle;
        case "symmetric input" test_induce_symmetric_gives_metric;
        case "round trip" test_round_trip;
        case "pointwise distance" test_distance_pointwise;
        prop_quasi_metric_triangle;
      ] );
    ( "decay.ball",
      [
        case "members" test_ball_members;
        case "is_packing" test_is_packing;
        case "max packing exact" test_max_packing_exact;
        case "packing number monotone" test_packing_number_monotone;
        prop_ball_packing_disjointness;
      ] );
    ( "decay.dimension",
      [
        case "independence: uniform = 1" test_independence_uniform;
        case "independence: welzl = n+1" test_independence_welzl;
        case "independence: plane <= 6" test_independence_plane_bounded;
        case "independence: pentagon" test_independence_hexagon;
        case "independence: rejects x" test_is_independent_rejects_x;
        case "guards cover" test_guards_cover;
        case "guards: uniform needs 1" test_guards_uniform_single;
        case "guards: plane <= 6" test_guards_plane_at_most_six;
        case "quasi-doubling welzl" test_quasi_doubling_welzl;
        case "assouad vs alpha" test_assouad_decreases_with_alpha;
        case "packing growth positive" test_packing_growth_positive;
        case "packing growth q check" test_packing_growth_rejects_q;
        case "named spaces = reference" test_dimension_named_spaces;
        case "exact_limit above 64" test_exact_limit_above_64;
        prop_dimension_matches_reference;
        prop_dimension_greedy_branch;
      ] );
    ( "decay.fading",
      [
        case "separated predicate" test_separated_predicate;
        case "interference sum" test_interference_sum;
        case "star example (3.4)" test_gamma_star_example;
        case "no candidates" test_gamma_zero_when_no_candidates;
        case "uniform closed form" test_gamma_monotone_in_r_scaled;
        case "theorem 2 bound on grid" test_theorem2_bound_on_grid;
        case "theorem 2 requires A < 1" test_theorem2_bound_requires_fading;
        case "gamma_z node out of range" test_gamma_z_node_out_of_range;
        case "witness separated" test_gamma_witness_is_separated;
      ] );
    ( "decay.spaces",
      [
        case "uniform" test_uniform_space;
        case "star distances" test_star_distances;
        case "welzl structure" test_welzl_structure;
        case "welzl validation" test_welzl_validation;
        case "three-point values" test_three_point_values;
        case "thm3 construction" test_mis_construction_structure;
        case "thm6 construction" test_two_line_structure;
        case "grid points" test_grid_points_count;
        case "perturbed sigma=0" test_perturbed_sigma_zero;
        case "perturbed raises zeta" test_perturbed_increases_zeta;
        prop_mis_space_zeta_bound;
      ] );
  ]
