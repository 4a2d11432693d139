open Testutil
module P = Core.Geom.Point
module S = Core.Geom.Segment
module M = Core.Geom.Metric

(* ---------------------------------------------------------------- Point *)

let test_add_sub () =
  let a = P.make 1. 2. and b = P.make 3. 5. in
  check_true "add" (P.equal (P.add a b) (P.make 4. 7.));
  check_true "sub" (P.equal (P.sub b a) (P.make 2. 3.))

let test_scale () =
  check_true "scale" (P.equal (P.scale 2. (P.make 1. (-2.))) (P.make 2. (-4.)))

let test_dot_cross () =
  let a = P.make 1. 0. and b = P.make 0. 1. in
  check_float "orthogonal dot" 0. (P.dot a b);
  check_float "cross" 1. (P.cross a b);
  check_float "cross antisymmetric" (-1.) (P.cross b a)

let test_norm_dist () =
  check_float "norm 3-4-5" 5. (P.norm (P.make 3. 4.));
  check_float "dist" 5. (P.dist (P.make 1. 1.) (P.make 4. 5.));
  check_float "dist2" 25. (P.dist2 (P.make 1. 1.) (P.make 4. 5.))

let test_angle () =
  check_float ~eps:1e-9 "right angle" (Float.pi /. 2.)
    (P.angle_between (P.make 1. 0.) (P.make 0. 1.));
  check_float ~eps:1e-9 "zero angle" 0.
    (P.angle_between (P.make 2. 0.) (P.make 5. 0.));
  check_float ~eps:1e-9 "opposite" Float.pi
    (P.angle_between (P.make 1. 0.) (P.make (-1.) 0.))

let test_angle_zero_vector () =
  Alcotest.check_raises "zero vector"
    (Invalid_argument "Point.angle_between: zero vector") (fun () ->
      ignore (P.angle_between P.origin (P.make 1. 0.)))

let test_rotate () =
  let r = P.rotate (Float.pi /. 2.) (P.make 1. 0.) in
  check_true "rotate 90" (P.equal ~eps:1e-9 r (P.make 0. 1.))

let test_lerp () =
  let m = P.lerp (P.make 0. 0.) (P.make 2. 4.) 0.5 in
  check_true "midpoint" (P.equal m (P.make 1. 2.))

(* -------------------------------------------------------------- Segment *)

let test_intersects_crossing () =
  let s1 = S.make (P.make 0. 0.) (P.make 2. 2.) in
  let s2 = S.make (P.make 0. 2.) (P.make 2. 0.) in
  check_true "X crossing" (S.intersects s1 s2)

let test_intersects_disjoint () =
  let s1 = S.make (P.make 0. 0.) (P.make 1. 0.) in
  let s2 = S.make (P.make 0. 1.) (P.make 1. 1.) in
  check_false "parallel disjoint" (S.intersects s1 s2)

let test_intersects_touching () =
  let s1 = S.make (P.make 0. 0.) (P.make 1. 1.) in
  let s2 = S.make (P.make 1. 1.) (P.make 2. 0.) in
  check_true "shared endpoint" (S.intersects s1 s2)

let test_intersects_collinear_overlap () =
  let s1 = S.make (P.make 0. 0.) (P.make 2. 0.) in
  let s2 = S.make (P.make 1. 0.) (P.make 3. 0.) in
  check_true "collinear overlap" (S.intersects s1 s2)

let test_intersects_collinear_disjoint () =
  let s1 = S.make (P.make 0. 0.) (P.make 1. 0.) in
  let s2 = S.make (P.make 2. 0.) (P.make 3. 0.) in
  check_false "collinear disjoint" (S.intersects s1 s2)

(* Endpoints on a small integer grid (touching, collinear, overlapping),
   anywhere in a box, or within 1e-11..1e-14 of the line y = x/2 (near-
   collinear: where a float determinant's sign can be wrong); some
   segments have zero length. *)
let grid_point =
  QCheck.Gen.(
    map
      (fun (x, y) -> P.make (float_of_int x) (float_of_int y))
      (pair (int_range (-3) 3) (int_range (-3) 3)))

let free_point =
  QCheck.Gen.(
    map (fun (x, y) -> P.make x y)
      (pair (float_range (-10.) 10.) (float_range (-10.) 10.)))

let near_point =
  QCheck.Gen.(
    map
      (fun (t, e, k) ->
        P.make t ((0.5 *. t) +. (e *. (10. ** float_of_int (-k)))))
      (triple (float_range (-3.) 3.) (float_range (-1.) 1.) (int_range 11 14)))

let mixed_point =
  QCheck.Gen.frequency [ (2, grid_point); (1, free_point); (2, near_point) ]

let print_point (p : P.t) = Printf.sprintf "(%h,%h)" p.x p.y

let segment_arb =
  let segment =
    QCheck.Gen.(
      frequency
        [ (4, map (fun (a, b) -> S.make a b) (pair mixed_point mixed_point));
          (1, map (fun a -> S.make a a) mixed_point) ])
  in
  let print (s : S.t) = print_point s.a ^ "-" ^ print_point s.b in
  QCheck.make ~print:QCheck.Print.(pair print print) QCheck.Gen.(pair segment segment)

let prop_intersects_matches_reference =
  qcheck ~count:3000 "intersects = Point-based exact reference" segment_arb
    (fun (s1, s2) -> Bool.equal (S.intersects s1 s2) (Naive_ref.intersects s1 s2))

let triple_arb gen =
  QCheck.make ~print:QCheck.Print.(triple print_point print_point print_point) gen

let points3 point = QCheck.Gen.triple point point point

let prop_orient_antisymmetric =
  qcheck ~count:2000 "orient q p r = - orient p q r" (triple_arb (points3 mixed_point))
    (fun (p, q, r) -> S.orient q p r = - S.orient p q r)

let prop_orient_cyclic =
  qcheck ~count:2000 "orient p q r = orient q r p" (triple_arb (points3 mixed_point))
    (fun (p, q, r) -> S.orient p q r = S.orient q r p)

(* On coordinates k/8 with |k| <= 64 every difference, product and the
   final subtraction of the plain determinant are exact floats, so its
   sign is the true one. *)
let prop_orient_dyadic_grid =
  let dyadic =
    QCheck.Gen.(
      map
        (fun (i, j) -> P.make (float_of_int i /. 8.) (float_of_int j /. 8.))
        (pair (int_range (-64) 64) (int_range (-64) 64)))
  in
  qcheck ~count:2000 "orient = plain determinant on a dyadic grid"
    (triple_arb (points3 dyadic)) (fun (p, q, r) ->
      S.orient p q r = Float.compare (P.cross (P.sub q p) (P.sub r p)) 0.)

(* r near the line through p and q, off it by 1e-11..1e-14: the filter
   fails on about one such triple in eight, and the exact fallback
   decides. *)
let prop_orient_near_collinear =
  let gen =
    QCheck.Gen.(
      map
        (fun ((p, q), (t, e, k)) ->
          let r = P.lerp p q t in
          (p, q, P.make r.x (r.y +. (e *. (10. ** float_of_int (-k))))))
        (pair (pair free_point free_point)
           (triple (float_range (-2.) 3.) (float_range (-1.) 1.) (int_range 11 14))))
  in
  qcheck ~count:3000 "orient = exact reference near collinear" (triple_arb gen)
    (fun (p, q, r) ->
      let o = Naive_ref.orient p q r in
      S.orient p q r = o && S.orient q p r = -o && S.orient q r p = o)

let test_orient_beats_the_float_sign () =
  (* The plain float determinant puts p right of the line from q to r;
     exactly, p lies (barely) left of it. *)
  let p = P.make 0x1.000000000002ap-1 0x1.000000000003p-1 in
  let q = P.make 12. 12. and r = P.make 24. 24. in
  check_int "float determinant" (-1)
    (Float.compare (P.cross (P.sub q p) (P.sub r p)) 0.);
  check_int "reference" 1 (Naive_ref.orient p q r);
  check_int "orient" 1 (S.orient p q r);
  check_int "antisymmetric" (-1) (S.orient q p r)

let test_intersects_tolerance_case () =
  (* The wall lies strictly above y = 0 (its ends at y = 1e-12 and
     2.5e-12) and 0.57 m beyond the path's end, so the two do not meet.
     The former 1e-12 tolerance rounded both of the wall's orientations
     to 0 and reported a crossing; the exact test does not, in either
     direction of the path. *)
  let path = S.make (P.make 0. 0.) (P.make 1. 0.) in
  let wall = S.make (P.make 1.5667 1e-12) (P.make 2.5667 2.5e-12) in
  check_false "reference: no crossing" (Naive_ref.intersects path wall);
  check_false "intersects agrees" (S.intersects path wall);
  check_false "reversed path" (S.intersects (S.make path.b path.a) wall)

let test_intersection_point () =
  let s1 = S.make (P.make 0. 0.) (P.make 2. 2.) in
  let s2 = S.make (P.make 0. 2.) (P.make 2. 0.) in
  match S.intersection s1 s2 with
  | Some p -> check_true "at (1,1)" (P.equal ~eps:1e-9 p (P.make 1. 1.))
  | None -> Alcotest.fail "expected intersection"

let test_intersection_none () =
  let s1 = S.make (P.make 0. 0.) (P.make 1. 0.) in
  let s2 = S.make (P.make 0. 1.) (P.make 1. 1.) in
  check_true "no intersection" (S.intersection s1 s2 = None)

let test_intersection_sub_micrometre () =
  (* A right-angle crossing at sub-micrometre scale: its cross product
     (2e-13) is tiny in absolute terms, but the segments are not
     parallel, so both predicates find the crossing. *)
  let s1 = S.make (P.make 0. 0.) (P.make 1e-6 0.) in
  let s2 = S.make (P.make 5e-7 (-1e-7)) (P.make 5e-7 1e-7) in
  check_true "intersects" (S.intersects s1 s2);
  match S.intersection s1 s2 with
  | Some p -> check_true "at (5e-7, 0)" (P.equal ~eps:1e-15 p (P.make 5e-7 0.))
  | None -> Alcotest.fail "expected an intersection point"

let test_intersection_collinear () =
  let s1 = S.make (P.make 0. 0.) (P.make 2. 0.) in
  check_true "overlap" (S.intersection s1 (S.make (P.make 1. 0.) (P.make 3. 0.)) = None);
  check_true "end to end" (S.intersection s1 (S.make (P.make 2. 0.) (P.make 3. 0.)) = None);
  check_true "a point on it" (S.intersection s1 (S.make (P.make 1. 0.) (P.make 1. 0.)) = None);
  match S.intersection s1 (S.make (P.make 2. 0.) (P.make 2. 5.)) with
  | Some p -> check_true "touching at (2, 0)" (P.equal p (P.make 2. 0.))
  | None -> Alcotest.fail "expected the touching point"

let prop_intersection_agrees_with_intersects =
  let collinear (s1 : S.t) (s2 : S.t) =
    (Naive_ref.orient s1.a s1.b s2.a = 0 && Naive_ref.orient s1.a s1.b s2.b = 0)
    || (Naive_ref.orient s2.a s2.b s1.a = 0 && Naive_ref.orient s2.a s2.b s1.b = 0)
  in
  qcheck ~count:3000 "intersection <> None iff intersects, unless collinear"
    segment_arb (fun (s1, s2) ->
      let point = S.intersection s1 s2 <> None in
      (not point || S.intersects s1 s2)
      && (collinear s1 s2 || Bool.equal point (S.intersects s1 s2)))

let test_length_midpoint () =
  let s = S.make (P.make 0. 0.) (P.make 6. 8.) in
  check_float "length" 10. (S.length s);
  check_true "midpoint" (P.equal (S.midpoint s) (P.make 3. 4.))

let test_dist_point () =
  let s = S.make (P.make 0. 0.) (P.make 10. 0.) in
  check_float "above middle" 2. (S.dist_point s (P.make 5. 2.));
  check_float "beyond end" 5. (S.dist_point s (P.make 13. 4.))

let test_crossings () =
  let path = S.make (P.make 0. 0.) (P.make 10. 0.) in
  let walls =
    [
      S.make (P.make 2. (-1.)) (P.make 2. 1.);
      S.make (P.make 5. (-1.)) (P.make 5. 1.);
      S.make (P.make 20. (-1.)) (P.make 20. 1.);
    ]
  in
  check_int "two of three" 2 (S.crossings path walls)

(* --------------------------------------------------------------- Metric *)

let test_of_points_metric () =
  let m = M.of_points [ P.make 0. 0.; P.make 1. 0.; P.make 0. 1. ] in
  check_true "is metric" (M.is_metric m);
  check_float ~eps:1e-9 "hypotenuse" (sqrt 2.) m.M.d.(1).(2)

let test_uniform_metric () =
  let m = M.uniform 5 in
  check_true "is metric" (M.is_metric m);
  check_float "unit distances" 1. m.M.d.(0).(4)

let test_line_metric () =
  let m = M.line [ 0.; 3.; 7. ] in
  check_float "line distance" 7. m.M.d.(0).(2);
  check_true "is metric" (M.is_metric m)

let test_of_matrix_validation () =
  Alcotest.check_raises "nonzero diagonal"
    (Invalid_argument "Metric.of_matrix: nonzero diagonal") (fun () ->
      ignore (M.of_matrix [| [| 1. |] |]))

let test_of_matrix_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Metric.of_matrix: negative distance") (fun () ->
      ignore (M.of_matrix [| [| 0.; -1. |]; [| 1.; 0. |] |]))

let test_triangle_violation_detected () =
  let m = M.of_matrix [| [| 0.; 10.; 1. |]; [| 10.; 0.; 1. |]; [| 1.; 1.; 0. |] |] in
  check_false "triangle fails" (M.check_triangle m);
  check_true "symmetric" (M.check_symmetry m)

let test_shortest_paths () =
  let m = M.of_matrix [| [| 0.; 10.; 1. |]; [| 10.; 0.; 1. |]; [| 1.; 1.; 0. |] |] in
  let c = M.shortest_paths m in
  check_float "shortcut via 2" 2. c.M.d.(0).(1);
  check_true "closure is metric" (M.check_triangle c)

let test_scale_metric () =
  let m = M.scale 3. (M.uniform 3) in
  check_float "scaled" 3. m.M.d.(0).(1)

let test_doubling_constant_line () =
  (* A geometric line has small doubling constant. *)
  let m = M.line [ 1.; 2.; 4.; 8.; 16.; 32. ] in
  check_true "line doubles with few balls" (M.doubling_constant m <= 4)

let test_doubling_constant_uniform () =
  (* Uniform metric: a ball of radius 1+eps holds all points; half-radius
     balls are singletons. *)
  let m = M.uniform 8 in
  check_int "uniform needs n balls" 8 (M.doubling_constant m)

(* --------------------------------------------------------------- QCheck *)

let prop_euclidean_triangle =
  qcheck "euclidean point sets satisfy triangle inequality" QCheck.small_int
    (fun seed ->
      let g = rng seed in
      let pts =
        List.init 8 (fun _ ->
            P.make (Core.Prelude.Rng.float g 10.) (Core.Prelude.Rng.float g 10.))
      in
      M.check_triangle (M.of_points pts))

let prop_rotation_preserves_norm =
  qcheck "rotation preserves norm" QCheck.(pair small_int (float_bound_exclusive 6.28))
    (fun (seed, theta) ->
      let g = rng seed in
      let v = P.make (Core.Prelude.Rng.float g 5.) (Core.Prelude.Rng.float g 5.) in
      Float.abs (P.norm (P.rotate theta v) -. P.norm v) < 1e-9)

let prop_floyd_warshall_dominated =
  qcheck "metric closure never exceeds input" QCheck.small_int (fun seed ->
      let sp = random_space ~n:6 seed in
      let m = M.of_matrix (Core.Decay.Decay_space.matrix sp) in
      let c = M.shortest_paths m in
      let ok = ref true in
      for i = 0 to 5 do
        for j = 0 to 5 do
          if c.M.d.(i).(j) > m.M.d.(i).(j) +. 1e-9 then ok := false
        done
      done;
      !ok)

let suite =
  [
    ( "geom.point",
      [
        case "add/sub" test_add_sub;
        case "scale" test_scale;
        case "dot/cross" test_dot_cross;
        case "norm/dist" test_norm_dist;
        case "angles" test_angle;
        case "angle zero vector" test_angle_zero_vector;
        case "rotate" test_rotate;
        case "lerp" test_lerp;
        prop_rotation_preserves_norm;
      ] );
    ( "geom.segment",
      [
        case "crossing" test_intersects_crossing;
        case "disjoint" test_intersects_disjoint;
        case "touching" test_intersects_touching;
        case "collinear overlap" test_intersects_collinear_overlap;
        case "collinear disjoint" test_intersects_collinear_disjoint;
        case "tolerance crossing" test_intersects_tolerance_case;
        prop_intersects_matches_reference;
        prop_orient_antisymmetric;
        prop_orient_cyclic;
        prop_orient_dyadic_grid;
        prop_orient_near_collinear;
        case "orient beats the float sign" test_orient_beats_the_float_sign;
        case "intersection point" test_intersection_point;
        case "no intersection point" test_intersection_none;
        case "sub-micrometre intersection" test_intersection_sub_micrometre;
        case "collinear intersection" test_intersection_collinear;
        prop_intersection_agrees_with_intersects;
        case "length/midpoint" test_length_midpoint;
        case "point distance" test_dist_point;
        case "crossings count" test_crossings;
      ] );
    ( "geom.metric",
      [
        case "euclidean" test_of_points_metric;
        case "uniform" test_uniform_metric;
        case "line" test_line_metric;
        case "diagonal validation" test_of_matrix_validation;
        case "negative validation" test_of_matrix_negative;
        case "triangle violation" test_triangle_violation_detected;
        case "shortest paths" test_shortest_paths;
        case "scale" test_scale_metric;
        case "doubling line" test_doubling_constant_line;
        case "doubling uniform" test_doubling_constant_uniform;
        prop_euclidean_triangle;
        prop_floyd_warshall_dominated;
      ] );
  ]
