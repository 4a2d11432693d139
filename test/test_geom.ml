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

(* The predicate written with [Point.sub] and [Point.cross], kept as the
   reference: [intersects] must answer exactly as this does. *)
let reference_intersects (s1 : S.t) (s2 : S.t) =
  let orientation p q r =
    let v = P.cross (P.sub q p) (P.sub r p) in
    if v > 1e-12 then 1 else if v < -1e-12 then -1 else 0
  in
  let on_segment (p : P.t) (q : P.t) (r : P.t) =
    Float.min p.x r.x <= q.x
    && q.x <= Float.max p.x r.x
    && Float.min p.y r.y <= q.y
    && q.y <= Float.max p.y r.y
  in
  let p1 = s1.a and q1 = s1.b and p2 = s2.a and q2 = s2.b in
  let o1 = orientation p1 q1 p2 in
  let o2 = orientation p1 q1 q2 in
  let o3 = orientation p2 q2 p1 in
  let o4 = orientation p2 q2 q1 in
  if o1 <> o2 && o3 <> o4 then true
  else
    (o1 = 0 && on_segment p1 p2 q1)
    || (o2 = 0 && on_segment p1 q2 q1)
    || (o3 = 0 && on_segment p2 p1 q2)
    || (o4 = 0 && on_segment p2 q1 q2)

(* Endpoints on a small integer grid (touching, collinear, overlapping),
   anywhere in a box, or within 1e-11..1e-14 of the line y = x/2 (near-
   collinear, inside the orientation tolerance); some segments have zero
   length. *)
let prop_intersects_matches_reference =
  let open QCheck.Gen in
  let grid =
    map
      (fun (x, y) -> P.make (float_of_int x) (float_of_int y))
      (pair (int_range (-3) 3) (int_range (-3) 3))
  in
  let free =
    map
      (fun (x, y) -> P.make x y)
      (pair (float_range (-10.) 10.) (float_range (-10.) 10.))
  in
  let near =
    map
      (fun (t, e, k) ->
        P.make t ((0.5 *. t) +. (e *. (10. ** float_of_int (-k)))))
      (triple (float_range (-3.) 3.) (float_range (-1.) 1.) (int_range 11 14))
  in
  let point = frequency [ (2, grid); (1, free); (2, near) ] in
  let segment =
    frequency
      [ (4, map (fun (a, b) -> S.make a b) (pair point point));
        (1, map (fun a -> S.make a a) point) ]
  in
  let print (s : S.t) =
    Printf.sprintf "(%h,%h)-(%h,%h)" s.a.x s.a.y s.b.x s.b.y
  in
  qcheck ~count:3000 "intersects = Point-based reference"
    (QCheck.make ~print:QCheck.Print.(pair print print) (pair segment segment))
    (fun (s1, s2) ->
      Bool.equal (S.intersects s1 s2) (reference_intersects s1 s2))

let test_intersects_tolerance_case () =
  (* Orientations 0, 1, 1, 0 under the 1e-12 tolerance: reported as
     crossing although the segments are 0.57 m apart, which is why a
     bounding-box pre-filter would change answers. *)
  let path = S.make (P.make 0. 0.) (P.make 1. 0.) in
  let wall = S.make (P.make 1.5667 1e-12) (P.make 2.5667 2.5e-12) in
  check_true "reference reports a crossing" (reference_intersects path wall);
  check_true "intersects agrees" (S.intersects path wall)

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
        case "intersection point" test_intersection_point;
        case "no intersection point" test_intersection_none;
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
