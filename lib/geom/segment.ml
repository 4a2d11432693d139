type t = { a : Point.t; b : Point.t }

let make a b = { a; b }
let length s = Point.dist s.a s.b
let midpoint s = Point.lerp s.a s.b 0.5

(* The exact sign of [cross (q - p) (r - p)], after Shewchuk's orient2d
   ("Adaptive Precision Floating-Point Arithmetic and Fast Robust
   Geometric Predicates", 1997).

   The filter computes the determinant as [l - r] in floats.  With
   eps = 2^-53, the computed value is within (3 + 16 eps) eps (|l| + |r|)
   of the exact one (0x1.8000000000004p-52 is that constant), so beyond
   the bound its sign is the exact sign.  It stays inline: nothing is
   boxed unless a triple is near-degenerate, and only those reach the
   out-of-line [orientation_exact]. *)

(* Expanding the determinant leaves six products (the two [px py] terms
   cancel).  Each is an exact two-product [hi + lo] by [Float.fma], and
   two-sum grow-expansion adds the twelve parts into a nonoverlapping
   expansion whose largest nonzero component carries the sign of the
   exact sum.  Exact unless a product overflows or underflows. *)
let[@inline never] orientation_exact px py qx qy rx ry =
  let e = Array.make 12 0. and len = ref 0 in
  let grow b =
    let q = ref b in
    for i = 0 to !len - 1 do
      let a = e.(i) in
      let s = !q +. a in
      let bv = s -. !q in
      e.(i) <- (!q -. (s -. bv)) +. (a -. bv);
      q := s
    done;
    e.(!len) <- !q;
    incr len
  in
  let product a b =
    let p = a *. b in
    grow (Float.fma a b (-.p));
    grow p
  in
  product qx ry;
  product (-.qx) py;
  product (-.px) ry;
  product (-.qy) rx;
  product qy px;
  product py rx;
  let rec sign i =
    if i < 0 then 0
    else if e.(i) > 0. then 1
    else if e.(i) < 0. then -1
    else sign (i - 1)
  in
  sign (!len - 1)

let[@inline] orientation px py qx qy rx ry =
  let l = (qx -. px) *. (ry -. py) and r = (qy -. py) *. (rx -. px) in
  let det = l -. r in
  let bound = 0x1.8000000000004p-52 *. (Float.abs l +. Float.abs r) in
  if det > bound then 1
  else if det < -.bound then -1
  else orientation_exact px py qx qy rx ry

let orient (p : Point.t) (q : Point.t) (r : Point.t) =
  orientation p.x p.y q.x q.y r.x r.y

(* Assuming p, q, r collinear: does q lie on [p, r]? *)
let[@inline] on_segment px py qx qy rx ry =
  Float.min px rx <= qx
  && qx <= Float.max px rx
  && Float.min py ry <= qy
  && qy <= Float.max py ry

(* [intersects] on raw coordinates: the path (p1, q1) against the segment
   (p2, q2).  The orientations are exact, so this is the closed segments'
   true intersection test, and swapping p1 and q1 negates o1 and o2 and
   swaps o3 with o4: the answer cannot depend on the path's direction. *)
let[@inline] crosses p1x p1y q1x q1y p2x p2y q2x q2y =
  let o1 = orientation p1x p1y q1x q1y p2x p2y in
  let o2 = orientation p1x p1y q1x q1y q2x q2y in
  let o3 = orientation p2x p2y q2x q2y p1x p1y in
  let o4 = orientation p2x p2y q2x q2y q1x q1y in
  if o1 <> o2 && o3 <> o4 then true
  else
    (o1 = 0 && on_segment p1x p1y p2x p2y q1x q1y)
    || (o2 = 0 && on_segment p1x p1y q2x q2y q1x q1y)
    || (o3 = 0 && on_segment p2x p2y p1x p1y q2x q2y)
    || (o4 = 0 && on_segment p2x p2y q1x q1y q2x q2y)

let intersects s1 s2 =
  crosses s1.a.Point.x s1.a.Point.y s1.b.Point.x s1.b.Point.y s2.a.Point.x
    s2.a.Point.y s2.b.Point.x s2.b.Point.y

let pack weighted =
  let packed = Array.make (5 * List.length weighted) 0. in
  List.iteri
    (fun i (s, w) ->
      packed.(5 * i) <- s.a.Point.x;
      packed.((5 * i) + 1) <- s.a.Point.y;
      packed.((5 * i) + 2) <- s.b.Point.x;
      packed.((5 * i) + 3) <- s.b.Point.y;
      packed.((5 * i) + 4) <- w)
    weighted;
  packed

(* The loop sits here, next to [crosses], so the orientation tests inline
   into it and no coordinate is boxed per wall.  A wall whose endpoints
   both lie beyond one side of the path's bounding box cannot meet the
   path, and [crosses] is exact, so skipping it changes no answer. *)
let crossed_weight packed a b =
  let ax = a.Point.x and ay = a.Point.y and bx = b.Point.x and by = b.Point.y in
  let x_lo = Float.min ax bx and x_hi = Float.max ax bx in
  let y_lo = Float.min ay by and y_hi = Float.max ay by in
  let acc = ref 0. in
  for i = 0 to (Array.length packed / 5) - 1 do
    let o = 5 * i in
    let p2x = packed.(o) and p2y = packed.(o + 1) in
    let q2x = packed.(o + 2) and q2y = packed.(o + 3) in
    if
      not
        ((p2x < x_lo && q2x < x_lo)
        || (p2x > x_hi && q2x > x_hi)
        || (p2y < y_lo && q2y < y_lo)
        || (p2y > y_hi && q2y > y_hi))
      && crosses ax ay bx by p2x p2y q2x q2y
    then acc := !acc +. packed.(o + 4)
  done;
  !acc

(* The signs decide.  [o1 = o2 = 0] holds for collinear segments and
   for an [s1] of length zero, [o3 = o4 = 0] for an [s2] of length zero:
   those get no point, nor do segments that do not meet.  The rest cross
   at exactly one point.  The float parameter [t] along [s1] is clamped
   into [0, 1], and a NaN (a denominator rounded to zero) becomes 0. *)
let intersection s1 s2 =
  let p1 = s1.a and q1 = s1.b and p2 = s2.a and q2 = s2.b in
  let o1 = orient p1 q1 p2 and o2 = orient p1 q1 q2 in
  let o3 = orient p2 q2 p1 and o4 = orient p2 q2 q1 in
  if (o1 = 0 && o2 = 0) || (o3 = 0 && o4 = 0) || not (intersects s1 s2) then None
  else begin
    let d1 = Point.sub q1 p1 and d2 = Point.sub q2 p2 in
    let t = Point.cross (Point.sub p2 p1) d2 /. Point.cross d1 d2 in
    let t = if t >= 0. then Float.min t 1. else 0. in
    Some (Point.add p1 (Point.scale t d1))
  end

let dist_point s p =
  let d = Point.sub s.b s.a in
  let len2 = Point.dot d d in
  if len2 = 0. then Point.dist s.a p
  else begin
    let t =
      Bg_prelude.Numerics.clamp ~lo:0. ~hi:1.
        (Point.dot (Point.sub p s.a) d /. len2)
    in
    Point.dist p (Point.add s.a (Point.scale t d))
  end

let crossings path walls =
  List.fold_left (fun acc w -> if intersects path w then acc + 1 else acc) 0 walls
