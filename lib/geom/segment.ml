type t = { a : Point.t; b : Point.t }

let make a b = { a; b }
let length s = Point.dist s.a s.b
let midpoint s = Point.lerp s.a s.b 0.5

(* Robust-enough orientation test for our synthetic floor plans: the sign
   of cross (q - p) (r - p), written on the raw coordinates with the same
   IEEE operations in the same order as [Point.cross (Point.sub q p)
   (Point.sub r p)], so the answer is bit-identical and nothing is
   allocated. *)
let[@inline] orientation px py qx qy rx ry =
  let v = ((qx -. px) *. (ry -. py)) -. ((qy -. py) *. (rx -. px)) in
  if v > 1e-12 then 1 else if v < -1e-12 then -1 else 0

(* Assuming p, q, r collinear: does q lie on [p, r]? *)
let[@inline] on_segment px py qx qy rx ry =
  Float.min px rx <= qx
  && qx <= Float.max px rx
  && Float.min py ry <= qy
  && qy <= Float.max py ry

(* [intersects] on raw coordinates: the path (p1, q1) against the segment
   (p2, q2). *)
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
   into it and no coordinate is boxed per wall. *)
let crossed_weight packed a b =
  let ax = a.Point.x and ay = a.Point.y and bx = b.Point.x and by = b.Point.y in
  let acc = ref 0. in
  for i = 0 to (Array.length packed / 5) - 1 do
    let o = 5 * i in
    if
      crosses ax ay bx by packed.(o) packed.(o + 1) packed.(o + 2) packed.(o + 3)
    then acc := !acc +. packed.(o + 4)
  done;
  !acc

let intersection s1 s2 =
  let d1 = Point.sub s1.b s1.a and d2 = Point.sub s2.b s2.a in
  let denom = Point.cross d1 d2 in
  if Float.abs denom < 1e-12 then None
  else begin
    let diff = Point.sub s2.a s1.a in
    let t = Point.cross diff d2 /. denom in
    let u = Point.cross diff d1 /. denom in
    if t >= 0. && t <= 1. && u >= 0. && u <= 1. then
      Some (Point.add s1.a (Point.scale t d1))
    else None
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
