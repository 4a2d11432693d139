module P = Bg_geom.Point
module S = Bg_geom.Segment

type wall = { segment : S.t; material : Material.t }
(* [packed] holds [walls] as one flat array (see [Segment.pack]), built
   once, so a path's wall loss is one loop with no per-wall boxing. *)
type t = { side : float; walls : wall list; packed : float array }

let make side walls =
  {
    side;
    walls;
    packed =
      S.pack (List.map (fun w -> (w.segment, w.material.Material.attenuation_db)) walls);
  }

let empty ~side =
  if side <= 0. then invalid_arg "Environment.empty: side must be positive";
  make side []

let create ~side walls =
  if side <= 0. then invalid_arg "Environment.create: side must be positive";
  make side walls

let walls t = t.walls
let side t = t.side
let add_wall t w = make t.side (w :: t.walls)
let wall_loss_db t a b = S.crossed_weight t.packed a b

let crossings t a b =
  let path = S.make a b in
  List.fold_left
    (fun acc w -> if S.intersects path w.segment then acc + 1 else acc)
    0 t.walls

(* A wall segment from (x1,y1) to (x2,y2) with a centred gap of the given
   width: returns the two sub-segments (or the whole wall for zero gap). *)
let with_door a b door_width material =
  let len = P.dist a b in
  if door_width <= 0. || door_width >= len then
    [ { segment = S.make a b; material } ]
  else begin
    let t0 = 0.5 -. (door_width /. (2. *. len)) in
    let t1 = 0.5 +. (door_width /. (2. *. len)) in
    [ { segment = S.make a (P.lerp a b t0); material };
      { segment = S.make (P.lerp a b t1) b; material } ]
  end

let office ~rooms_x ~rooms_y ~room_size ?door_width material =
  if rooms_x < 1 || rooms_y < 1 then invalid_arg "Environment.office: rooms >= 1";
  if room_size <= 0. then invalid_arg "Environment.office: room_size > 0";
  let door =
    match door_width with Some w -> w | None -> room_size /. 5.
  in
  let w = float_of_int rooms_x *. room_size in
  let h = float_of_int rooms_y *. room_size in
  let side = Float.max w h in
  let walls = ref [] in
  let solid a b = walls := { segment = S.make a b; material } :: !walls in
  let doored a b = walls := with_door a b door material @ !walls in
  (* Outer boundary: solid. *)
  solid (P.make 0. 0.) (P.make w 0.);
  solid (P.make w 0.) (P.make w h);
  solid (P.make w h) (P.make 0. h);
  solid (P.make 0. h) (P.make 0. 0.);
  (* Interior vertical walls, one doored span per room row. *)
  for i = 1 to rooms_x - 1 do
    let x = float_of_int i *. room_size in
    for j = 0 to rooms_y - 1 do
      let y0 = float_of_int j *. room_size in
      doored (P.make x y0) (P.make x (y0 +. room_size))
    done
  done;
  (* Interior horizontal walls. *)
  for j = 1 to rooms_y - 1 do
    let y = float_of_int j *. room_size in
    for i = 0 to rooms_x - 1 do
      let x0 = float_of_int i *. room_size in
      doored (P.make x0 y) (P.make (x0 +. room_size) y)
    done
  done;
  make side !walls

let corridor ~rooms ~room_size ~corridor_width material =
  if rooms < 1 then invalid_arg "Environment.corridor: rooms >= 1";
  let w = float_of_int rooms *. room_size in
  let h = room_size +. corridor_width in
  let walls = ref [] in
  let solid a b = walls := { segment = S.make a b; material } :: !walls in
  let doored a b =
    walls := with_door a b (room_size /. 5.) material @ !walls
  in
  (* Boundary. *)
  solid (P.make 0. 0.) (P.make w 0.);
  solid (P.make w 0.) (P.make w h);
  solid (P.make w h) (P.make 0. h);
  solid (P.make 0. h) (P.make 0. 0.);
  (* Rooms along the bottom; corridor on top.  Front walls have doors. *)
  for i = 0 to rooms - 1 do
    let x0 = float_of_int i *. room_size in
    doored (P.make x0 room_size) (P.make (x0 +. room_size) room_size);
    if i > 0 then solid (P.make x0 0.) (P.make x0 room_size)
  done;
  make (Float.max w h) !walls

let random_clutter rng ~side ~n_walls ?(min_len = 0.) ?(max_len = 0.) materials =
  if materials = [] then invalid_arg "Environment.random_clutter: no materials";
  if side <= 0. then invalid_arg "Environment.random_clutter: side > 0";
  let min_len = if min_len > 0. then min_len else side /. 10. in
  let max_len = if max_len > 0. then max_len else side /. 3. in
  let mats = Array.of_list materials in
  let walls =
    List.init n_walls (fun _ ->
        let cx = Bg_prelude.Rng.float rng side in
        let cy = Bg_prelude.Rng.float rng side in
        let len = Bg_prelude.Rng.uniform rng min_len max_len in
        let theta = Bg_prelude.Rng.float rng (2. *. Float.pi) in
        let dx = len /. 2. *. cos theta and dy = len /. 2. *. sin theta in
        { segment = S.make (P.make (cx -. dx) (cy -. dy)) (P.make (cx +. dx) (cy +. dy));
          material = Bg_prelude.Rng.choice rng mats })
  in
  make side walls
