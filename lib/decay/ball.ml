module Mis = Bg_graph.Mis

let members d ~centre ~radius =
  let n = Decay_space.n d in
  if centre < 0 || centre >= n then invalid_arg "Ball.members: centre out of range";
  let f = Decay_space.Flat.data d in
  let acc = ref [] in
  for x = n - 1 downto 0 do
    if x = centre || Decay_space.Flat.unsafe_get f ((x * n) + centre) < radius then
      acc := x :: !acc
  done;
  !acc

let separated d ~radius x y =
  Decay_space.decay d x y > 2. *. radius
  && Decay_space.decay d y x > 2. *. radius

let is_packing d ~radius nodes =
  let rec pairs = function
    | [] -> true
    | x :: rest -> List.for_all (separated d ~radius x) rest && pairs rest
  in
  pairs nodes

(* Conflict graph of [nodes]: an edge between every two positions whose
   nodes are not [radius]-separated, by the same comparisons as
   [separated]. *)
let conflicts d ~radius nodes =
  let n = Decay_space.n d in
  Array.iter
    (fun x -> if x < 0 || x >= n then invalid_arg "Ball: node out of range")
    nodes;
  let f = Decay_space.Flat.data d in
  let two_r = 2. *. radius in
  let k = Array.length nodes in
  let g = Mis.bits k in
  for i = 0 to k - 1 do
    let x = nodes.(i) in
    for j = i + 1 to k - 1 do
      let y = nodes.(j) in
      if
        not
          (Decay_space.Flat.unsafe_get f ((x * n) + y) > two_r
          && Decay_space.Flat.unsafe_get f ((y * n) + x) > two_r)
      then Mis.add_edge g i j
    done
  done;
  g

let max_packing ?(exact_limit = 30) d ~within ~radius =
  let arr = Array.of_list within in
  let g = conflicts d ~radius arr in
  let chosen =
    if Array.length arr <= exact_limit then Mis.exact_bits g
    else Mis.greedy_bits g
  in
  List.map (fun i -> arr.(i)) chosen

let packing_number ?(exact_limit = 30) ?(at_least = 0) d ~centre ~ball_radius
    ~packing_radius =
  let body = Array.of_list (members d ~centre ~radius:ball_radius) in
  let k = Array.length body in
  (* A packing is a subset of the ball: a ball of at most [at_least]
     members cannot beat it. *)
  if k <= at_least then at_least
  else begin
    let g = conflicts d ~radius:packing_radius body in
    if k <= exact_limit then Mis.exact_size ~at_least g
    else max at_least (Mis.greedy_size g)
  end
