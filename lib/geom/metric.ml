type t = { n : int; d : float array array }

let of_matrix m =
  let n = Array.length m in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Metric.of_matrix: not square")
    m;
  for i = 0 to n - 1 do
    if m.(i).(i) <> 0. then invalid_arg "Metric.of_matrix: nonzero diagonal";
    for j = 0 to n - 1 do
      if m.(i).(j) < 0. then invalid_arg "Metric.of_matrix: negative distance";
      if i <> j && m.(i).(j) = 0. then
        invalid_arg "Metric.of_matrix: zero distance between distinct points"
    done
  done;
  { n; d = Array.map Array.copy m }

let of_points points =
  let pts = Array.of_list points in
  let n = Array.length pts in
  let d = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then d.(i).(j) <- Point.dist pts.(i) pts.(j)
    done
  done;
  { n; d }

let of_points3 points =
  let pts = Array.of_list points in
  let n = Array.length pts in
  let d = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then d.(i).(j) <- Point3.dist pts.(i) pts.(j)
    done
  done;
  { n; d }

let uniform n =
  let d = Array.make_matrix n n 1. in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0.
  done;
  { n; d }

let line coords =
  let xs = Array.of_list coords in
  let n = Array.length xs in
  let d = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      d.(i).(j) <- Float.abs (xs.(i) -. xs.(j))
    done
  done;
  { n; d }

let scale k m =
  if k <= 0. then invalid_arg "Metric.scale: factor must be positive";
  { n = m.n; d = Array.map (Array.map (fun x -> k *. x)) m.d }

let check_symmetry m =
  let ok = ref true in
  for i = 0 to m.n - 1 do
    for j = 0 to m.n - 1 do
      if m.d.(i).(j) <> m.d.(j).(i) then ok := false
    done
  done;
  !ok

let check_triangle ?(eps = 1e-9) m =
  let ok = ref true in
  for i = 0 to m.n - 1 do
    for j = 0 to m.n - 1 do
      for k = 0 to m.n - 1 do
        let slack = eps *. Float.max 1. m.d.(i).(j) in
        if m.d.(i).(j) > m.d.(i).(k) +. m.d.(k).(j) +. slack then ok := false
      done
    done
  done;
  !ok

let is_metric m = check_symmetry m && check_triangle m

let shortest_paths m =
  let d = Array.map Array.copy m.d in
  let n = m.n in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = d.(i).(k) +. d.(k).(j) in
        if via < d.(i).(j) then d.(i).(j) <- via
      done
    done
  done;
  { n; d }

(* Greedy cover of the ball B(c, r), whose points are [members.(0 .. k-1)]
   in increasing order, by balls of radius r/2 centred at points of the
   space: each point not yet covered becomes a new centre.  [covered.(p) =
   stamp] marks a covered point.  Stops once the points left cannot lift the
   count above [best], so a result at most [best] may be short. *)
let cover_count m ~members ~k ~covered ~stamp r ~best =
  let half = r /. 2. in
  let count = ref 0 and a = ref 0 in
  while !a < k && !count + (k - !a) > best do
    let p = members.(!a) in
    if covered.(p) <> stamp then begin
      incr count;
      let row = m.d.(p) in
      for b = !a + 1 to k - 1 do
        let q = members.(b) in
        if row.(q) <= half then covered.(q) <- stamp
      done
    end;
    incr a
  done;
  !count

let doubling_constant m =
  if m.n = 0 then 1
  else begin
    let n = m.n in
    (* Candidate radii: all distinct pairwise distances. *)
    let radii = Array.make (n * (n - 1)) 0. in
    let i = ref 0 in
    for p = 0 to n - 1 do
      for q = 0 to n - 1 do
        if p <> q then begin
          radii.(!i) <- m.d.(p).(q);
          incr i
        end
      done
    done;
    Array.sort Float.compare radii;
    let members = Array.make n 0 and covered = Array.make n 0 in
    let stamp = ref 0 and best = ref 1 in
    Array.iteri
      (fun i r ->
        if i = 0 || not (Float.equal r radii.(i - 1)) then
          for c = 0 to n - 1 do
            let row = m.d.(c) and k = ref 0 in
            for p = 0 to n - 1 do
              if row.(p) <= r then begin
                members.(!k) <- p;
                incr k
              end
            done;
            (* A ball of at most [best] points needs at most [best] balls. *)
            if !k > !best then begin
              incr stamp;
              best :=
                max !best
                  (cover_count m ~members ~k:!k ~covered ~stamp:!stamp r
                     ~best:!best)
            end
          done)
      radii;
    !best
  end
