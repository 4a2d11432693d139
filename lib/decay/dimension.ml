let packing_growth ?exact_limit ?centres d ~q =
  if q <= 1. then invalid_arg "Dimension.packing_growth: q must exceed 1";
  let n = Decay_space.n d in
  let centres = match centres with Some cs -> cs | None -> List.init n Fun.id in
  let best = ref 0 in
  List.iter
    (fun x ->
      (* Candidate ball radii: the distinct decays into x (open balls, so
         nudge just above each decay value to include that node). *)
      let radii = ref [] in
      for y = 0 to n - 1 do
        if y <> x then radii := (Decay_space.decay d y x *. (1. +. 1e-9)) :: !radii
      done;
      let radii = List.sort_uniq compare !radii in
      List.iter
        (fun r ->
          best :=
            Ball.packing_number ?exact_limit ~at_least:!best d ~centre:x
              ~ball_radius:r ~packing_radius:(r /. q))
        radii)
    centres;
  !best

let assouad ?exact_limit ?(qs = [ 2.; 4.; 8.; 16. ]) d =
  Bg_prelude.Obs.with_span "assouad" @@ fun () ->
  let qs = Array.of_list qs in
  let gs =
    Array.map (fun q -> float_of_int (packing_growth ?exact_limit d ~q)) qs
  in
  if Array.exists (fun g -> g <= 0.) gs then 0.
  else begin
    let fit = Bg_prelude.Stats.loglog_fit qs gs in
    Float.max 0. fit.Bg_prelude.Stats.slope
  end

let assouad_max ?exact_limit ?(qs = [ 2.; 4.; 8.; 16. ]) ~c d =
  List.fold_left
    (fun acc q ->
      let g = float_of_int (packing_growth ?exact_limit d ~q) in
      if g <= 0. then acc else Float.max acc (log (g /. c) /. log q))
    0. qs

let quasi_doubling ?zeta d =
  Bg_prelude.Obs.with_span "quasi_doubling" @@ fun () ->
  let m, _ = Quasi_metric.induce ?zeta d in
  Bg_prelude.Numerics.log2 (float_of_int (Bg_geom.Metric.doubling_constant m))

let is_independent_wrt d ~x nodes =
  let ok = ref true in
  List.iter
    (fun z ->
      if z = x then invalid_arg "Dimension.is_independent_wrt: set contains x";
      List.iter
        (fun y ->
          if y <> z && Decay_space.decay d y z <= Decay_space.decay d z x then
            ok := false)
        nodes)
    nodes;
  !ok

(* Conflict graph on V \ {x}, the others in increasing order: an
   (unordered) pair conflicts when either member fails to be strictly
   farther from the other than the other is from x.  (Strictness matters:
   the uniform space must get independence dimension 1, matching the
   guard-count duality — a single guard covers everything there via the
   closed inequality.) *)
let independence_conflicts d ~x =
  let n = Decay_space.n d in
  if x < 0 || x >= n then invalid_arg "Dimension.independence_wrt: node out of range";
  let arr = Array.init (n - 1) (fun i -> if i < x then i else i + 1) in
  let f = Decay_space.Flat.data d in
  let k = n - 1 in
  let g = Bg_graph.Mis.bits k in
  for i = 0 to k - 1 do
    let z = arr.(i) in
    let fzx = Decay_space.Flat.unsafe_get f ((z * n) + x) in
    for j = i + 1 to k - 1 do
      let y = arr.(j) in
      if
        Decay_space.Flat.unsafe_get f ((y * n) + z) <= fzx
        || Decay_space.Flat.unsafe_get f ((z * n) + y)
           <= Decay_space.Flat.unsafe_get f ((y * n) + x)
      then Bg_graph.Mis.add_edge g i j
    done
  done;
  (g, arr)

let independence_wrt ?(exact_limit = 30) d ~x =
  let g, arr = independence_conflicts d ~x in
  let chosen =
    if Array.length arr <= exact_limit then Bg_graph.Mis.exact_bits g
    else Bg_graph.Mis.greedy_bits g
  in
  List.map (fun i -> arr.(i)) chosen

let independence_dimension ?(exact_limit = 30) d =
  Bg_prelude.Obs.with_span "independence" @@ fun () ->
  let best = ref 0 in
  for x = 0 to Decay_space.n d - 1 do
    let g, arr = independence_conflicts d ~x in
    best :=
      if Array.length arr <= exact_limit then
        Bg_graph.Mis.exact_size ~at_least:!best g
      else max !best (Bg_graph.Mis.greedy_size g)
  done;
  !best

let is_guard_set d ~x guards =
  let n = Decay_space.n d in
  let ok = ref true in
  for z = 0 to n - 1 do
    if z <> x then begin
      let fzx = Decay_space.decay d z x in
      if not (List.exists (fun y -> y = z || Decay_space.decay d z y <= fzx) guards)
      then ok := false
    end
  done;
  !ok

(* The uncovered nodes sit in the prefix [unc.(0 .. len-1)], compacted
   after each pick.  A count does not depend on the order it is taken
   in, ties go to the lowest y, and removal is a set operation, so the
   guard list does not depend on how the uncovered nodes are ordered. *)
let greedy_guards d ~x =
  let n = Decay_space.n d in
  if x < 0 || x >= n then
    invalid_arg "Dimension.greedy_guards: node out of range";
  let f = Decay_space.Flat.data d in
  let unc = Array.init (n - 1) (fun i -> if i < x then i else i + 1) in
  (* [fzx.(z) = f(z,x)]: [y] covers [z] when y = z or f(z,y) <= f(z,x). *)
  let fzx =
    Array.init n (fun z -> Decay_space.Flat.unsafe_get f ((z * n) + x))
  in
  let len = ref (n - 1) in
  let guards = ref [] in
  while !len > 0 do
    (* Pick the candidate guard covering the most uncovered nodes. *)
    let best = ref (-1) and best_count = ref 0 in
    for y = 0 to n - 1 do
      if y <> x then begin
        let count = ref 0 in
        for i = 0 to !len - 1 do
          let z = Array.unsafe_get unc i in
          if
            y = z
            || Decay_space.Flat.unsafe_get f ((z * n) + y)
               <= Array.unsafe_get fzx z
          then incr count
        done;
        if !count > !best_count then begin
          best := y;
          best_count := !count
        end
      end
    done;
    (* Every node covers itself, so [best] is a real node. *)
    let y = !best in
    guards := y :: !guards;
    let kept = ref 0 in
    for i = 0 to !len - 1 do
      let z = unc.(i) in
      if not (y = z || Decay_space.Flat.unsafe_get f ((z * n) + y) <= fzx.(z))
      then begin
        unc.(!kept) <- z;
        incr kept
      end
    done;
    len := !kept
  done;
  List.sort compare !guards

let max_guard_count d =
  Bg_prelude.Obs.with_span "guards" @@ fun () ->
  let n = Decay_space.n d in
  let best = ref 0 in
  for x = 0 to n - 1 do
    let k = List.length (greedy_guards d ~x) in
    if k > !best then best := k
  done;
  !best
