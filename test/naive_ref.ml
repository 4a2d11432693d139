(* Verbatim pre-optimization kernels, kept as the reference implementation
   the optimized flat/log-domain kernels in [Bg_decay.Metricity],
   [Bg_decay.Fading] and [Bg_decay.Statistics] are tested against.  Everything here works off
   [Decay_space.matrix] / [Decay_space.decay] (bounds-checked, row-copied)
   exactly as the shipped code did before the flat-layout rewrite; do not
   "improve" this module — its value is that it stays naive.  The same
   holds for the boolean-mask MIS solvers behind [Bg_graph.Mis] and the
   solve-every-ball dimension estimators behind [Bg_decay.Dimension] and
   [Bg_geom.Metric.doubling_constant], for the radio simulator's
   per-ordered-pair [Measure.decay_space] with its tolerance wall test,
   and for an exact orientation sign written independently of
   [Bg_geom.Segment]'s. *)

module Decay_space = Core.Decay.Decay_space
module Num = Core.Prelude.Numerics
module Par = Core.Prelude.Parallel

type witness = Core.Decay.Metricity.witness = {
  x : int;
  y : int;
  z : int;
  value : float;
}

let triple_holds ~fxy ~fxz ~fzy z =
  let t = 1. /. z in
  exp (t *. log fxz) +. exp (t *. log fzy) >= exp (t *. log fxy)

let zeta_triple ?(tol = 1e-9) fxy fxz fzy =
  if fxy <= fxz +. fzy then 1.
  else begin
    let m = Float.min fxz fzy in
    let p = triple_holds ~fxy ~fxz ~fzy in
    if p 1. then 1.
    else begin
      let lo = ref 1.
      and hi = ref (Float.max 1.5 (Num.log2 (fxy /. m) +. 1e-6)) in
      let iters = ref 0 in
      while
        !hi -. !lo > tol *. Float.max 1. (Float.abs !hi) && !iters < 200
      do
        incr iters;
        let mid = 0.5 *. (!lo +. !hi) in
        if p mid then hi := mid else lo := mid
      done;
      !lo
    end
  end

let fold_triples_range d ~x_lo ~x_hi init step =
  let n = Decay_space.n d in
  let f = Decay_space.matrix d in
  let acc = ref init in
  for x = x_lo to x_hi - 1 do
    for y = 0 to n - 1 do
      if y <> x then
        for z = 0 to n - 1 do
          if z <> x && z <> y then
            acc := step !acc ~x ~y ~z ~fxy:f.(x).(y) ~fxz:f.(x).(z) ~fzy:f.(z).(y)
        done
    done
  done;
  !acc

let better a b = if b.value > a.value then b else a

let zeta_witness ?(tol = 1e-9) ?jobs d =
  if Decay_space.n d < 3 then { x = 0; y = 0; z = 0; value = 1. }
  else begin
    let init = { x = 0; y = 1; z = 2; value = 1. } in
    let step best ~x ~y ~z ~fxy ~fxz ~fzy =
      if fxy <= fxz +. fzy then best
      else if triple_holds ~fxy ~fxz ~fzy best.value then best
      else begin
        let v = zeta_triple ~tol fxy fxz fzy in
        if v > best.value then { x; y; z; value = v } else best
      end
    in
    Par.map_reduce_chunks
      ~jobs:(Par.resolve_jobs jobs)
      ~lo:0 ~hi:(Decay_space.n d) ~neutral:init
      ~map:(fun x_lo x_hi -> fold_triples_range d ~x_lo ~x_hi init step)
      ~combine:better
  end

let zeta ?tol ?jobs d = (zeta_witness ?tol ?jobs d).value

let holds_at ?jobs d z =
  Decay_space.n d < 3
  || Par.map_reduce_chunks
       ~jobs:(Par.resolve_jobs jobs)
       ~lo:0 ~hi:(Decay_space.n d) ~neutral:true
       ~map:(fun x_lo x_hi ->
         fold_triples_range d ~x_lo ~x_hi true
           (fun ok ~x:_ ~y:_ ~z:_ ~fxy ~fxz ~fzy ->
             ok
             && (fxy <= fxz +. fzy
                || triple_holds ~fxy ~fxz ~fzy (z +. 1e-7))))
       ~combine:( && )

let phi_witness ?jobs d =
  if Decay_space.n d < 3 then { x = 0; y = 0; z = 0; value = 1. }
  else begin
    let init = { x = 0; y = 2; z = 1; value = 1. } in
    let step best ~x ~y ~z ~fxy ~fxz ~fzy =
      let v = fxy /. (fxz +. fzy) in
      if v > best.value then { x; y = z; z = y; value = v } else best
    in
    Par.map_reduce_chunks
      ~jobs:(Par.resolve_jobs jobs)
      ~lo:0 ~hi:(Decay_space.n d) ~neutral:init
      ~map:(fun x_lo x_hi -> fold_triples_range d ~x_lo ~x_hi init step)
      ~combine:better
  end

let phi ?jobs d = (phi_witness ?jobs d).value

(* ------------------------------------------------------------- fading *)

let weighted_mis ~weights ~compat =
  let k = Array.length weights in
  let order = Array.init k Fun.id in
  Array.sort (fun i j -> Float.compare weights.(j) weights.(i)) order;
  let greedy_pick = ref [] in
  Array.iter
    (fun i ->
      if List.for_all (fun j -> compat i j) !greedy_pick then
        greedy_pick := i :: !greedy_pick)
    order;
  let best_set = ref !greedy_pick in
  let best_val =
    ref (List.fold_left (fun a i -> a +. weights.(i)) 0. !greedy_pick)
  in
  let suffix_weight = Array.make (k + 1) 0. in
  for idx = k - 1 downto 0 do
    suffix_weight.(idx) <- suffix_weight.(idx + 1) +. weights.(order.(idx))
  done;
  let budget = ref 2_000_000 in
  let rec go idx current current_val =
    decr budget;
    if !budget > 0 && idx < k then begin
      if current_val +. suffix_weight.(idx) > !best_val then begin
        let i = order.(idx) in
        if List.for_all (fun j -> compat i j) current then begin
          let v = current_val +. weights.(i) in
          if v > !best_val then begin
            best_val := v;
            best_set := i :: current
          end;
          go (idx + 1) (i :: current) v
        end;
        go (idx + 1) current current_val
      end
    end
  in
  go 0 [] 0.;
  (!best_val, !best_set)

let gamma_z ?(exact_limit = 24) d ~z ~r =
  let n = Decay_space.n d in
  let candidates = ref [] in
  for x = n - 1 downto 0 do
    if x <> z && Decay_space.decay d x z >= r && Decay_space.decay d z x >= r
    then candidates := x :: !candidates
  done;
  let arr = Array.of_list !candidates in
  let k = Array.length arr in
  let weights = Array.map (fun x -> 1. /. Decay_space.decay d x z) arr in
  let compat i j =
    i = j
    || (Decay_space.decay d arr.(i) arr.(j) >= r
       && Decay_space.decay d arr.(j) arr.(i) >= r)
  in
  if k = 0 then (0., [])
  else begin
    let value, set =
      if k <= exact_limit then weighted_mis ~weights ~compat
      else begin
        let order = Array.init k Fun.id in
        Array.sort (fun i j -> Float.compare weights.(j) weights.(i)) order;
        let pick = ref [] in
        Array.iter
          (fun i ->
            if List.for_all (fun j -> compat i j) !pick then pick := i :: !pick)
          order;
        let v = List.fold_left (fun a i -> a +. weights.(i)) 0. !pick in
        (v, !pick)
      end
    in
    (r *. value, List.map (fun i -> arr.(i)) set)
  end

let gamma ?exact_limit ?jobs d ~r =
  Par.map_reduce_chunks
    ~jobs:(Par.resolve_jobs jobs)
    ~lo:0 ~hi:(Decay_space.n d) ~neutral:0.
    ~map:(fun lo hi ->
      let best = ref 0. in
      for z = lo to hi - 1 do
        let v, _ = gamma_z ?exact_limit d ~z ~r in
        if v > !best then best := v
      done;
      !best)
    ~combine:(fun a b -> if b > a then b else a)

(* --------------------------------------------------------- statistics *)

(* The list-and-sort summary: [decays_db] conses every dB value onto a
   list, [min_max] folds a tuple and [percentile] sorts a copy. *)

type summary = Core.Decay.Statistics.summary = {
  n : int;
  min_db : float;
  max_db : float;
  median_db : float;
  dynamic_range_db : float;
  asymmetry_db : float;
}

let db x = 10. *. log10 x

let decays_db d =
  let n = Decay_space.n d in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then acc := db (Decay_space.decay d i j) :: !acc
    done
  done;
  Array.of_list !acc

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    ((1. -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

let median xs = percentile xs 50.

let summarize ?jobs d =
  let n = Decay_space.n d in
  if n < 2 then invalid_arg "Statistics.summarize: need at least 2 nodes";
  let xs = decays_db d in
  let lo, hi = min_max xs in
  let asym =
    Par.map_reduce_chunks ~jobs:(Par.resolve_jobs jobs) ~lo:0 ~hi:n ~neutral:0.
      ~map:(fun i_lo i_hi ->
        let worst = ref 0. in
        for i = i_lo to i_hi - 1 do
          for j = i + 1 to n - 1 do
            let a =
              Float.abs
                (db (Decay_space.decay d i j /. Decay_space.decay d j i))
            in
            if a > !worst then worst := a
          done
        done;
        !worst)
      ~combine:(fun a b -> if b > a then b else a)
  in
  {
    n;
    min_db = lo;
    max_db = hi;
    median_db = median xs;
    dynamic_range_db = hi -. lo;
    asymmetry_db = asym;
  }

(* ---------------------------------------------------------------- mis *)

(* The boolean-mask solvers: degrees by [Graph.has_edge] over every
   vertex pair, a clique cover that checks each candidate against a
   member list. *)

module Graph = Core.Graph.Graph

let mis_greedy g =
  let n = Graph.n g in
  let alive = Array.make n true in
  let result = ref [] in
  let remaining = ref n in
  while !remaining > 0 do
    (* Pick the alive vertex of minimum alive-degree. *)
    let best = ref (-1) and best_deg = ref max_int in
    for u = 0 to n - 1 do
      if alive.(u) then begin
        let d = ref 0 in
        for v = 0 to n - 1 do
          if alive.(v) && Graph.has_edge g u v then incr d
        done;
        if !d < !best_deg then begin
          best := u;
          best_deg := !d
        end
      end
    done;
    let u = !best in
    result := u :: !result;
    alive.(u) <- false;
    decr remaining;
    for v = 0 to n - 1 do
      if alive.(v) && Graph.has_edge g u v then begin
        alive.(v) <- false;
        decr remaining
      end
    done
  done;
  List.sort compare !result

(* Greedy clique cover of the alive vertices: the number of cliques is an
   upper bound on the independence number of the induced subgraph. *)
let clique_cover_bound g alive =
  let n = Graph.n g in
  let used = Array.make n false in
  let cliques = ref 0 in
  for u = 0 to n - 1 do
    if alive.(u) && not used.(u) then begin
      incr cliques;
      used.(u) <- true;
      let members = ref [ u ] in
      for v = u + 1 to n - 1 do
        if
          alive.(v)
          && (not used.(v))
          && List.for_all (fun w -> Graph.has_edge g v w) !members
        then begin
          used.(v) <- true;
          members := v :: !members
        end
      done
    end
  done;
  !cliques

let mis_exact ?(limit = 64) g =
  let n = Graph.n g in
  if n > limit then invalid_arg "Mis.exact: graph exceeds size limit";
  let best = ref (mis_greedy g) in
  let best_size = ref (List.length !best) in
  let alive = Array.make n true in
  let chosen = Array.make n false in
  let rec go alive_count chosen_count =
    if chosen_count > !best_size then begin
      best_size := chosen_count;
      let acc = ref [] in
      for u = n - 1 downto 0 do
        if chosen.(u) then acc := u :: !acc
      done;
      best := !acc
    end;
    if alive_count > 0 && chosen_count + clique_cover_bound g alive > !best_size
    then begin
      (* Branch on a maximum-degree alive vertex. *)
      let pick = ref (-1) and pick_deg = ref (-1) in
      for u = 0 to n - 1 do
        if alive.(u) then begin
          let d = ref 0 in
          for v = 0 to n - 1 do
            if alive.(v) && Graph.has_edge g u v then incr d
          done;
          if !d > !pick_deg then begin
            pick := u;
            pick_deg := !d
          end
        end
      done;
      let u = !pick in
      (* Include u: kill u and its alive neighbourhood. *)
      let killed = ref [ u ] in
      alive.(u) <- false;
      for v = 0 to n - 1 do
        if alive.(v) && Graph.has_edge g u v then begin
          alive.(v) <- false;
          killed := v :: !killed
        end
      done;
      chosen.(u) <- true;
      go (alive_count - List.length !killed) (chosen_count + 1);
      chosen.(u) <- false;
      List.iter (fun v -> alive.(v) <- true) !killed;
      (* Exclude u. *)
      alive.(u) <- false;
      go (alive_count - 1) chosen_count;
      alive.(u) <- true
    end
  in
  go n 0;
  List.sort compare !best

(* ---------------------------------------------------------- dimension *)

(* Every ball solved in full: a [Graph.t] conflict graph and a list MIS
   per (centre, radius); a [Hashtbl] of covered points per doubling
   cover; conflict graphs for independence built through [Graph]. *)

let ball_members d ~centre ~radius =
  let acc = ref [] in
  for x = Decay_space.n d - 1 downto 0 do
    if x = centre || Decay_space.decay d x centre < radius then acc := x :: !acc
  done;
  !acc

let separated d ~radius x y =
  Decay_space.decay d x y > 2. *. radius
  && Decay_space.decay d y x > 2. *. radius

let conflict_graph d ~radius nodes =
  let arr = Array.of_list nodes in
  let k = Array.length arr in
  let g = Graph.create k in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if not (separated d ~radius arr.(i) arr.(j)) then Graph.add_edge g i j
    done
  done;
  (g, arr)

let max_packing ?(exact_limit = 30) d ~within ~radius =
  let g, arr = conflict_graph d ~radius within in
  let chosen =
    if Array.length arr <= exact_limit then mis_exact g else mis_greedy g
  in
  List.map (fun i -> arr.(i)) chosen

let packing_number ?exact_limit d ~centre ~ball_radius ~packing_radius =
  let body = ball_members d ~centre ~radius:ball_radius in
  List.length (max_packing ?exact_limit d ~within:body ~radius:packing_radius)

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
          let p =
            packing_number ?exact_limit d ~centre:x ~ball_radius:r
              ~packing_radius:(r /. q)
          in
          if p > !best then best := p)
        radii)
    centres;
  !best

let assouad ?exact_limit ?(qs = [ 2.; 4.; 8.; 16. ]) d =
  let qs = Array.of_list qs in
  let gs =
    Array.map (fun q -> float_of_int (packing_growth ?exact_limit d ~q)) qs
  in
  if Array.exists (fun g -> g <= 0.) gs then 0.
  else begin
    let fit = Core.Prelude.Stats.loglog_fit qs gs in
    Float.max 0. fit.Core.Prelude.Stats.slope
  end

module Metric = Core.Geom.Metric

(* Greedy cover of ball B(c, r) by balls of radius r/2 centred at points of
   the space: repeatedly pick an uncovered point of the ball as a new centre. *)
let cover_count (m : Metric.t) c r =
  let members = ref [] in
  for i = m.n - 1 downto 0 do
    if m.d.(c).(i) <= r then members := i :: !members
  done;
  let covered = Hashtbl.create 16 in
  let count = ref 0 in
  List.iter
    (fun p ->
      if not (Hashtbl.mem covered p) then begin
        incr count;
        List.iter
          (fun q -> if m.d.(p).(q) <= r /. 2. then Hashtbl.replace covered q ())
          !members
      end)
    !members;
  !count

let doubling_constant (m : Metric.t) =
  if m.n = 0 then 1
  else begin
    (* Candidate radii: all distinct pairwise distances. *)
    let radii = Hashtbl.create 64 in
    for i = 0 to m.n - 1 do
      for j = 0 to m.n - 1 do
        if i <> j then Hashtbl.replace radii m.d.(i).(j) ()
      done
    done;
    let best = ref 1 in
    Hashtbl.iter
      (fun r () ->
        for c = 0 to m.n - 1 do
          let k = cover_count m c r in
          if k > !best then best := k
        done)
      radii;
    !best
  end

let quasi_doubling ?zeta d =
  let m, _ = Core.Decay.Quasi_metric.induce ?zeta d in
  Num.log2 (float_of_int (doubling_constant m))

let independence_conflicts d ~x =
  let n = Decay_space.n d in
  let others = List.filter (fun v -> v <> x) (List.init n Fun.id) in
  let arr = Array.of_list others in
  let k = Array.length arr in
  let g = Graph.create k in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let z = arr.(i) and y = arr.(j) in
      if
        Decay_space.decay d y z <= Decay_space.decay d z x
        || Decay_space.decay d z y <= Decay_space.decay d y x
      then Graph.add_edge g i j
    done
  done;
  (g, arr)

let independence_wrt ?(exact_limit = 30) d ~x =
  let g, arr = independence_conflicts d ~x in
  let chosen =
    if Array.length arr <= exact_limit then mis_exact g else mis_greedy g
  in
  List.map (fun i -> arr.(i)) chosen

let independence_dimension ?exact_limit d =
  let n = Decay_space.n d in
  let best = ref 0 in
  for x = 0 to n - 1 do
    let k = List.length (independence_wrt ?exact_limit d ~x) in
    if k > !best then best := k
  done;
  !best

let greedy_guards d ~x =
  let n = Decay_space.n d in
  let uncovered = Hashtbl.create 16 in
  for z = 0 to n - 1 do
    if z <> x then Hashtbl.replace uncovered z ()
  done;
  let covers y z =
    y = z || Decay_space.decay d z y <= Decay_space.decay d z x
  in
  let guards = ref [] in
  while Hashtbl.length uncovered > 0 do
    (* Pick the candidate guard covering the most uncovered nodes. *)
    let best = ref (-1) and best_count = ref (-1) in
    for y = 0 to n - 1 do
      if y <> x then begin
        let count = ref 0 in
        Hashtbl.iter (fun z () -> if covers y z then incr count) uncovered;
        if !count > !best_count then begin
          best := y;
          best_count := !count
        end
      end
    done;
    let y = !best in
    if !best_count <= 0 then
      (* Cannot happen: every node covers itself. *)
      assert false;
    guards := y :: !guards;
    let to_remove = ref [] in
    Hashtbl.iter (fun z () -> if covers y z then to_remove := z :: !to_remove) uncovered;
    List.iter (Hashtbl.remove uncovered) !to_remove
  done;
  List.sort compare !guards

let max_guard_count d =
  let n = Decay_space.n d in
  let best = ref 0 in
  for x = 0 to n - 1 do
    let k = List.length (greedy_guards d ~x) in
    if k > !best then best := k
  done;
  !best

(* ----------------------------------------------------------- geometry *)

(* The exact sign of [cross (q - p) (r - p)], sharing no code with
   [Segment.orient]: each difference is split exactly into [a + a'] by
   two-sum, each of the eight products of [(a + a') (b + b') - (c + c')
   (d + d')] is a Dekker two-product on Veltkamp splits (no [Float.fma]),
   and the sixteen parts are summed exactly, with no filter in front.
   Exact for coordinates whose products neither overflow nor underflow
   (and below 2^995, where the split stays finite). *)

let two_sum a b =
  let s = a +. b in
  let bv = s -. a in
  (s, (a -. (s -. bv)) +. (b -. bv))

let split a =
  let c = 134217729. *. a (* 2^27 + 1 *) in
  let hi = c -. (c -. a) in
  (hi, a -. hi)

let two_product a b =
  let p = a *. b in
  let ah, al = split a and bh, bl = split b in
  (p, (((ah *. bh) -. p) +. (ah *. bl) +. (al *. bh)) +. (al *. bl))

(* Grow a nonoverlapping expansion (increasing magnitude) by one term at
   a time; the sum's sign is that of its largest nonzero component. *)
let exact_sign terms =
  let grow e b =
    let q, hs =
      List.fold_left
        (fun (q, hs) a ->
          let s, h = two_sum q a in
          (s, h :: hs))
        (b, []) e
    in
    List.rev (q :: hs)
  in
  let e = List.fold_left grow [] terms in
  match List.find_opt (fun c -> c <> 0.) (List.rev e) with
  | None -> 0
  | Some c -> if c > 0. then 1 else -1

let orient (p : Core.Geom.Point.t) (q : Core.Geom.Point.t)
    (r : Core.Geom.Point.t) =
  let a, a' = two_sum q.x (-.p.x) and b, b' = two_sum r.y (-.p.y) in
  let c, c' = two_sum q.y (-.p.y) and d, d' = two_sum r.x (-.p.x) in
  let parts x y = let h, l = two_product x y in [ h; l ] in
  exact_sign
    (List.concat
       [ parts a b; parts a b'; parts a' b; parts a' b';
         parts (-.c) d; parts (-.c) d'; parts (-.c') d; parts (-.c') d' ])

(* Closed-segment intersection on [orient]. *)
let intersects (s1 : Core.Geom.Segment.t) (s2 : Core.Geom.Segment.t) =
  let on_segment (p : Core.Geom.Point.t) (q : Core.Geom.Point.t)
      (r : Core.Geom.Point.t) =
    Float.min p.x r.x <= q.x
    && q.x <= Float.max p.x r.x
    && Float.min p.y r.y <= q.y
    && q.y <= Float.max p.y r.y
  in
  let p1 = s1.a and q1 = s1.b and p2 = s2.a and q2 = s2.b in
  let o1 = orient p1 q1 p2 and o2 = orient p1 q1 q2 in
  let o3 = orient p2 q2 p1 and o4 = orient p2 q2 q1 in
  if o1 <> o2 && o3 <> o4 then true
  else
    (o1 = 0 && on_segment p1 p2 q1)
    || (o2 = 0 && on_segment p1 q2 q1)
    || (o3 = 0 && on_segment p2 p1 q2)
    || (o4 = 0 && on_segment p2 q1 q2)

(* -------------------------------------------------------------- radio *)

(* [Measure.decay_space] as it was before exact wall crossings: every
   ordered pair evaluated in full through [Decay_space.of_fn], the walls
   by the orientation test with an absolute 1e-12 tolerance, summed in
   wall-list order. *)

module Radio = Core.Radio
module Rng = Core.Prelude.Rng

let tolerance_orientation px py qx qy rx ry =
  let v = ((qx -. px) *. (ry -. py)) -. ((qy -. py) *. (rx -. px)) in
  if v > 1e-12 then 1 else if v < -1e-12 then -1 else 0

let tolerance_crosses p1x p1y q1x q1y p2x p2y q2x q2y =
  let on_segment px py qx qy rx ry =
    Float.min px rx <= qx
    && qx <= Float.max px rx
    && Float.min py ry <= qy
    && qy <= Float.max py ry
  in
  let o1 = tolerance_orientation p1x p1y q1x q1y p2x p2y in
  let o2 = tolerance_orientation p1x p1y q1x q1y q2x q2y in
  let o3 = tolerance_orientation p2x p2y q2x q2y p1x p1y in
  let o4 = tolerance_orientation p2x p2y q2x q2y q1x q1y in
  if o1 <> o2 && o3 <> o4 then true
  else
    (o1 = 0 && on_segment p1x p1y p2x p2y q1x q1y)
    || (o2 = 0 && on_segment p1x p1y q2x q2y q1x q1y)
    || (o3 = 0 && on_segment p2x p2y p1x p1y q2x q2y)
    || (o4 = 0 && on_segment p2x p2y q1x q1y q2x q2y)

let tolerance_wall_loss_db env (a : Core.Geom.Point.t) (b : Core.Geom.Point.t)
    =
  List.fold_left
    (fun acc (w : Radio.Environment.wall) ->
      let s = w.segment in
      if tolerance_crosses a.x a.y b.x b.y s.a.x s.a.y s.b.x s.b.y then
        acc +. w.material.Radio.Material.attenuation_db
      else acc)
    0. (Radio.Environment.walls env)

let large_scale_loss_db config env a b =
  let loss =
    Radio.Propagation.large_scale_loss_db
      { config with Radio.Propagation.walls = false }
      env a b
  in
  if config.Radio.Propagation.walls then loss +. tolerance_wall_loss_db env a b
  else loss

let pair_rng ~seed ~ordered i j =
  let a, b = if ordered || i <= j then (i, j) else (j, i) in
  Rng.create ((seed * 1_000_003) + (a * 7919) + b)

let decay_space ?(seed = 0) ?(config = Radio.Propagation.default)
    ?(name = "radio") env (nodes : Radio.Node.t array) =
  let n = Array.length nodes in
  Decay_space.of_fn ~name n (fun i j ->
      let ni = nodes.(i) and nj = nodes.(j) in
      let loss = large_scale_loss_db config env ni.pos nj.pos in
      let loss =
        if config.Radio.Propagation.shadowing_sigma_db > 0. then begin
          let rng = pair_rng ~seed ~ordered:false i j in
          loss
          +. Rng.gaussian ~sigma:config.Radio.Propagation.shadowing_sigma_db rng
        end
        else loss
      in
      let loss =
        match config.Radio.Propagation.fading with
        | Radio.Propagation.No_fading -> loss
        | f ->
            let rng = pair_rng ~seed:(seed + 17) ~ordered:true i j in
            loss
            -. (10.
               *. log10
                    (Float.max 1e-12 (Radio.Propagation.fading_multiplier f rng))
               )
      in
      let loss =
        loss
        -. Radio.Node.gain_towards_db ni nj.pos
        -. Radio.Node.gain_towards_db nj ni.pos
      in
      Radio.Propagation.loss_to_decay loss)
