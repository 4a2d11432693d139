type summary = {
  n : int;
  min_db : float;
  max_db : float;
  median_db : float;
  dynamic_range_db : float;
  asymmetry_db : float;
}

let db x = 10. *. log10 x

(* Filled from the back: reverse row-major order, as documented. *)
let decays_db d =
  let n = Decay_space.n d in
  let f = Decay_space.Flat.data d in
  let out = Array.make (n * (n - 1)) 0. in
  let k = ref (Array.length out) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        decr k;
        out.(!k) <- db (Decay_space.Flat.unsafe_get f ((i * n) + j))
      end
    done
  done;
  out

(* The upper triangle's dB values, one per unordered pair. *)
let upper_db d =
  let n = Decay_space.n d in
  let f = Decay_space.Flat.data d in
  let out = Array.make (n * (n - 1) / 2) 0. in
  let k = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      out.(!k) <- db (Decay_space.Flat.unsafe_get f ((i * n) + j));
      incr k
    done
  done;
  out

(* The largest |dB| ratio of a pair's two directions.  Rows are chunked;
   the strict [>] in combine keeps the earliest maximizer, matching the
   sequential pass exactly. *)
let asymmetry ~jobs d =
  let n = Decay_space.n d in
  Bg_prelude.Parallel.map_reduce_chunks ~jobs ~lo:0 ~hi:n ~neutral:0.
    ~map:(fun i_lo i_hi ->
      let worst = ref 0. in
      for i = i_lo to i_hi - 1 do
        for j = i + 1 to n - 1 do
          let a =
            Float.abs (db (Decay_space.decay d i j /. Decay_space.decay d j i))
          in
          if a > !worst then worst := a
        done
      done;
      !worst)
    ~combine:(fun a b -> if b > a then b else a)

(* On an exactly symmetric space every dB value appears twice among the
   ordered pairs, so the upper triangle has the same minimum and maximum,
   and the two middle ranks of the doubled multiset fall on the
   triangle's middle ranks: both medians interpolate the same two values
   with weight 0.5, or average one value with itself, which is that
   value.  Its asymmetry is [|db 1.|] = 0 for every pair. *)
let summarize ?(ctx = Ctx.default) d =
  let n = Decay_space.n d in
  if n < 2 then invalid_arg "Statistics.summarize: need at least 2 nodes";
  let xs, asym =
    if Decay_space.exactly_symmetric d then (upper_db d, 0.)
    else (decays_db d, asymmetry ~jobs:(Ctx.jobs ctx) d)
  in
  let lo, hi = Bg_prelude.Stats.min_max xs in
  {
    n;
    min_db = lo;
    max_db = hi;
    median_db = Bg_prelude.Stats.median xs;
    dynamic_range_db = hi -. lo;
    asymmetry_db = asym;
  }

let effective_alpha ~positions d =
  let n = Decay_space.n d in
  if Array.length positions <> n then
    invalid_arg "Statistics.effective_alpha: positions length mismatch";
  let dists = ref [] and decays = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let dist = Bg_geom.Point.dist positions.(i) positions.(j) in
        if dist > 0. then begin
          dists := dist :: !dists;
          decays := Decay_space.decay d i j :: !decays
        end
      end
    done
  done;
  Bg_prelude.Stats.loglog_fit (Array.of_list !dists) (Array.of_list !decays)
