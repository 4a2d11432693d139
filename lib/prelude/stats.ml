let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let geometric_mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let acc =
      Array.fold_left
        (fun a x ->
          if x <= 0. then invalid_arg "Stats.geometric_mean: nonpositive sample"
          else a +. log x)
        0. xs
    in
    exp (acc /. float_of_int n)
  end

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty array";
  let lo = ref xs.(0) and hi = ref xs.(0) in
  for i = 0 to Array.length xs - 1 do
    lo := Float.min !lo xs.(i);
    hi := Float.max !hi xs.(i)
  done;
  (!lo, !hi)

let lt x y = Float.compare x y < 0

(* Introselect under [Float.compare]: rearrange [a] so that [a.(k)] holds
   the element a sort would put there, everything before it sorts no
   later and everything after it no earlier.  Hoare partitions around a
   median-of-three pivot narrow [lo, hi] to [k]; past 2 log2 n rounds
   (adversarial input) the remaining range is sorted instead. *)
let select a k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let depth = ref 0 in
  let len = ref (Array.length a) in
  while !len > 1 do
    depth := !depth + 2;
    len := !len / 2
  done;
  while !lo < !hi do
    if !depth = 0 then begin
      let len = !hi - !lo + 1 in
      let part = Array.sub a !lo len in
      Array.sort Float.compare part;
      Array.blit part 0 a !lo len;
      lo := !hi
    end
    else begin
      decr depth;
      let x =
        let u = a.(!lo) and v = a.(!lo + ((!hi - !lo) / 2)) and w = a.(!hi) in
        if lt u v then if lt v w then v else if lt u w then w else u
        else if lt u w then u
        else if lt v w then w
        else v
      in
      let i = ref !lo and j = ref !hi in
      while !i <= !j do
        while lt a.(!i) x do
          incr i
        done;
        while lt x a.(!j) do
          decr j
        done;
        if !i <= !j then begin
          let t = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- t;
          incr i;
          decr j
        end
      done;
      (* Now a.(lo..j) sort no later than x, a.(i..hi) no earlier, and
         anything between equals x. *)
      if !j < k then lo := !i;
      if k < !i then hi := !j
    end
  done

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  let a = Array.copy xs in
  select a lo;
  if lo = hi then a.(lo)
  else begin
    (* Everything past [lo] sorts no earlier than a.(lo), so the next
       order statistic is the smallest of them. *)
    let next = ref a.(hi) in
    for i = hi + 1 to n - 1 do
      if lt a.(i) !next then next := a.(i)
    done;
    let w = rank -. float_of_int lo in
    ((1. -. w) *. a.(lo)) +. (w *. !next)
  end

let median xs = percentile xs 50.

let pearson xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.pearson: length mismatch";
  if n < 2 then 0.
  else begin
    let mx = mean xs and my = mean ys in
    let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx = 0. || !syy = 0. then 0. else !sxy /. sqrt (!sxx *. !syy)
  end

(* Midranks: ties get the average of the ranks they span. *)
let midranks xs =
  let n = Array.length xs in
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare xs.(i) xs.(j)) order;
  let ranks = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(order.(!j + 1)) = xs.(order.(!i)) do
      incr j
    done;
    let avg = float_of_int (!i + !j) /. 2. +. 1. in
    for k = !i to !j do
      ranks.(order.(k)) <- avg
    done;
    i := !j + 1
  done;
  ranks

let spearman xs ys = pearson (midranks xs) (midranks ys)

type fit = { slope : float; intercept : float; r2 : float }

let linear_fit xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.linear_fit: length mismatch";
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let mx = mean xs and my = mean ys in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0. then { slope = 0.; intercept = my; r2 = 0. }
  else begin
    let slope = !sxy /. !sxx in
    let intercept = my -. (slope *. mx) in
    let r2 = if !syy = 0. then 1. else !sxy *. !sxy /. (!sxx *. !syy) in
    { slope; intercept; r2 }
  end

let loglog_fit xs ys =
  let check a =
    Array.iter
      (fun x -> if x <= 0. then invalid_arg "Stats.loglog_fit: nonpositive value")
      a
  in
  check xs;
  check ys;
  linear_fit (Array.map log xs) (Array.map log ys)

type histogram = { lo : float; hi : float; counts : int array }

let histogram ~bins xs =
  if bins < 1 then invalid_arg "Stats.histogram: bins must be >= 1";
  if Array.length xs = 0 then invalid_arg "Stats.histogram: empty array";
  let lo, hi = min_max xs in
  let counts = Array.make bins 0 in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = if b >= bins then bins - 1 else if b < 0 then 0 else b in
      counts.(b) <- counts.(b) + 1)
    xs;
  { lo; hi; counts }

let summary xs =
  if Array.length xs = 0 then "(empty)"
  else begin
    let lo, hi = min_max xs in
    Printf.sprintf "mean=%.4g sd=%.4g min=%.4g med=%.4g max=%.4g n=%d" (mean xs)
      (stddev xs) lo (median xs) hi (Array.length xs)
  end
