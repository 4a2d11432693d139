module Num = Bg_prelude.Numerics
module Par = Bg_prelude.Parallel
module Obs = Bg_prelude.Obs
module F = Decay_space.Flat

type witness = { x : int; y : int; z : int; value : float }

(* Validity of a given zeta for one triple.  Working in log space avoids
   repeated [**] on huge decays. *)
let triple_holds ~fxy ~fxz ~fzy z =
  let t = 1. /. z in
  exp (t *. log fxz) +. exp (t *. log fzy) >= exp (t *. log fxy)

(* The same predicate over precomputed logs.  Bit-identical to
   [triple_holds] whenever [lxy = log fxy] etc., because [log] is
   deterministic: the kernels below rely on this to reproduce the naive
   sweep exactly while never calling [log] inside a loop. *)
let holds_logs ~lxy ~lxz ~lzy z =
  let t = 1. /. z in
  exp (t *. lxz) +. exp (t *. lzy) >= exp (t *. lxy)

(* Relative bisection tolerance: every sweep bisects to it, and it is
   [zeta_triple]'s default. *)
let tol = 1e-9

let zeta_triple ?(tol = tol) fxy fxz fzy =
  if fxy <= fxz +. fzy then 1.
  else begin
    (* zeta >= lg (fxy / min side) always suffices: at that zeta the larger
       side alone is within a factor 2^(1/zeta) and the two sides add up. *)
    let m = Float.min fxz fzy in
    let p = triple_holds ~fxy ~fxz ~fzy in
    if p 1. then 1.
    else begin
      (* Bisect, returning the LOWER end of the final bracket.  Underestimating
         the threshold (by < tol) keeps the witness sweep's holds-at-incumbent
         fast path exactly consistent with value comparison: a triple that
         holds at z can never bisect above z, so skipping it commutes with
         taking maxima over any chunking of the sweep. *)
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

(* [zeta_triple] for a triple already known to violate the plain triangle
   inequality, with the logs precomputed: the bisection predicate reuses
   them, so the loop runs exp-only.  Same control flow, same floats, same
   result as the tail of [zeta_triple]. *)
let zeta_triple_logs ~fxy ~fxz ~fzy ~lxy ~lxz ~lzy =
  let p z = holds_logs ~lxy ~lxz ~lzy z in
  if p 1. then 1.
  else begin
    let m = Float.min fxz fzy in
    let lo = ref 1.
    and hi = ref (Float.max 1.5 (Num.log2 (fxy /. m) +. 1e-6)) in
    let iters = ref 0 in
    while !hi -. !lo > tol *. Float.max 1. (Float.abs !hi) && !iters < 200 do
      incr iters;
      let mid = 0.5 *. (!lo +. !hi) in
      if p mid then hi := mid else lo := mid
    done;
    !lo
  end

(* ------------------------------------------------- pruning bound tables *)

(* Per-row / per-column extrema of the off-diagonal decays, in both the
   raw and the log domain, plus tile-granular minima when the space is
   large enough for cache-blocked iteration.  O(n^2) to build — noise
   against the O(n^3) sweeps they prune.

   The pruning invariants (see doc page "flat kernels"):

   - zeta: by AM-GM, [fxz^t + fzy^t >= 2 (fxz fzy)^(t/2)] for t = 1/z > 0,
     so the threshold of a violating triple (x,y,z) is at most
     lg2 (fxy / sqrt (fxz * fzy)) — in log domain
     [lxy - (lxz + lzy)/2 <= ln2 * incumbent] proves the triple holds at
     the incumbent and can be skipped.  (This geometric-mean bound strictly
     dominates the min-side bound lg2 (fxy / min (fxz, fzy)): on geometric
     spaces it dismisses every triple whose two legs are within a ~5.8x
     ratio, which is nearly all of them.)  Substituting row/column/tile/
     global minima for [lxz] and [lzy] only weakens (never falsifies) the
     test, giving sound pair-, row- and tile-level skips.
   - phi: [v = fxy /. (fxz +. fzy)] and float [+.], [/.] are monotone, so
     [fxy /. (row_min + col_min)] computed in float arithmetic is an exact
     upper bound for every v in the z-loop — bounds at every granularity
     are safe without any epsilon margin (the skip is on strict [<] so a
     scope that could tie the incumbent is still scanned).
   - Witness determinism is visit-order independent: a skip is only ever
     justified against the CURRENT incumbent, which never decreases, and
     every skip proves its scope strictly below (zeta: margin; phi:
     strict [<]) the incumbent — so no skipped triple can be the final
     maximum or tie it.  Ties among visited triples are resolved
     lexicographically (smallest [(x, y, z)] in iteration coordinates
     wins), which is exactly the naive lexicographic sweep's first-seen
     tie-break.  That frees the kernels to tile and reorder the loops —
     panels over x, blocks over z — while staying bit-identical to
     [test/naive_ref.ml] at every job count. *)

let ln2 = log 2.

(* Margin covering float rounding of the log-domain bound vs the exp-based
   predicate: triples within the margin fall through to the exact check. *)
let prune_margin = 1e-9

let tile_size = 256
let tile_threshold = 512

(* Width of the x-panels the sweeps block over when [n >= tile_threshold]:
   for each y, the transpose rows [ft]/[lt] of y are reused by every x in
   the panel while the panel's own rows stay cache-resident, dividing the
   dominant memory stream by the panel width.  Below the threshold the
   panel degenerates to a single row and the loop nest is the classic
   x-outer sweep. *)
let panel_width = 16

(* Strict lower bounds of [e^(-j/8)] for j = 0..512 (so down to w = -64):
   libm's [exp] is within 1 ulp (~2.3e-16 relative), so scaling by
   (1 - 1e-13) makes every entry a rigorous underestimate.  The sweep
   combines [exp_lb.(j)] with a truncated alternating series for the
   fractional part to lower-bound [e^w] without calling [exp]. *)
let exp_lb =
  Array.init 513 (fun j -> exp (-0.125 *. float_of_int j) *. (1. -. 1e-13))

type bounds = {
  row_lmin : float array;
  row_lmax : float array;
  col_lmin : float array;
  gmin_l : float;
  row_fmin : float array;
  row_fmax : float array;
  col_fmin : float array;
  gmin_f : float;
  ntiles : int; (* 0 = tiling disabled *)
  row_tlmin : float array; (* x * ntiles + t *)
  col_tlmin : float array;
  row_tfmin : float array;
  col_tfmin : float array;
}

let build_bounds d =
  let n = Decay_space.n d in
  let f = F.data d in
  let lg = F.logs d in
  let ft = F.transpose d in
  let lt = F.log_transpose d in
  let ntiles =
    if n >= tile_threshold then (n + tile_size - 1) / tile_size else 0
  in
  let row_lmin = Array.make n infinity
  and row_lmax = Array.make n neg_infinity
  and col_lmin = Array.make n infinity
  and row_fmin = Array.make n infinity
  and row_fmax = Array.make n neg_infinity
  and col_fmin = Array.make n infinity in
  let row_tlmin = Array.make (max 1 (n * ntiles)) infinity
  and col_tlmin = Array.make (max 1 (n * ntiles)) infinity
  and row_tfmin = Array.make (max 1 (n * ntiles)) infinity
  and col_tfmin = Array.make (max 1 (n * ntiles)) infinity in
  for i = 0 to n - 1 do
    let base = i * n in
    for j = 0 to n - 1 do
      if j <> i then begin
        let v = F.unsafe_get f (base + j)
        and l = F.unsafe_get lg (base + j)
        and vt = F.unsafe_get ft (base + j)
        and ltv = F.unsafe_get lt (base + j) in
        if v < row_fmin.(i) then row_fmin.(i) <- v;
        if v > row_fmax.(i) then row_fmax.(i) <- v;
        if l < row_lmin.(i) then row_lmin.(i) <- l;
        if l > row_lmax.(i) then row_lmax.(i) <- l;
        if vt < col_fmin.(i) then col_fmin.(i) <- vt;
        if ltv < col_lmin.(i) then col_lmin.(i) <- ltv;
        if ntiles > 0 then begin
          let t = (i * ntiles) + (j / tile_size) in
          if l < row_tlmin.(t) then row_tlmin.(t) <- l;
          if ltv < col_tlmin.(t) then col_tlmin.(t) <- ltv;
          if v < row_tfmin.(t) then row_tfmin.(t) <- v;
          if vt < col_tfmin.(t) then col_tfmin.(t) <- vt
        end
      end
    done
  done;
  let gmin_l = Array.fold_left Float.min infinity row_lmin
  and gmin_f = Array.fold_left Float.min infinity row_fmin in
  {
    row_lmin; row_lmax; col_lmin; gmin_l;
    row_fmin; row_fmax; col_fmin; gmin_f;
    ntiles; row_tlmin; col_tlmin; row_tfmin; col_tfmin;
  }

(* Lexicographic order on iteration coordinates — the naive sweep's
   first-seen tie-break, made explicit so any visit order agrees with it. *)
let lex_before x y z x' y' z' =
  x < x' || (x = x' && (y < y' || (y = y' && z < z')))

(* Combine chunked best-witnesses: strict value improvement, ties broken
   towards the lexicographically smaller triple.  Associative-enough for
   the chunked fold at any chunking, and exactly the sequential sweep's
   result. *)
let better a b =
  if b.value > a.value then b
  else if b.value = a.value && lex_before b.x b.y b.z a.x a.y a.z then b
  else a

(* phi stores its witness with the y/z roles swapped (see [phi_chunk]);
   its iteration coordinates are [(w.x, w.z, w.y)]. *)
let better_phi a b =
  if b.value > a.value then b
  else if b.value = a.value && lex_before b.x b.z b.y a.x a.z a.y then b
  else a

(* ------------------------------------------------------ kernel counters *)

(* Pruning diagnostics, published as [kernel.*] Obs counters; they never
   influence results.  Chunks never write shared state from worker
   domains: each fills a private [tally], tallies are summed in the
   deterministic combine of [Par.map_reduce_chunks], and the caller
   publishes the total once per sweep, so the counts do not depend on
   worker interleaving. *)

let sweeps = Obs.counter "kernel.sweeps"
let triples = Obs.counter "kernel.triples"
let plain_skips = Obs.counter "kernel.plain_skips"
let cheap_skips = Obs.counter "kernel.cheap_skips"
let deep = Obs.counter "kernel.deep"
let exp_evals = Obs.counter "kernel.exp_evals"
let bisections = Obs.counter "kernel.bisections"
let row_prunes = Obs.counter "kernel.row_prunes"
let pair_prunes = Obs.counter "kernel.pair_prunes"
let tile_prunes = Obs.counter "kernel.tile_prunes"

type tally = {
  t_plain : int; (* dismissed by the plain triangle inequality *)
  t_cheap : int; (* dismissed by the log-domain incumbent bound *)
  t_deep : int; (* reached the exp check / bisection stage *)
  t_exp : int; (* ran the 3-exp holds test *)
  t_bis : int; (* ran the full bisection *)
  t_rows : int; (* whole rows skipped by the row bound *)
  t_pairs : int; (* whole z-loops skipped by the pair bound *)
  t_tiles : int; (* z-tiles skipped by the tile bound *)
}

let empty_tally =
  { t_plain = 0; t_cheap = 0; t_deep = 0; t_exp = 0; t_bis = 0; t_rows = 0;
    t_pairs = 0; t_tiles = 0 }

let merge a b =
  {
    t_plain = a.t_plain + b.t_plain;
    t_cheap = a.t_cheap + b.t_cheap;
    t_deep = a.t_deep + b.t_deep;
    t_exp = a.t_exp + b.t_exp;
    t_bis = a.t_bis + b.t_bis;
    t_rows = a.t_rows + b.t_rows;
    t_pairs = a.t_pairs + b.t_pairs;
    t_tiles = a.t_tiles + b.t_tiles;
  }

(* Count one executed sweep over all ordered triples of n nodes. *)
let record_sweep n =
  Obs.incr sweeps;
  Obs.add triples (n * (n - 1) * (n - 2))

let publish t =
  Obs.add plain_skips t.t_plain;
  Obs.add cheap_skips t.t_cheap;
  Obs.add deep t.t_deep;
  Obs.add exp_evals t.t_exp;
  Obs.add bisections t.t_bis;
  Obs.add row_prunes t.t_rows;
  Obs.add pair_prunes t.t_pairs;
  Obs.add tile_prunes t.t_tiles;
  (* When tracing, pin the sweep's pruning story to its span. *)
  if Obs.tracing () then begin
    Obs.add_span_attr "plain_skips" (Obs.I t.t_plain);
    Obs.add_span_attr "cheap_skips" (Obs.I t.t_cheap);
    Obs.add_span_attr "deep" (Obs.I t.t_deep);
    Obs.add_span_attr "bisections" (Obs.I t.t_bis)
  end

(* ----------------------------------------------------------- zeta sweep *)

let zeta_chunk d bb init x_lo x_hi =
  let n = Decay_space.n d in
  let f = F.data d in
  let lg = F.logs d in
  let ft = F.transpose d in
  let lt = F.log_transpose d in
  let c_plain = ref 0 and c_scanned = ref 0 and c_deep = ref 0
  and c_exp = ref 0 and c_bis = ref 0
  and c_rows = ref 0 and c_pairs = ref 0 and c_tiles = ref 0
  and c_phantom = ref 0 in
  let best = ref init in
  (* Mutable hot-loop scalars, kept in a float array so the loop reads
     them unboxed (a [float ref] would box):
       [state.(0)] — the geometric-mean skip threshold [cut],
       [state.(1)] — [1 /. incumbent], the exponent used by the cubic
                     sandwich test.
     Both are refreshed at every (x, y) pair and whenever the incumbent
     grows.  Using a reciprocal computed from an incumbent that was
     current at refresh time is sound even if it could go stale: a
     smaller incumbent only makes every test more conservative. *)
  let state = Array.make 2 0. in
  (* [tcount = 1] with [bb.ntiles = 0] degenerates the tile loop to a
     single untruncated z-range, so small and large n share one kernel
     body (the candidate logic below is deliberately inlined once — as a
     local closure it cost an indirect call plus environment loads per
     candidate, ~25 ns on 2.4M calls at n = 256). *)
  let tcount = if bb.ntiles = 0 then 1 else bb.ntiles in
  let pw = if n >= tile_threshold then panel_width else 1 in
  let row_done = Array.make pw false in
  let p_lo = ref x_lo in
  while !p_lo < x_hi do
    let p0 = !p_lo in
    let p_hi = min x_hi (p0 + pw) in
    (* Row-skip prepass against the incumbent at panel entry.  The row
       bound is monotone in the incumbent, so a row dismissed here stays
       dismissed; a row it cannot dismiss yet is still covered pair by
       pair below (the pair bound dominates the row bound). *)
    for x = p0 to p_hi - 1 do
      let skip =
        bb.row_lmax.(x) -. (0.5 *. (bb.row_lmin.(x) +. bb.gmin_l))
        <= (ln2 *. (!best).value) -. prune_margin
      in
      row_done.(x - p0) <- skip;
      if skip then incr c_rows
    done;
    for y = 0 to n - 1 do
      for x = p0 to p_hi - 1 do
        if (not row_done.(x - p0)) && y <> x then begin
          let row = x * n in
          let fxy = F.unsafe_get f (row + y) in
          let lxy = F.unsafe_get lg (row + y) in
          let psum = 0.5 *. (bb.row_lmin.(x) +. bb.col_lmin.(y)) in
          if lxy -. psum <= (ln2 *. (!best).value) -. prune_margin then
            incr c_pairs
          else begin
            let yrow = y * n in
            (* The z-loop's hot path touches only the two log streams: a
               triple enters the candidate block iff [lxz + lzy < cut],
               i.e. the geometric-mean bound cannot dismiss it at the
               incumbent.  The loop runs over ALL z including x and y —
               the diagonal zeros route those through the plain-triangle
               branch ([fxz = 0], [fzy = fxy], so [fxy <= fxz +. fzy]
               holds) and [c_phantom] backs them out of the counters.
               The raw plain check lives inside the candidate block: a
               sound skip needs no raw loads, and a margin-band
               fall-through that bisects a plain triple is harmless
               because [zeta_triple_logs] re-checks [fxy <= fxz +. fzy]
               and returns 1. *)
            Array.unsafe_set state 0
              (2. *. (lxy -. ((ln2 *. (!best).value) -. prune_margin)));
            Array.unsafe_set state 1 (1. /. (!best).value);
            for t = 0 to tcount - 1 do
              let lo = t * tile_size in
              let hi = if bb.ntiles = 0 then n else min n (lo + tile_size) in
              if
                bb.ntiles > 0
                && lxy
                   -. (0.5
                      *. (bb.row_tlmin.((x * bb.ntiles) + t)
                         +. bb.col_tlmin.((y * bb.ntiles) + t)))
                   <= (ln2 *. (!best).value) -. prune_margin
              then incr c_tiles
              else begin
                for z = lo to hi - 1 do
                  let lxz = F.unsafe_get lg (row + z)
                  and lzy = F.unsafe_get lt (yrow + z) in
                  if lxz +. lzy < Array.unsafe_get state 0 then begin
                    (* Branchless leg split ([Float.abs] compiles to a
                       sign-mask, no data-dependent branch):
                         lmax = (lxz + lzy + |lxz - lzy|) / 2,
                         lmin - lmax = -|lxz - lzy|. *)
                    let dl = Float.abs (lxz -. lzy) in
                    let lmax = 0.5 *. (lxz +. lzy +. dl) in
                    if lxy <= lmax -. prune_margin then
                      (* fxy < max leg with real-math margin, so the
                         naive plain-triangle check passes too: a sound
                         skip with no raw loads. *)
                      incr c_plain
                    else begin
                      (* Normalized log-domain coordinates at the
                         incumbent:  holds <=> u <= g (w),
                         g (w) = ln (1 + e^w), with
                         u = (lxy - lmax)/z >= 0 and
                         w = (lmin - lmax)/z <= 0.  g''' (0) = 0 and
                         g'''' >= -1/8 everywhere, so the order-3 Taylor
                         expansion with its Lagrange remainder gives the
                         arithmetic-only minorant
                           ln2 + w/2 + w^2/8 - w^4/192 <= g (w)
                         and the quartic test can prove 'holds' without
                         transcendentals.  A diagonal z (z = x or z = y)
                         has an infinite log and drifts through here as
                         NaN — every comparison fails and it lands on
                         the exact plain check in the deep block. *)
                      let ti = Array.unsafe_get state 1 in
                      let u = ti *. (lxy -. lmax) in
                      let w = -. (ti *. dl) in
                      let w2 = w *. w in
                      if
                        u
                        <= ln2
                           +. (0.5 *. w)
                           +. (w2 *. (0.125 -. (w2 *. 0.005208333333333334)))
                           -. prune_margin
                      then ()
                      else begin
                        (* Second-chance arithmetic bound for the far
                           tail (w << 0, where the cubic goes negative):
                           split w = -j/8 - r with j integer and
                           r in [0, 1/8); then
                             e^w >= exp_lb.(j) * (1 - r + r^2/2 - r^3/6)
                           (table entries underestimate e^(-j/8); the
                           truncated alternating series underestimates
                           e^(-r)), and with t = p/(p + 2) the artanh
                           series gives
                             g (w) = ln (1 + e^w) >= 2t + 2t^3/3
                           (remaining terms all positive) — a table
                           load, a short polynomial and one divide
                           instead of exp + log1p, within ~1e-5 relative
                           of exact. *)
                        let p =
                          if w >= -64. then begin
                            let j = int_of_float (-8. *. w) in
                            let r = -.w -. (0.125 *. float_of_int j) in
                            Array.unsafe_get exp_lb j
                            *. (1.
                               -. (r
                                  *. (1.
                                     -. (r
                                        *. (0.5
                                           -. (r *. 0.16666666666666666))))))
                          end
                          else 0.
                        in
                        let t' = p /. (2. +. p) in
                        if
                          u
                          <= (t' *. (2. +. (0.6666666666666666 *. t' *. t')))
                             -. prune_margin
                        then ()
                        else begin
                        (* Only now touch the raw streams: the exact
                           plain-triangle test (bit-identical to the
                           naive sweep's) and, past it, the one-exp
                           sandwich against the margin. *)
                        let fxz = F.unsafe_get f (row + z)
                        and fzy = F.unsafe_get ft (yrow + z) in
                        if fxy <= fxz +. fzy then incr c_plain
                        else begin
                        incr c_deep;
                        incr c_exp;
                        let g = Float.log1p (exp w) in
                        let b = !best in
                        let holds =
                          if u <= g -. prune_margin then true
                          else if u > g +. prune_margin then
                            false (* provably fails at the incumbent *)
                          else holds_logs ~lxy ~lxz ~lzy b.value
                        in
                        if not holds then begin
                          incr c_bis;
                          let v =
                            zeta_triple_logs ~fxy ~fxz ~fzy ~lxy ~lxz ~lzy
                          in
                          if
                            v > b.value
                            || (v = b.value
                               && lex_before x y z b.x b.y b.z)
                          then begin
                            best := { x; y; z; value = v };
                            Array.unsafe_set state 0
                              (2. *. (lxy -. ((ln2 *. v) -. prune_margin)));
                            Array.unsafe_set state 1 (1. /. v)
                          end
                        end
                        end
                      end
                      end
                    end
                  end
                done;
                c_scanned := !c_scanned + (hi - lo);
                if lo <= x && x < hi then incr c_phantom;
                if lo <= y && y < hi then incr c_phantom
              end
            done
          end
        end
      done
    done;
    p_lo := p_hi
  done;
  ( !best,
    {
      t_plain = !c_plain - !c_phantom;
      t_cheap = !c_scanned - !c_plain - !c_deep;
      t_deep = !c_deep;
      t_exp = !c_exp;
      t_bis = !c_bis;
      t_rows = !c_rows;
      t_pairs = !c_pairs;
      t_tiles = !c_tiles;
    } )

let zeta_sweep ~jobs d =
  let n = Decay_space.n d in
  (* Warm the views and bound tables on the caller's thread: construction
     is race-free either way, this just keeps the build cost out of the
     parallel region. *)
  let bb = build_bounds d in
  Obs.with_span ~attrs:[ ("n", Obs.I n); ("jobs", Obs.I jobs) ] "zeta_sweep"
  @@ fun () ->
  record_sweep n;
  let init = { x = 0; y = 1; z = 2; value = 1. } in
  let witness, tally =
    Par.map_reduce_chunks ~jobs ~lo:0 ~hi:n ~neutral:(init, empty_tally)
      ~map:(fun x_lo x_hi -> zeta_chunk d bb init x_lo x_hi)
      ~combine:(fun (w1, t1) (w2, t2) -> (better w1 w2, merge t1 t2))
  in
  publish tally;
  witness

let zeta_witness ?(ctx = Ctx.default) d =
  if Decay_space.n d < 3 then { x = 0; y = 0; z = 0; value = 1. }
  else zeta_sweep ~jobs:(Ctx.jobs ctx) d

let zeta ?ctx d = (zeta_witness ?ctx d).value

let zeta_upper_bound ?jobs d =
  let n = Decay_space.n d in
  if n < 2 then 1.
  else begin
    let f = F.data d in
    let mn, mx =
      Par.map_reduce_chunks
        ~jobs:(Par.resolve_jobs jobs)
        ~lo:0 ~hi:n ~neutral:(infinity, 0.)
        ~map:(fun lo hi ->
          let mn = ref infinity and mx = ref 0. in
          for i = lo to hi - 1 do
            let base = i * n in
            for j = 0 to n - 1 do
              if i <> j then begin
                let v = F.unsafe_get f (base + j) in
                if v < !mn then mn := v;
                if v > !mx then mx := v
              end
            done
          done;
          (!mn, !mx))
        ~combine:(fun (mn1, mx1) (mn2, mx2) ->
          (Float.min mn1 mn2, Float.max mx1 mx2))
    in
    Float.max 1. (Num.log2 (mx /. mn))
  end

let holds_at ?jobs d z =
  let n = Decay_space.n d in
  n < 3
  ||
  let z' = z +. 1e-7 in
  let bb = build_bounds d in
  let f = F.data d in
  let lg = F.logs d in
  let ft = F.transpose d in
  let lt = F.log_transpose d in
  let chunk x_lo x_hi =
    let ok = ref true in
    let x = ref x_lo in
    while !ok && !x < x_hi do
      let x0 = !x in
      let row = x0 * n in
      if
        not
          (bb.row_lmax.(x0) -. (0.5 *. (bb.row_lmin.(x0) +. bb.gmin_l))
          <= (ln2 *. z') -. prune_margin)
      then begin
        let y = ref 0 in
        while !ok && !y < n do
          let y0 = !y in
          if y0 <> x0 then begin
            let lxy = F.unsafe_get lg (row + y0) in
            let psum = 0.5 *. (bb.row_lmin.(x0) +. bb.col_lmin.(y0)) in
            if not (lxy -. psum <= (ln2 *. z') -. prune_margin) then begin
              let fxy = F.unsafe_get f (row + y0) in
              let yrow = y0 * n in
              let zi = ref 0 in
              while !ok && !zi < n do
                let z0 = !zi in
                if z0 <> x0 && z0 <> y0 then begin
                  let fxz = F.unsafe_get f (row + z0)
                  and fzy = F.unsafe_get ft (yrow + z0) in
                  if fxy > fxz +. fzy then begin
                    let lxz = F.unsafe_get lg (row + z0)
                    and lzy = F.unsafe_get lt (yrow + z0) in
                    if
                      not
                        (lxy -. (0.5 *. (lxz +. lzy))
                        <= (ln2 *. z') -. prune_margin)
                    then
                      if
                        lxy -. Float.max lxz lzy > (ln2 *. z') +. prune_margin
                      then ok := false (* provably fails at z' *)
                      else if not (holds_logs ~lxy ~lxz ~lzy z') then
                        ok := false
                  end
                end;
                incr zi
              done
            end
          end;
          incr y
        done
      end;
      incr x
    done;
    !ok
  in
  Par.map_reduce_chunks
    ~jobs:(Par.resolve_jobs jobs)
    ~lo:0 ~hi:n ~neutral:true ~map:chunk ~combine:( && )

(* ------------------------------------------------------------ phi sweep *)

let phi_chunk d bb init x_lo x_hi =
  let n = Decay_space.n d in
  let f = F.data d in
  let ft = F.transpose d in
  let c_rows = ref 0 and c_pairs = ref 0 and c_tiles = ref 0
  and c_deep = ref 0 in
  let best = ref init in
  let pw = if n >= tile_threshold then panel_width else 1 in
  let row_done = Array.make pw false in
  let p_lo = ref x_lo in
  while !p_lo < x_hi do
    let p0 = !p_lo in
    let p_hi = min x_hi (p0 + pw) in
    (* Float [+.] and [/.] are monotone, so these bounds dominate every v
       in their scope exactly.  Skips are on strict [<]: a scope whose
       bound ties the incumbent is still scanned, so the lex tie-break
       below sees every potential tying triple whatever the visit
       order. *)
    for x = p0 to p_hi - 1 do
      let skip =
        bb.row_fmax.(x) /. (bb.row_fmin.(x) +. bb.gmin_f) < (!best).value
      in
      row_done.(x - p0) <- skip;
      if skip then incr c_rows
    done;
    for y = 0 to n - 1 do
      for x = p0 to p_hi - 1 do
        if (not row_done.(x - p0)) && y <> x then begin
          let row = x * n in
          let fxy = F.unsafe_get f (row + y) in
          if fxy /. (bb.row_fmin.(x) +. bb.col_fmin.(y)) < (!best).value
          then incr c_pairs
          else begin
            let yrow = y * n in
            let scan z_lo z_hi =
              for z = z_lo to z_hi - 1 do
                if z <> x && z <> y then begin
                  let fxz = F.unsafe_get f (row + z)
                  and fzy = F.unsafe_get ft (yrow + z) in
                  incr c_deep;
                  let v = fxy /. (fxz +. fzy) in
                  let b = !best in
                  (* phi compares f(x,z) against f(x,y) + f(y,z): outer
                     pair (x,z) with midpoint y.  The iterator hands us
                     exactly that inequality's decays with roles named
                     (x, y, z) = (start, end, midpoint), so the witness
                     stores the iterator's z as the midpoint field y. *)
                  if
                    v > b.value
                    || (v = b.value && lex_before x y z b.x b.z b.y)
                  then best := { x; y = z; z = y; value = v }
                end
              done
            in
            if bb.ntiles = 0 then scan 0 n
            else
              for t = 0 to bb.ntiles - 1 do
                let tmin =
                  bb.row_tfmin.((x * bb.ntiles) + t)
                  +. bb.col_tfmin.((y * bb.ntiles) + t)
                in
                if fxy /. tmin < (!best).value then incr c_tiles
                else scan (t * tile_size) (min n ((t + 1) * tile_size))
              done
          end
        end
      done
    done;
    p_lo := p_hi
  done;
  ( !best,
    {
      empty_tally with
      t_deep = !c_deep;
      t_rows = !c_rows;
      t_pairs = !c_pairs;
      t_tiles = !c_tiles;
    } )

let phi_sweep ~jobs d =
  let n = Decay_space.n d in
  let bb = build_bounds d in
  Obs.with_span ~attrs:[ ("n", Obs.I n); ("jobs", Obs.I jobs) ] "phi_sweep"
  @@ fun () ->
  record_sweep n;
  let init = { x = 0; y = 2; z = 1; value = 1. } in
  let witness, tally =
    Par.map_reduce_chunks ~jobs ~lo:0 ~hi:n ~neutral:(init, empty_tally)
      ~map:(fun x_lo x_hi -> phi_chunk d bb init x_lo x_hi)
      ~combine:(fun (w1, t1) (w2, t2) -> (better_phi w1 w2, merge t1 t2))
  in
  publish tally;
  witness

let phi_witness ?(ctx = Ctx.default) d =
  if Decay_space.n d < 3 then { x = 0; y = 0; z = 0; value = 1. }
  else phi_sweep ~jobs:(Ctx.jobs ctx) d

let phi ?ctx d = (phi_witness ?ctx d).value
let phi_log ?ctx d = Num.log2 (phi ?ctx d)
let clear_caches () = ()
