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

(* Per-row / per-column extrema of the off-diagonal decays, in the log
   domain for zeta and the raw one for phi, plus tile-granular minima
   when the space is large enough for cache-blocked iteration.  O(n^2)
   to build, against the O(n^3) sweeps they prune.

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
  row_min : float array;
  row_max : float array;
  col_min : float array;
  gmin : float;
  ntiles : int; (* 0 = tiling disabled *)
  row_tmin : float array; (* x * ntiles + t *)
  col_tmin : float array;
}

(* The bound tables of one domain, from its row-major buffer [a] and its
   transpose [at]: zeta reads the logs, phi the decays themselves. *)
let build_bounds n (a : F.buf) (at : F.buf) =
  let ntiles =
    if n >= tile_threshold then (n + tile_size - 1) / tile_size else 0
  in
  let row_min = Array.make n infinity
  and row_max = Array.make n neg_infinity
  and col_min = Array.make n infinity in
  let row_tmin = Array.make (max 1 (n * ntiles)) infinity
  and col_tmin = Array.make (max 1 (n * ntiles)) infinity in
  for i = 0 to n - 1 do
    let base = i * n in
    let rmin = ref infinity and rmax = ref neg_infinity
    and cmin = ref infinity in
    for t = 0 to max 1 ntiles - 1 do
      let lo = t * tile_size in
      let hi = if ntiles = 0 then n else min n (lo + tile_size) in
      let tmin = ref infinity and tcmin = ref infinity in
      for j = lo to hi - 1 do
        if j <> i then begin
          let v = F.unsafe_get a (base + j)
          and vt = F.unsafe_get at (base + j) in
          if v < !tmin then tmin := v;
          if v > !rmax then rmax := v;
          if vt < !tcmin then tcmin := vt
        end
      done;
      if ntiles > 0 then begin
        row_tmin.((i * ntiles) + t) <- !tmin;
        col_tmin.((i * ntiles) + t) <- !tcmin
      end;
      if !tmin < !rmin then rmin := !tmin;
      if !tcmin < !cmin then cmin := !tcmin
    done;
    row_min.(i) <- !rmin;
    row_max.(i) <- !rmax;
    col_min.(i) <- !cmin
  done;
  let gmin = Array.fold_left Float.min infinity row_min in
  { row_min; row_max; col_min; gmin; ntiles; row_tmin; col_tmin }

let log_bounds d =
  build_bounds (Decay_space.n d) (F.logs d) (F.log_transpose d)

let decay_bounds d = build_bounds (Decay_space.n d) (F.data d) (F.transpose d)

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

(* phi stores its witness with the y/z roles swapped (see [phi_stripe]);
   its iteration coordinates are [(w.x, w.z, w.y)]. *)
let better_phi a b =
  if b.value > a.value then b
  else if b.value = a.value && lex_before b.x b.z b.y a.x a.z a.y then b
  else a

(* ------------------------------------------------------ kernel counters *)

(* Pruning diagnostics, published as [kernel.*] Obs counters; they never
   influence results.  Stripes never write shared state from worker
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
let minplus_rows = Obs.counter "kernel.minplus_rows"

type tally = {
  t_plain : int; (* dismissed by the plain triangle inequality *)
  t_cheap : int; (* dismissed by the incumbent bound or the min-plus pass *)
  t_deep : int; (* reached the exp check / bisection stage *)
  t_exp : int; (* ran the 3-exp holds test *)
  t_bis : int; (* ran the full bisection *)
  t_rows : int; (* whole rows skipped by the row bound *)
  t_pairs : int; (* whole z-loops skipped by the pair bound *)
  t_tiles : int; (* z-tiles skipped by the tile bound *)
  t_minplus : int; (* rows whose pairs the min-plus pass screened *)
  t_mirror : int; (* pairs y < x left to their mirror (x, y) *)
}

let empty_tally =
  { t_plain = 0; t_cheap = 0; t_deep = 0; t_exp = 0; t_bis = 0; t_rows = 0;
    t_pairs = 0; t_tiles = 0; t_minplus = 0; t_mirror = 0 }

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
    t_minplus = a.t_minplus + b.t_minplus;
    t_mirror = a.t_mirror + b.t_mirror;
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
  Obs.add minplus_rows t.t_minplus;
  (* When tracing, pin the sweep's pruning story to its span. *)
  if Obs.tracing () then begin
    Obs.add_span_attr "plain_skips" (Obs.I t.t_plain);
    Obs.add_span_attr "cheap_skips" (Obs.I t.t_cheap);
    Obs.add_span_attr "deep" (Obs.I t.t_deep);
    Obs.add_span_attr "bisections" (Obs.I t.t_bis);
    Obs.add_span_attr "minplus_rows" (Obs.I t.t_minplus);
    Obs.add_span_attr "mirrored" (Obs.I t.t_mirror)
  end

(* -------------------------------------------------------- min-plus pass *)

(* Where pruning fails — on geometric spaces the bounds dismiss ~1% of
   the triples — both sweeps screen their pairs with one row pass of a
   min-plus product instead:

     m(x,y) = min over ALL z of a(x,z) +. a(z,y).

   - phi runs it on the decays themselves.  For positive operands float
     [/.] is monotone in its divisor, so [f(x,y) /. m(x,y)] is the
     pair's largest ratio [f(x,y) /. (f(x,z) +. f(z,y))], bit for bit.
     The diagonal terms (z = x or z = y) add 0 to f(x,y) and give the
     ratio 1, and the initial witness is the lex-first triple at value
     1, so a pair whose maximum is at most 1 cannot replace it.  A pair
     whose maximum is below the incumbent is dismissed; every other pair
     runs its ordinary z-loop, which keeps the lex tie rule.
   - zeta runs it on [G = exp ((1. /. v0) *. log f)] for an incumbent v0
     it starts from (the seed below).  These are the floats [holds_logs]
     computes at v0, so [m(x,y) >= G(x,y)] says exactly that every
     triple of the pair holds at v0 (the diagonal terms are G(x,y)
     itself, since G is 0 on the diagonal).  Such a pair holds at
     v0 <= incumbent, which is the property the incumbent skip already
     relies on: a triple that holds at z never bisects above z.  A
     triple whose value is V fails at V, so a pair holding a triple that
     ties or beats the incumbent is still flagged, and ties reach the
     lex check.  Flagged pairs run the ordinary z-loop at the current
     incumbent, bisection included.
   - Both sweeps start every stripe from the same seed, the exact witness
     of an induced sub-space (a real triple with its real value), so no
     result depends on [jobs]; the seed is what lets one G table serve
     the whole zeta sweep.

   The pass streams row z once per block of up to [block] rows: one add
   and one compare per triple, no [exp], no division, and no branch for
   z = x or z = y.  It costs n^2 per row whatever the bounds say, so a
   sweep takes it only where the bounds would let most pairs through. *)

type fbuf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Rows per pass block: each loaded cell of row z feeds this many minima. *)
let block = 4

(* Spaces below this size (the serving workload's) never take the pass. *)
let minplus_floor = 64

(* [minplus a n ~y_lo rows k m] sets [m.(r * n + y)] for [y >= y_lo] to
   the min-plus row of [x = rows.(r)] for [r < k <= block]; slots
   [k..block-1] repeat the last row.  [m] holds [block * n] cells,
   allocated once per stripe. *)
let minplus (a : fbuf) n ~y_lo rows k m =
  let x0 = rows.(0)
  and x1 = rows.(min 1 (k - 1))
  and x2 = rows.(min 2 (k - 1))
  and x3 = rows.(k - 1) in
  Array.fill m 0 (block * n) infinity;
  for z = 0 to n - 1 do
    let a0 = Bigarray.Array1.unsafe_get a ((x0 * n) + z)
    and a1 = Bigarray.Array1.unsafe_get a ((x1 * n) + z)
    and a2 = Bigarray.Array1.unsafe_get a ((x2 * n) + z)
    and a3 = Bigarray.Array1.unsafe_get a ((x3 * n) + z) in
    let zr = z * n in
    for y = y_lo to n - 1 do
      let b = Bigarray.Array1.unsafe_get a (zr + y) in
      let v = a0 +. b in
      if v < Array.unsafe_get m y then Array.unsafe_set m y v;
      let v = a1 +. b and i = n + y in
      if v < Array.unsafe_get m i then Array.unsafe_set m i v;
      let v = a2 +. b and i = (2 * n) + y in
      if v < Array.unsafe_get m i then Array.unsafe_set m i v;
      let v = a3 +. b and i = (3 * n) + y in
      if v < Array.unsafe_get m i then Array.unsafe_set m i v
    done
  done

(* [exp (t *. log f)] cell by cell (0 on the diagonal): at [t = 1. /. v]
   exactly the floats [holds_logs] compares at [v].  On a symmetric space
   one [exp] fills a cell and its mirror; units of 16 rows keep two
   stripes' mirrored column writes off each other's cache lines. *)
let exp_table ~jobs d t =
  let n = Decay_space.n d in
  let lg = F.logs d in
  let sym = Decay_space.exactly_symmetric d in
  let g = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (n * n) in
  let rows = 16 in
  let units = (n + rows - 1) / rows in
  Par.map_reduce_stripes ~jobs ~units ~neutral:() ~combine:(fun () () -> ())
    ~map:(fun ~stripes s ->
      let u = ref s in
      while !u < units do
        for i = !u * rows to min n ((!u + 1) * rows) - 1 do
          let row = i * n in
          for j = (if sym then i else 0) to n - 1 do
            let v = exp (t *. F.unsafe_get lg (row + j)) in
            Bigarray.Array1.unsafe_set g (row + j) v;
            if sym then Bigarray.Array1.unsafe_set g ((j * n) + i) v
          done
        done;
        u := !u + stripes
      done);
  g

let no_table = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0

type path = Pruned | Minplus
type dispatch = Auto | Only of path

(* Both sweeps deal their rows to the pool in interleaved stripes, one
   unit of rows at a time: one pass block, or one x-panel from
   [tile_threshold] nodes.  On a symmetric space row x holds the
   n - 1 - x pairs right of the diagonal, so contiguous chunks would
   leave the first one three quarters of the work.  Every stripe starts
   from the seed and threads its own incumbent, and [better] picks by
   value, then lex order, so the witness does not depend on the
   striping. *)
let unit_rows n = if n >= tile_threshold then panel_width else block

let striped ~jobs ~n ~seed ~better stripe =
  Par.map_reduce_stripes ~jobs
    ~units:((n + unit_rows n - 1) / unit_rows n)
    ~neutral:(seed, empty_tally)
    ~combine:(fun (w1, t1) (w2, t2) -> (better w1 w2, merge t1 t2))
    ~map:stripe

(* On a symmetric space a sweep visits only the pairs x < y: the
   mirrored triple (y, x, z) reads the same three floats with its legs
   swapped, so its value is the same bits, and the lex-first maximizer
   has x < y.  Each mirrored pair counts its n - 2 triples as cheaply
   seen, as a pair the pass dismisses does. *)
let mirror_tally ~sym n t =
  if not sym then t
  else begin
    let pairs = n * (n - 1) / 2 in
    { t with t_cheap = t.t_cheap + (pairs * (n - 2)); t_mirror = pairs }
  end

(* ----------------------------------------------------------- zeta sweep *)

(* Stripe [s] of [stripes] of a zeta sweep.  [g] is the pass's table
   [exp (t *. log f)] at [t = 1. /. init.value], or [no_table] for the
   pruned path; [sym] restricts the sweep to the pairs x < y. *)
let zeta_stripe ~g ~sym d bb init ~stripes s =
  let n = Decay_space.n d in
  let f = F.data d in
  let lg = F.logs d in
  let ft = F.transpose d in
  let lt = F.log_transpose d in
  let c_plain = ref 0 and c_scanned = ref 0 and c_deep = ref 0
  and c_exp = ref 0 and c_bis = ref 0
  and c_rows = ref 0 and c_pairs = ref 0 and c_tiles = ref 0
  and c_phantom = ref 0 and c_passed = ref 0 and c_minplus = ref 0 in
  let best = ref init in
  let pass = Bigarray.Array1.dim g > 0 in
  let m = Array.make (if pass then block * n else 0) 0. in
  let rows = Array.make block 0 in
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
  let pw =
    if pass then block else if n >= tile_threshold then panel_width else 1
  in
  let row_done = Array.make pw false and slot = Array.make pw 0 in
  let unit = unit_rows n in
  let p_lo = ref (s * unit) in
  while !p_lo < n do
    let p0 = !p_lo in
    let u0 = p0 - (p0 mod unit) in
    let u_hi = min n (u0 + unit) in
    let p_hi = min u_hi (p0 + pw) in
    if p0 = u0 then Par.check_deadline ();
    (* Row-skip prepass against the incumbent at panel entry.  The row
       bound is monotone in the incumbent, so a row dismissed here stays
       dismissed; a row it cannot dismiss yet is still covered pair by
       pair below (the pair bound dominates the row bound). *)
    let live = ref 0 in
    for x = p0 to p_hi - 1 do
      let skip =
        bb.row_max.(x) -. (0.5 *. (bb.row_min.(x) +. bb.gmin))
        <= (ln2 *. (!best).value) -. prune_margin
      in
      row_done.(x - p0) <- skip;
      if skip then incr c_rows
      else if pass then begin
        rows.(!live) <- x;
        slot.(x - p0) <- !live;
        incr live
      end
    done;
    if pass && !live > 0 then begin
      minplus g n ~y_lo:(if sym then rows.(0) + 1 else 0) rows !live m;
      c_minplus := !c_minplus + !live
    end;
    for y = (if sym then p0 + 1 else 0) to n - 1 do
      for x = p0 to p_hi - 1 do
        if (not row_done.(x - p0)) && if sym then x < y else x <> y then begin
          let row = x * n in
          let fxy = F.unsafe_get f (row + y) in
          let lxy = F.unsafe_get lg (row + y) in
          if
            pass
            && Array.unsafe_get m ((slot.(x - p0) * n) + y)
               >= Bigarray.Array1.unsafe_get g (row + y)
          then c_passed := !c_passed + (n - 2)
          else if
            lxy -. (0.5 *. (bb.row_min.(x) +. bb.col_min.(y)))
            <= (ln2 *. (!best).value) -. prune_margin
          then incr c_pairs
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
                      *. (bb.row_tmin.((x * bb.ntiles) + t)
                         +. bb.col_tmin.((y * bb.ntiles) + t)))
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
    p_lo := if p_hi < u_hi then p_hi else u0 + (stripes * unit)
  done;
  ( !best,
    {
      empty_tally with
      t_plain = !c_plain - !c_phantom;
      t_cheap = !c_scanned - !c_plain - !c_deep + !c_passed;
      t_deep = !c_deep;
      t_exp = !c_exp;
      t_bis = !c_bis;
      t_rows = !c_rows;
      t_pairs = !c_pairs;
      t_tiles = !c_tiles;
      t_minplus = !c_minplus;
    } )

let zeta_init = { x = 0; y = 1; z = 2; value = 1. }

(* Nodes of the induced sub-space whose exact witness seeds both sweeps. *)
let seed_nodes = 32

(* The sub-space induced by [min seed_nodes (n / 2)] evenly spread
   nodes, with their numbers in [d]; [None] when that is under 3. *)
let seed_space d =
  let n = Decay_space.n d in
  let k = min seed_nodes (n / 2) in
  if k < 3 then None
  else begin
    let idx = Array.init k (fun i -> i * n / k) in
    Some (idx, Decay_space.sub_space d idx)
  end

(* A sub-space witness renumbered into the space: a real triple with its
   real value, or [init] when no triple there exceeds 1. *)
let lift idx init (w : witness) =
  if w.value > 1. then { w with x = idx.(w.x); y = idx.(w.y); z = idx.(w.z) }
  else init

(* The seed of a zeta sweep: the exact witness of the seed sub-space,
   and whether more than 1/64 of that sub-space's triples survive the
   geometric-mean cut at its value, which picks the pass.  13-16% do on
   geometric spaces, ~0.01% on walled ones, where the pruned sweep
   wins. *)
let zeta_seed d =
  match seed_space d with
  | None -> (zeta_init, false)
  | Some (idx, sub) ->
      let k = Decay_space.n sub in
      let bb = log_bounds sub in
      let w, _ =
        zeta_stripe ~g:no_table ~sym:(Decay_space.exactly_symmetric sub) sub
          bb zeta_init ~stripes:1 0
      in
      let lg = F.logs sub and lt = F.log_transpose sub in
      let cut = (ln2 *. w.value) -. prune_margin in
      let survivors = ref 0 in
      for x = 0 to k - 1 do
        for y = 0 to k - 1 do
          let lxy = F.unsafe_get lg ((x * k) + y) in
          if
            y <> x
            && lxy -. (0.5 *. (bb.row_min.(x) +. bb.col_min.(y))) > cut
          then
            for z = 0 to k - 1 do
              if
                z <> x && z <> y
                && lxy
                   -. (0.5
                      *. (F.unsafe_get lg ((x * k) + z)
                         +. F.unsafe_get lt ((y * k) + z)))
                   > cut
              then incr survivors
            done
        done
      done;
      (lift idx zeta_init w, 64 * !survivors > k * (k - 1) * (k - 2))

let zeta_sweep ~dispatch ~jobs d =
  let n = Decay_space.n d in
  (* Warm the views and bound tables on the caller's thread: construction
     is race-free either way, this just keeps the build cost out of the
     parallel region. *)
  F.force d;
  let sym = Decay_space.exactly_symmetric d in
  let bb = log_bounds d in
  Obs.with_span ~attrs:[ ("n", Obs.I n); ("jobs", Obs.I jobs) ] "zeta_sweep"
  @@ fun () ->
  record_sweep n;
  let seed, pass =
    match dispatch with
    | Only Pruned -> (zeta_init, false)
    | Only Minplus -> (fst (zeta_seed d), true)
    | Auto -> if n < minplus_floor then (zeta_init, false) else zeta_seed d
  in
  let g = if pass then exp_table ~jobs d (1. /. seed.value) else no_table in
  let witness, tally =
    striped ~jobs ~n ~seed ~better (zeta_stripe ~g ~sym d bb seed)
  in
  publish (mirror_tally ~sym n tally);
  witness

let zeta_witness_via dispatch ctx d =
  if Decay_space.n d < 3 then { x = 0; y = 0; z = 0; value = 1. }
  else zeta_sweep ~dispatch ~jobs:(Ctx.jobs ctx) d

let zeta_witness ?(ctx = Ctx.default) d = zeta_witness_via Auto ctx d

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

(* The zeta pass at [t = 1. /. (z +. 1e-7)]: a triple fails only where
   the pass flags its pair and the plain check [fxy <= fxz +. fzy] fails
   too.  Stops a chunk at its first failure. *)
let holds_at ?jobs d z =
  let n = Decay_space.n d in
  n < 3
  ||
  let jobs = Par.resolve_jobs jobs in
  let g = exp_table ~jobs d (1. /. (z +. 1e-7)) in
  let f = F.data d in
  let ft = F.transpose d in
  let chunk x_lo x_hi =
    let m = Array.make (block * n) 0. and rows = Array.make block 0 in
    let ok = ref true and p = ref x_lo in
    while !ok && !p < x_hi do
      let k = min block (x_hi - !p) in
      for r = 0 to k - 1 do
        rows.(r) <- !p + r
      done;
      minplus g n ~y_lo:0 rows k m;
      for r = 0 to k - 1 do
        let row = rows.(r) * n in
        for y = 0 to n - 1 do
          let gxy = Bigarray.Array1.unsafe_get g (row + y) in
          if !ok && not (m.((r * n) + y) >= gxy) then begin
            let fxy = F.unsafe_get f (row + y) in
            for z = 0 to n - 1 do
              if
                fxy > F.unsafe_get f (row + z) +. F.unsafe_get ft ((y * n) + z)
                && not
                     (Bigarray.Array1.unsafe_get g (row + z)
                      +. Bigarray.Array1.unsafe_get g ((z * n) + y)
                     >= gxy)
              then ok := false
            done
          end
        done
      done;
      p := !p + k
    done;
    !ok
  in
  Par.map_reduce_chunks ~jobs ~lo:0 ~hi:n ~neutral:true ~map:chunk
    ~combine:( && )

(* ------------------------------------------------------------ phi sweep *)

(* Stripe [s] of [stripes] of a phi sweep, like [zeta_stripe]. *)
let phi_stripe ~dispatch ~sym d bb init ~stripes s =
  let n = Decay_space.n d in
  let f = F.data d in
  let ft = F.transpose d in
  let c_rows = ref 0 and c_pairs = ref 0 and c_tiles = ref 0
  and c_deep = ref 0 and c_passed = ref 0 and c_minplus = ref 0 in
  let best = ref init in
  let pw = if n >= tile_threshold then panel_width else 1 in
  let may_pass =
    match dispatch with
    | Only p -> p = Minplus
    | Auto -> n >= minplus_floor
  in
  let m = Array.make (if may_pass then block * n else 0) 0.
  and rows = Array.make block 0 in
  let row_done = Array.make (max pw block) false
  and slot = Array.make (max pw block) 0 in
  let row_skip x =
    bb.row_max.(x) /. (bb.row_min.(x) +. bb.gmin) < (!best).value
  in
  (* More than a quarter of the pairs of rows [lo..hi-1] that the row
     bound keeps survive the pair bound at the incumbent (multiplied
     out: the count only picks a path). *)
  let dense lo hi =
    let b = (!best).value in
    let c = ref 0 and kept = ref 0 in
    for x = lo to hi - 1 do
      if not (row_skip x) then begin
        let row = x * n and rmin = bb.row_min.(x) in
        incr kept;
        for y = 0 to n - 1 do
          if
            F.unsafe_get f (row + y)
            >= b *. (rmin +. Array.unsafe_get bb.col_min y)
          then incr c
        done
      end
    done;
    4 * !c > !kept * (n - 1)
  in
  (* The z-loop of one pair; [z <> x, y] in iteration coordinates. *)
  let scan_pair x y fxy =
    let row = x * n and yrow = y * n in
    for t = 0 to max 1 bb.ntiles - 1 do
      let lo = t * tile_size in
      let hi = if bb.ntiles = 0 then n else min n (lo + tile_size) in
      if
        bb.ntiles > 0
        && fxy
           /. (bb.row_tmin.((x * bb.ntiles) + t)
              +. bb.col_tmin.((y * bb.ntiles) + t))
           < (!best).value
      then incr c_tiles
      else
        for z = lo to hi - 1 do
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
            if v > b.value || (v = b.value && lex_before x y z b.x b.z b.y)
            then best := { x; y = z; z = y; value = v }
          end
        done
    done
  in
  let unit = unit_rows n in
  let u_lo = ref (s * unit) in
  while !u_lo < n do
    Par.check_deadline ();
    let u0 = !u_lo in
    let u_hi = min n (u0 + unit) in
    let pass =
      match dispatch with
      | Only p -> p = Minplus
      | Auto -> may_pass && dense u0 u_hi
    in
    let p_lo = ref u0 in
    while !p_lo < u_hi do
      let p0 = !p_lo in
      let p_hi = min u_hi (p0 + if pass then block else pw) in
      (* Float [+.] and [/.] are monotone, so these bounds dominate every
         v in their scope exactly.  Skips are on strict [<]: a scope whose
         bound ties the incumbent is still scanned, so the lex tie-break
         sees every potential tying triple whatever the visit order. *)
      let live = ref 0 in
      for x = p0 to p_hi - 1 do
        let skip = row_skip x in
        row_done.(x - p0) <- skip;
        if skip then incr c_rows
        else if pass then begin
          rows.(!live) <- x;
          slot.(x - p0) <- !live;
          incr live
        end
      done;
      if pass && !live > 0 then begin
        minplus (F.data d :> fbuf) n
          ~y_lo:(if sym then rows.(0) + 1 else 0)
          rows !live m;
        c_minplus := !c_minplus + !live
      end;
      for y = (if sym then p0 + 1 else 0) to n - 1 do
        for x = p0 to p_hi - 1 do
          if (not row_done.(x - p0)) && if sym then x < y else x <> y then
          begin
            let fxy = F.unsafe_get f ((x * n) + y) in
            if pass then begin
              (* The pair's largest ratio, exactly (see the pass). *)
              let r = fxy /. Array.unsafe_get m ((slot.(x - p0) * n) + y) in
              if r < (!best).value || r <= 1. then
                c_passed := !c_passed + (n - 2)
              else scan_pair x y fxy
            end
            else if
              fxy /. (bb.row_min.(x) +. bb.col_min.(y)) < (!best).value
            then incr c_pairs
            else scan_pair x y fxy
          end
        done
      done;
      p_lo := p_hi
    done;
    u_lo := u0 + (stripes * unit)
  done;
  ( !best,
    {
      empty_tally with
      t_cheap = !c_passed;
      t_deep = !c_deep;
      t_rows = !c_rows;
      t_pairs = !c_pairs;
      t_tiles = !c_tiles;
      t_minplus = !c_minplus;
    } )

let phi_init = { x = 0; y = 2; z = 1; value = 1. }

(* The exact witness of the seed sub-space, the phi counterpart of
   [zeta_seed]: every stripe starts from it, so the first paths are
   chosen against a real incumbent. *)
let phi_seed d =
  match seed_space d with
  | None -> phi_init
  | Some (idx, sub) ->
      let w, _ =
        phi_stripe ~dispatch:(Only Pruned)
          ~sym:(Decay_space.exactly_symmetric sub)
          sub (decay_bounds sub) phi_init ~stripes:1 0
      in
      lift idx phi_init w

let phi_sweep ~dispatch ~jobs d =
  let n = Decay_space.n d in
  let sym = Decay_space.exactly_symmetric d in
  let bb = decay_bounds d in
  Obs.with_span ~attrs:[ ("n", Obs.I n); ("jobs", Obs.I jobs) ] "phi_sweep"
  @@ fun () ->
  record_sweep n;
  let seed =
    match dispatch with
    | Only Pruned -> phi_init
    | Only Minplus -> phi_seed d
    | Auto -> if n < minplus_floor then phi_init else phi_seed d
  in
  let witness, tally =
    striped ~jobs ~n ~seed ~better:better_phi
      (phi_stripe ~dispatch ~sym d bb seed)
  in
  publish (mirror_tally ~sym n tally);
  witness

let phi_witness_via dispatch ctx d =
  if Decay_space.n d < 3 then { x = 0; y = 0; z = 0; value = 1. }
  else phi_sweep ~dispatch ~jobs:(Ctx.jobs ctx) d

let phi_witness ?(ctx = Ctx.default) d = phi_witness_via Auto ctx d
let phi ?ctx d = (phi_witness ?ctx d).value
let phi_log ?ctx d = Num.log2 (phi ?ctx d)
let clear_caches () = ()

let forced_zeta_witness path ?(ctx = Ctx.default) d =
  zeta_witness_via (Only path) ctx d

let forced_phi_witness path ?(ctx = Ctx.default) d =
  phi_witness_via (Only path) ctx d
