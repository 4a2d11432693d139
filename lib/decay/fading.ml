module Obs = Bg_prelude.Obs
module Par = Bg_prelude.Parallel
module F = Decay_space.Flat

let is_separated d ~r nodes =
  let rec pairs = function
    | [] -> true
    | x :: rest ->
        List.for_all
          (fun y -> Decay_space.decay d x y >= r && Decay_space.decay d y x >= r)
          rest
        && pairs rest
  in
  pairs nodes

let interference_at d ~z ~senders ~power =
  List.fold_left
    (fun acc x -> acc +. (power /. Decay_space.decay d x z))
    0. senders

(* Maximize sum of weights over an independent set of the conflict graph
   [compat]: exact branch and bound with a remaining-weight-sum bound, with
   a node budget that falls back to the greedy incumbent on exhaustion.
   The flag says whether the budget cut the search short. *)
let weighted_mis ~weights ~compat =
  let k = Array.length weights in
  (* Order candidates by decreasing weight: good incumbents early. *)
  let order = Array.init k Fun.id in
  Array.sort (fun i j -> Float.compare weights.(j) weights.(i)) order;
  (* Greedy incumbent. *)
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
  let cut_off = ref false in
  let rec go idx current current_val =
    decr budget;
    if !budget <= 0 then cut_off := true
    else if idx < k then begin
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
  (!best_val, !best_set, !cut_off)

(* One listener's working arrays, each of length n.  A stripe of the
   sweep owns one and reuses it from listener to listener. *)
type scratch = {
  xs : int array; (* candidate nodes, in increasing order *)
  ws : float array; (* their weights 1/f(x,z) *)
  live : int array; (* live candidate indices, compacted in a prefix *)
  picks : int array; (* picked candidate indices, in pick order *)
  rank : int array; (* each candidate's place in the reference order *)
  mutable ranked : bool; (* [rank] holds the current listener's ranks *)
}

let scratch n =
  {
    xs = Array.make n 0;
    ws = Array.create_float n;
    live = Array.make n 0;
    picks = Array.make n 0;
    rank = Array.make n 0;
    ranked = false;
  }

(* Listener [z]'s candidates: the nodes r-separated from [z] itself ([z]
   is part of the separated configuration, as in Theorem 2's proof where
   the listener belongs to the r-separated set S), written in increasing
   order to [s.xs] with their weights 1/f(x,z) in [s.ws]; returns their
   count.  The one statement of the candidate rule: {!gamma_z} searches
   over these and {!gamma_sweep} bounds each listener by their sum.
   Reads the flat views, built lazily once per space (race-free — see
   {!Decay_space.Flat}) and shared by every listener. *)
let candidates s d ~z ~r =
  let n = Decay_space.n d in
  let f = F.data d in
  let ft = F.transpose d in
  let zrow = z * n in
  let k = ref 0 in
  for x = 0 to n - 1 do
    let to_z = F.unsafe_get ft (zrow + x) in
    if x <> z && to_z >= r && F.unsafe_get f (zrow + x) >= r then begin
      Array.unsafe_set s.xs !k x;
      Array.unsafe_set s.ws !k (1. /. to_z);
      incr k
    end
  done;
  s.ranked <- false;
  !k

(* The exact search over the [k] candidates in [s]: r * the weight of a
   maximum-weight separated set, the set, and whether the node budget
   cut the search short. *)
let solve s d ~r k =
  let n = Decay_space.n d in
  let f = F.data d in
  let ft = F.transpose d in
  let arr = Array.sub s.xs 0 k and weights = Array.sub s.ws 0 k in
  (* Tabulate the k x k compatibility relation once, walking the
     candidate rows of the flat views in blocks: the branch-and-bound
     search probes [compat] out of order and many times per pair, so it
     reads a dense byte table instead of striding the n-wide matrix
     rows. *)
  let adj = Bytes.make (k * k) '\000' in
  for i = 0 to k - 1 do
    let ri = arr.(i) * n in
    for j = i + 1 to k - 1 do
      if
        F.unsafe_get f (ri + arr.(j)) >= r
        && F.unsafe_get ft (ri + arr.(j)) >= r
      then begin
        Bytes.unsafe_set adj ((i * k) + j) '\001';
        Bytes.unsafe_set adj ((j * k) + i) '\001'
      end
    done
  done;
  let compat i j = i = j || Bytes.unsafe_get adj ((i * k) + j) = '\001' in
  let v, set, cut = weighted_mis ~weights ~compat in
  (r *. v, List.map (fun i -> arr.(i)) set, cut)

(* Every weight 1/f(x,z) is positive (off-diagonal decays are positive
   and finite), so any sender set X within a candidate set C has
   sum_X <= sum_C.  The listener ladder bounds gamma_z(r) by
   [r * sum_{C_z} 1/f(x,z)] over all of z's candidates, whichever set
   the exact search or the greedy pass returns; the greedy pass bounds
   its own result by [r * (picked + live)], since its final set lies
   within its picks and its live candidates.  In floats the sums run in
   different orders and groupings.  A k-term sum of positive floats is
   within a factor 1 +- (k-1)u of the exact sum in any order (u =
   2^-53), so the computed value exceeds the computed bound by at most a
   factor (1 + (k-1)u) / (1 - (k-1)u), and the two products with [r] and
   the one with [1 + bound_margin] add three more roundings: about
   1 + 2(k+1)u in all, below 1 + 1e-9 for k up to 4 million candidates
   (for normal floats).  A listener whose bound times [1 + bound_margin]
   lies strictly below the running maximum therefore cannot raise it.
   For r <= 0 no gamma_z is positive, so none can raise the maximum,
   which starts at 0. *)
let bound_margin = 1e-9

(* Each candidate's place in the reference order: decreasing weight,
   with equal weights where [Array.sort] leaves them when it sorts the
   candidate indices [0 .. k-1].  That sort is not stable, so only
   running it tells. *)
let rank_candidates s k =
  let order = Array.init k Fun.id in
  Array.sort (fun i j -> Float.compare s.ws.(j) s.ws.(i)) order;
  Array.iteri (fun p c -> s.rank.(c) <- p) order;
  s.ranked <- true

(* The greedy pass over the [k] candidates in [s]: in the reference
   order, pick each candidate compatible with every earlier pick.  The
   live candidates, neither picked nor in conflict with a pick, sit in
   [s.live]; each pick takes one pass over them that drops the pick's
   conflicts, sums the live weights and finds the heaviest live
   candidate.  The next pick is the first live candidate in the
   reference order: a live candidate ahead of the last pick was
   compatible with every pick before it, so it would already have been
   picked.  Returns the number of picks, in pick order in [s.picks], or
   -1 once [r * (picked + live) * (1 + bound_margin)] is below [best]:
   the final set lies within the picks and the live set, so the listener
   cannot raise a maximum of [best] (see [bound_margin]). *)
let greedy s d ~r ~best k =
  let n = Decay_space.n d in
  let f = F.data d in
  let ft = F.transpose d in
  let sym = Decay_space.exactly_symmetric d in
  let xs = s.xs and ws = s.ws and live = s.live in
  for i = 0 to k - 1 do
    Array.unsafe_set live i i
  done;
  let len = ref k and m = ref 0 and picked = ref 0. and gave_up = ref false in
  let pick = ref (-1) and prow = ref 0 in
  while !len > 0 && not !gave_up do
    let kept = ref 0 and sum = ref 0. in
    let next = ref (-1) and top = ref neg_infinity and tied = ref false in
    for i = 0 to !len - 1 do
      let c = Array.unsafe_get live i in
      let at = !prow + Array.unsafe_get xs c in
      if
        !pick < 0
        || c <> !pick
           && F.unsafe_get f at >= r
           && (sym || F.unsafe_get ft at >= r)
      then begin
        Array.unsafe_set live !kept c;
        incr kept;
        let w = Array.unsafe_get ws c in
        sum := !sum +. w;
        if w > !top then begin
          next := c;
          top := w;
          tied := false
        end
        else if w = !top then
          if not s.ranked then tied := true
          else if s.rank.(c) < s.rank.(!next) then next := c
      end
    done;
    len := !kept;
    if !kept > 0 then
      if r *. (!picked +. !sum) *. (1. +. bound_margin) < best then
        gave_up := true
      else begin
        if !tied then begin
          if not s.ranked then rank_candidates s k;
          for i = 0 to !kept - 1 do
            let c = live.(i) in
            if ws.(c) = !top && s.rank.(c) < s.rank.(!next) then next := c
          done
        end;
        pick := !next;
        prow := xs.(!next) * n;
        s.picks.(!m) <- !next;
        incr m;
        picked := !picked +. !top
      end
  done;
  if !gave_up then -1 else !m

(* How a listener's search ended; the sweep counts each kind. *)
type path = Exact | Cut_off | Greedy | Abandoned

(* Listener [z]'s gamma_z(r) and its witness: the exact search for up to
   [exact_limit] candidates, the greedy pass above that.  A greedy pass
   that gives up against [best] reports [neg_infinity], which raises no
   maximum. *)
let listener ?(exact_limit = 24) s d ~z ~r ~best =
  let k = candidates s d ~z ~r in
  if k = 0 then (0., [], Exact)
  else if k <= exact_limit then
    let v, set, cut = solve s d ~r k in
    (v, set, if cut then Cut_off else Exact)
  else
    let m = greedy s d ~r ~best k in
    if m < 0 then (neg_infinity, [], Abandoned)
    else begin
      (* Summed most recent pick first, as the reference folds its pick
         list. *)
      let v = ref 0. in
      for j = m - 1 downto 0 do
        v := !v +. s.ws.(s.picks.(j))
      done;
      (r *. !v, List.init m (fun j -> s.xs.(s.picks.(m - 1 - j))), Greedy)
    end

let gamma_z ?exact_limit d ~z ~r =
  let n = Decay_space.n d in
  if z < 0 || z >= n then invalid_arg "Fading.gamma_z: node out of range";
  let v, set, _ =
    listener ?exact_limit (scratch n) d ~z ~r ~best:neg_infinity
  in
  (v, set)

(* ------------------------------------------------------- listener ladder *)

(* Ladder diagnostics, published as [kernel.gamma_*] Obs counters next to
   Metricity's [kernel.*] ones, with the same discipline: each stripe
   fills a private tally, the combine sums them, and the caller publishes
   the total once per sweep.  They never influence results. *)
let sweeps = Obs.counter "kernel.sweeps"
let visited_c = Obs.counter "kernel.gamma_visited"
let skipped_c = Obs.counter "kernel.gamma_skipped"
let exact_c = Obs.counter "kernel.gamma_exact"
let greedy_c = Obs.counter "kernel.gamma_greedy"
let cut_offs_c = Obs.counter "kernel.gamma_budget_cutoffs"
let abandoned_c = Obs.counter "kernel.gamma_abandoned"
let tie_sorts_c = Obs.counter "kernel.gamma_tie_sorts"

type tally = {
  t_exact : int; (* solved by the exact search, cut-offs included *)
  t_greedy : int; (* taken by the greedy pass, abandoned ones included *)
  t_cut : int; (* exact searches that ran out of node budget *)
  t_abandoned : int; (* greedy passes given up against the maximum *)
  t_ties : int; (* greedy passes that needed the reference-order rank *)
}

let empty_tally =
  { t_exact = 0; t_greedy = 0; t_cut = 0; t_abandoned = 0; t_ties = 0 }

let merge a b =
  {
    t_exact = a.t_exact + b.t_exact;
    t_greedy = a.t_greedy + b.t_greedy;
    t_cut = a.t_cut + b.t_cut;
    t_abandoned = a.t_abandoned + b.t_abandoned;
    t_ties = a.t_ties + b.t_ties;
  }

let publish ~n t =
  let visited = t.t_exact + t.t_greedy in
  Obs.incr sweeps;
  Obs.add visited_c visited;
  Obs.add skipped_c (n - visited);
  Obs.add exact_c t.t_exact;
  Obs.add greedy_c t.t_greedy;
  Obs.add cut_offs_c t.t_cut;
  Obs.add abandoned_c t.t_abandoned;
  Obs.add tie_sorts_c t.t_ties;
  if Obs.tracing () then begin
    Obs.add_span_attr "visited" (Obs.I visited);
    Obs.add_span_attr "skipped" (Obs.I (n - visited));
    Obs.add_span_attr "exact" (Obs.I t.t_exact);
    Obs.add_span_attr "greedy" (Obs.I t.t_greedy);
    Obs.add_span_attr "budget_cutoffs" (Obs.I t.t_cut);
    Obs.add_span_attr "abandoned" (Obs.I t.t_abandoned);
    Obs.add_span_attr "tie_sorts" (Obs.I t.t_ties)
  end

(* A gamma sweep counts as a kernel sweep of 0 triples.  Listeners are
   visited in decreasing bound order and dealt round-robin to [jobs]
   stripes; a stripe stops at its first listener that cannot raise its
   own running maximum, since every later one has a bound no larger, and
   a greedy pass gives up against the same maximum.  The answer is the
   maximum over stripes, and a max of floats depends on neither the
   visit order nor the striping. *)
let gamma_sweep ?exact_limit ~jobs d ~r =
  let n = Decay_space.n d in
  (* Warm the views on the caller's thread (construction is race-free
     either way; this keeps the build out of the parallel region). *)
  ignore (F.data d);
  ignore (F.transpose d);
  Obs.with_span ~attrs:[ ("n", Obs.I n); ("jobs", Obs.I jobs) ] "gamma_sweep"
  @@ fun () ->
  let bound =
    let s = scratch n in
    Array.init n (fun z ->
        let k = candidates s d ~z ~r in
        let sum = ref 0. in
        for i = 0 to k - 1 do
          sum := !sum +. s.ws.(i)
        done;
        r *. !sum)
  in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare bound.(b) bound.(a)) order;
  let stripe ~stripes first =
    let s = scratch n and best = ref 0. in
    let exact = ref 0 and greedy = ref 0 and cut = ref 0 in
    let abandoned = ref 0 and ties = ref 0 in
    let i = ref first in
    while !i < n && not (bound.(order.(!i)) *. (1. +. bound_margin) < !best) do
      (* A stripe is a whole chunk, so poll the ambient deadline here. *)
      Par.check_deadline ();
      let v, _, path =
        listener ?exact_limit s d ~z:order.(!i) ~r ~best:!best
      in
      if v > !best then best := v;
      (match path with
      | Exact -> incr exact
      | Cut_off ->
          incr exact;
          incr cut
      | Greedy -> incr greedy
      | Abandoned ->
          incr greedy;
          incr abandoned);
      if s.ranked then incr ties;
      i := !i + stripes
    done;
    ( !best,
      {
        t_exact = !exact;
        t_greedy = !greedy;
        t_cut = !cut;
        t_abandoned = !abandoned;
        t_ties = !ties;
      } )
  in
  let best, t =
    Par.map_reduce_stripes ~jobs ~units:n ~neutral:(0., empty_tally)
      ~map:stripe
      ~combine:(fun (a, ta) (b, tb) -> ((if b > a then b else a), merge ta tb))
  in
  publish ~n t;
  best

let gamma ?(ctx = Ctx.default) d ~r =
  gamma_sweep ?exact_limit:ctx.Ctx.exact_limit ~jobs:(Ctx.jobs ctx) d ~r

let clear_caches () = ()

let theorem2_bound ~c ~a =
  if not (a < 1.) then invalid_arg "Fading.theorem2_bound: requires A < 1";
  c *. (2. ** (a +. 1.)) *. (Bg_prelude.Numerics.riemann_zeta (2. -. a) -. 1.)
