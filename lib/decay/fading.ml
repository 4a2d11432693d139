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

(* Listener [z]'s candidates: the nodes r-separated from [z] itself ([z]
   is part of the separated configuration, as in Theorem 2's proof where
   the listener belongs to the r-separated set S), in increasing order,
   with their weights 1/f(x,z).  The one statement of the candidate rule:
   {!gamma_z} searches over these and {!gamma_sweep} bounds each listener
   by their sum.  Reads the flat views, built lazily once per space
   (race-free — see {!Decay_space.Flat}) and shared by every listener. *)
let candidates d ~z ~r =
  let n = Decay_space.n d in
  let f = F.data d in
  let ft = F.transpose d in
  let zrow = z * n in
  let xs = Array.make n 0 and ws = Array.create_float n in
  let k = ref 0 in
  for x = 0 to n - 1 do
    let to_z = F.unsafe_get ft (zrow + x) in
    if x <> z && to_z >= r && F.unsafe_get f (zrow + x) >= r then begin
      xs.(!k) <- x;
      ws.(!k) <- 1. /. to_z;
      incr k
    end
  done;
  (Array.sub xs 0 !k, Array.sub ws 0 !k)

(* How a listener's value was found; the sweep counts each kind. *)
type path = Exact | Cut_off | Greedy

let solve ?(exact_limit = 24) d ~r (arr, weights) =
  let n = Decay_space.n d in
  let f = F.data d in
  let ft = F.transpose d in
  let k = Array.length arr in
  if k = 0 then (0., [], Exact)
  else begin
    let value, set, path =
      if k <= exact_limit then begin
        (* Tabulate the k x k compatibility relation once, walking the
           candidate rows of the flat views in blocks: the branch-and-
           bound search probes [compat] out of order and many times per
           pair, so it reads a dense byte table instead of striding the
           n-wide matrix rows. *)
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
        let compat i j =
          i = j || Bytes.unsafe_get adj ((i * k) + j) = '\001'
        in
        let v, s, cut = weighted_mis ~weights ~compat in
        (v, s, if cut then Cut_off else Exact)
      end
      else begin
        let compat i j =
          i = j
          || (F.unsafe_get f ((arr.(i) * n) + arr.(j)) >= r
             && F.unsafe_get f ((arr.(j) * n) + arr.(i)) >= r)
        in
        (* One greedy pass in decreasing weight order: a lower bound. *)
        let order = Array.init k Fun.id in
        Array.sort (fun i j -> Float.compare weights.(j) weights.(i)) order;
        let pick = ref [] in
        Array.iter
          (fun i ->
            if List.for_all (fun j -> compat i j) !pick then pick := i :: !pick)
          order;
        let v = List.fold_left (fun a i -> a +. weights.(i)) 0. !pick in
        (v, !pick, Greedy)
      end
    in
    (r *. value, List.map (fun i -> arr.(i)) set, path)
  end

let gamma_z ?exact_limit d ~z ~r =
  let v, set, _ = solve ?exact_limit d ~r (candidates d ~z ~r) in
  (v, set)

(* ------------------------------------------------------- listener ladder *)

(* Every weight 1/f(x,z) is positive (off-diagonal decays are positive
   and finite), so any sender set X within C_z has sum_X <= sum_{C_z}, and
   [r * sum_{C_z} 1/f(x,z)] bounds gamma_z(r) from above, whichever set
   the exact search or the greedy pass returns.  In floats the two sums
   run in different orders.  A k-term sum of positive floats is within a
   factor 1 +- (k-1)u of the exact sum in any order (u = 2^-53), so the
   computed value exceeds the computed bound by at most a factor
   (1 + (k-1)u) / (1 - (k-1)u), and the two products with [r] and the one
   with [1 + bound_margin] add three more roundings: about 1 + 2(k+1)u in
   all, below 1 + 1e-9 for k up to 4 million candidates (for normal
   floats).  A listener whose [bound * (1 + bound_margin)] lies strictly
   below the running maximum therefore cannot raise it.  For r <= 0 no
   gamma_z is positive, so none can raise the maximum, which starts at 0. *)
let bound_margin = 1e-9

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

type tally = {
  t_exact : int; (* solved by the exact search, cut-offs included *)
  t_greedy : int; (* solved by the greedy pass *)
  t_cut : int; (* exact searches that ran out of node budget *)
}

let empty_tally = { t_exact = 0; t_greedy = 0; t_cut = 0 }

let merge a b =
  {
    t_exact = a.t_exact + b.t_exact;
    t_greedy = a.t_greedy + b.t_greedy;
    t_cut = a.t_cut + b.t_cut;
  }

let publish ~n t =
  let visited = t.t_exact + t.t_greedy in
  Obs.incr sweeps;
  Obs.add visited_c visited;
  Obs.add skipped_c (n - visited);
  Obs.add exact_c t.t_exact;
  Obs.add greedy_c t.t_greedy;
  Obs.add cut_offs_c t.t_cut;
  if Obs.tracing () then begin
    Obs.add_span_attr "visited" (Obs.I visited);
    Obs.add_span_attr "skipped" (Obs.I (n - visited));
    Obs.add_span_attr "exact" (Obs.I t.t_exact);
    Obs.add_span_attr "greedy" (Obs.I t.t_greedy);
    Obs.add_span_attr "budget_cutoffs" (Obs.I t.t_cut)
  end

(* A gamma sweep counts as a kernel sweep of 0 triples.  Listeners are
   visited in decreasing bound order and dealt round-robin to [jobs]
   stripes; a stripe stops at its first listener that cannot raise its
   own running maximum, since every later one has a bound no larger.  The
   answer is the maximum over stripes, and a max of floats depends on
   neither the visit order nor the striping. *)
let gamma_sweep ?exact_limit ~jobs d ~r =
  let n = Decay_space.n d in
  (* Warm the views on the caller's thread (construction is race-free
     either way; this keeps the build out of the parallel region). *)
  ignore (F.data d);
  ignore (F.transpose d);
  Obs.with_span ~attrs:[ ("n", Obs.I n); ("jobs", Obs.I jobs) ] "gamma_sweep"
  @@ fun () ->
  let bound =
    Array.init n (fun z ->
        let _, weights = candidates d ~z ~r in
        r *. Array.fold_left ( +. ) 0. weights)
  in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare bound.(b) bound.(a)) order;
  let stripe ~stripes s =
    let best = ref 0. and exact = ref 0 and greedy = ref 0 and cut = ref 0 in
    let i = ref s in
    while !i < n && not (bound.(order.(!i)) *. (1. +. bound_margin) < !best) do
      (* A stripe is a whole chunk, so poll the ambient deadline here. *)
      Par.check_deadline ();
      let z = order.(!i) in
      let v, _, path = solve ?exact_limit d ~r (candidates d ~z ~r) in
      if v > !best then best := v;
      (match path with
      | Exact -> incr exact
      | Cut_off ->
          incr exact;
          incr cut
      | Greedy -> incr greedy);
      i := !i + stripes
    done;
    (!best, { t_exact = !exact; t_greedy = !greedy; t_cut = !cut })
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
  if a >= 1. then invalid_arg "Fading.theorem2_bound: requires A < 1";
  c *. (2. ** (a +. 1.)) *. (Bg_prelude.Numerics.riemann_zeta (2. -. a) -. 1.)
