module Memo = Bg_prelude.Memo
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
   a node budget that falls back to the greedy incumbent on exhaustion. *)
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
  (* Flat views: [zrow] is row z of the matrix (decay z -> x) and [zcol]
     is row z of the transpose (decay x -> z).  Built lazily once per
     space (race-free — see {!Decay_space.Flat}) and shared by every
     listener. *)
  let f = F.data d in
  let ft = F.transpose d in
  let zrow = z * n in
  (* The inverse-decay weight row 1/f(x,z), computed once per listener z:
     the candidate weights below and any interference sums index into it
     instead of re-dividing inside the MIS search. *)
  let inv_w = Array.init n (fun x -> 1. /. F.unsafe_get ft (zrow + x)) in
  (* Candidates: nodes r-separated from z itself (z is part of the
     separated configuration, as in Theorem 2's proof where the listener
     belongs to the r-separated set S). *)
  let candidates = ref [] in
  for x = n - 1 downto 0 do
    if
      x <> z
      && F.unsafe_get ft (zrow + x) >= r
      && F.unsafe_get f (zrow + x) >= r
    then candidates := x :: !candidates
  done;
  let arr = Array.of_list !candidates in
  let k = Array.length arr in
  let weights = Array.map (fun x -> Array.unsafe_get inv_w x) arr in
  if k = 0 then (0., [])
  else begin
    let value, set =
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
        weighted_mis ~weights ~compat
      end
      else begin
        let compat i j =
          i = j
          || (F.unsafe_get f ((arr.(i) * n) + arr.(j)) >= r
             && F.unsafe_get f ((arr.(j) * n) + arr.(i)) >= r)
        in
        (* Greedy by weight with one pass of single-swap improvement. *)
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

let gamma_cache : (string * float * int, float) Memo.t =
  Memo.create ~max_size:512 ~name:"gamma" ()

(* A gamma sweep counts as a kernel sweep of 0 triples. *)
let sweeps = Obs.counter "kernel.sweeps"

let gamma_sweep ?exact_limit ~jobs d ~r =
  (* Warm the views on the caller's thread (construction is race-free
     either way; this keeps the build out of the parallel region). *)
  ignore (F.data d);
  ignore (F.transpose d);
  Obs.with_span
    ~attrs:[ ("n", Obs.I (Decay_space.n d)); ("jobs", Obs.I jobs) ]
    "gamma_sweep"
  @@ fun () ->
  Obs.incr sweeps;
  Par.map_reduce_chunks ~jobs ~lo:0 ~hi:(Decay_space.n d) ~neutral:0.
    ~map:(fun lo hi ->
      let best = ref 0. in
      for z = lo to hi - 1 do
        let v, _ = gamma_z ?exact_limit d ~z ~r in
        if v > !best then best := v
      done;
      !best)
    ~combine:(fun a b -> if b > a then b else a)

let gamma ?(ctx = Ctx.default) d ~r =
  let jobs = Ctx.jobs ctx in
  let exact_limit = ctx.Ctx.exact_limit in
  let compute () = gamma_sweep ?exact_limit ~jobs d ~r in
  if ctx.Ctx.cache then
    let el = match exact_limit with None -> min_int | Some k -> k in
    Memo.find_or_add gamma_cache (Decay_space.digest d, r, el) compute
  else compute ()

let cache_stats () = (Memo.hits gamma_cache, Memo.misses gamma_cache)

let clear_caches () =
  Memo.clear gamma_cache;
  Memo.reset_stats gamma_cache

let theorem2_bound ~c ~a =
  if a >= 1. then invalid_arg "Fading.theorem2_bound: requires A < 1";
  c *. (2. ** (a +. 1.)) *. (Bg_prelude.Numerics.riemann_zeta (2. -. a) -. 1.)
