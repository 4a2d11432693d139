(* The flat/log-domain kernel benchmark: naive row-matrix sweep vs the
   optimized flat-layout sweep (sequential and parallel) on GEO-SINR
   spaces of growing n.  Emits a table and machine-readable
   BENCH_kernels.json so the speedup and pruning hit-rate are tracked
   across PRs.

   The naive kernel below is the pre-optimization sweep kept verbatim
   (same shape as test/naive_ref.ml): bounds-checked [Decay_space.matrix]
   rows, inline [log]s in the bisection predicate, no pruning tables.  Its
   witness must stay bit-for-bit equal to the optimized kernels' at every
   size — the [identical] column asserts that on each run. *)

module D = Core.Decay.Decay_space
module Met = Core.Decay.Metricity
module Ctx = Core.Decay.Ctx
module Num = Core.Prelude.Numerics
module Obs = Core.Prelude.Obs
module J = Core.Prelude.Jsonl
module T = Core.Prelude.Table

type witness = Met.witness = { x : int; y : int; z : int; value : float }

let naive_triple_holds ~fxy ~fxz ~fzy z =
  let t = 1. /. z in
  exp (t *. log fxz) +. exp (t *. log fzy) >= exp (t *. log fxy)

let naive_zeta_triple ?(tol = 1e-9) fxy fxz fzy =
  if fxy <= fxz +. fzy then 1.
  else begin
    let m = Float.min fxz fzy in
    let p = naive_triple_holds ~fxy ~fxz ~fzy in
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

let naive_zeta_witness d =
  let n = D.n d in
  let f = D.matrix d in
  let best = ref { x = 0; y = 1; z = 2; value = 1. } in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      if y <> x then
        for z = 0 to n - 1 do
          if z <> x && z <> y then begin
            let fxy = f.(x).(y) and fxz = f.(x).(z) and fzy = f.(z).(y) in
            if fxy <= fxz +. fzy then ()
            else if naive_triple_holds ~fxy ~fxz ~fzy !best.value then ()
            else begin
              let v = naive_zeta_triple fxy fxz fzy in
              if v > !best.value then best := { x; y; z; value = v }
            end
          end
        done
    done
  done;
  !best

(* Per-call cost of [Obs.with_span] with no trace sink installed: the
   price every instrumented hot path pays when observability is off.
   The budget below is three orders of magnitude above the expected cost
   (a few ns: one atomic load and a branch) — it exists to catch an
   accidental allocation or lock on the fast path, not to measure the
   machine.  Meaningless (and skipped) when a sink is installed. *)
let span_off_budget_ns = 1000.

let span_off_overhead_ns () =
  let sink = ref 0 in
  let cost =
    Timing.per_call_ns ~iters:200_000 (fun () ->
        Obs.with_span "noop" (fun () -> incr sink))
  in
  ignore !sink;
  cost

let geo_space n =
  D.of_points ~alpha:3.
    (Core.Decay.Spaces.random_points (Core.Prelude.Rng.create 2024) ~n
       ~side:30.)

(* The sweep's [kernel.*] counters, read as deltas of the Obs registry
   around [f ()]: the same numbers `bg analyze --metrics` prints. *)
let kernel_deltas f =
  let read name = Obs.counter_value (Obs.counter ("kernel." ^ name)) in
  let names =
    [ "triples"; "plain_skips"; "cheap_skips"; "deep"; "exp_evals";
      "bisections" ]
  in
  let before = List.map read names in
  let v = f () in
  let deltas = List.map2 (fun k b -> (k, read k - b)) names before in
  (v, fun k -> List.assoc k deltas)

let run ?(par_jobs = 4) ?(max_n = 512) ?(json_path = "BENCH_kernels.json") ()
    =
  let table =
    T.create
      ~title:
        (Printf.sprintf
           "flat log-domain kernels: zeta sweep, naive vs optimized \
            (par jobs=%d)"
           par_jobs)
      [ "n"; "naive (ms)"; "opt seq (ms)"; "opt par (ms)"; "seq speedup";
        "par speedup"; "pruned"; "identical" ]
  in
  let sizes = List.filter (fun n -> n <= max_n) [ 64; 128; 256; 512 ] in
  let entries =
    List.map
      (fun n ->
        let space = geo_space n in
        let reps = if n >= 256 then 2 else 3 in
        let naive_reps = if n >= 256 then 1 else 2 in
        let w_naive, naive_s =
          Timing.time_best ~reps:naive_reps (fun () -> naive_zeta_witness space)
        in
        let (w_seq, opt_seq_s), delta =
          kernel_deltas (fun () ->
              Timing.time_best ~reps (fun () ->
                  Met.zeta_witness ~ctx:(Ctx.make ~jobs:1 ()) space))
        in
        let w_par, opt_par_s =
          Timing.time_best ~reps (fun () ->
              Met.zeta_witness ~ctx:(Ctx.make ~jobs:par_jobs ()) space)
        in
        let identical = w_naive = w_seq && w_seq = w_par in
        let seq_speedup = naive_s /. Float.max 1e-9 opt_seq_s in
        let par_speedup = naive_s /. Float.max 1e-9 opt_par_s in
        (* Covered triples the row/pair/tile bounds eliminated wholesale,
           never touched by the inner loop. *)
        let pruned_fraction =
          let tr = delta "triples" in
          if tr = 0 then 0.
          else
            float_of_int
              (tr - delta "plain_skips" - delta "cheap_skips" - delta "deep")
            /. float_of_int tr
        in
        T.add_row table
          [ T.I n; T.F2 (naive_s *. 1e3); T.F2 (opt_seq_s *. 1e3);
            T.F2 (opt_par_s *. 1e3); T.F2 seq_speedup; T.F2 par_speedup;
            T.F2 pruned_fraction; T.S (string_of_bool identical) ];
        ( identical,
          J.Obj
            [ ("n", J.Num (float_of_int n)); ("naive_s", J.Num naive_s);
              ("opt_seq_s", J.Num opt_seq_s); ("opt_par_s", J.Num opt_par_s);
              ("seq_speedup", J.Num seq_speedup);
              ("par_speedup", J.Num par_speedup);
              ("pruned_fraction", J.Num pruned_fraction);
              ("exp_evals", J.Num (float_of_int (delta "exp_evals")));
              ("bisections", J.Num (float_of_int (delta "bisections")));
              ("identical", J.Bool identical) ] ))
      sizes
  in
  T.print table;
  let span_off_ns = if Obs.tracing () then None else Some (span_off_overhead_ns ()) in
  (match span_off_ns with
  | Some c ->
      Printf.printf "disabled-span overhead: %.1f ns/call (budget %g)\n%!" c
        span_off_budget_ns
  | None ->
      print_endline
        "disabled-span overhead: skipped (a trace sink is installed)");
  let num_i i = J.Num (float_of_int i) in
  Out_channel.with_open_text json_path (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("benchmark", J.Str "flat_logdomain_kernels");
                ("sweep", J.Str "zeta"); ("jobs_parallel", num_i par_jobs);
                ( "domains_available",
                  num_i (Core.Prelude.Parallel.auto_jobs ()) );
                ( "span_off_overhead_ns",
                  match span_off_ns with Some c -> J.Num c | None -> J.Null );
                ("results", J.Arr (List.map snd entries)) ]));
      output_char oc '\n');
  Printf.printf "kernel bench written to %s\n%!" json_path;
  if not (List.for_all fst entries) then begin
    prerr_endline "FATAL: optimized kernel witness diverged from naive sweep";
    exit 1
  end;
  match span_off_ns with
  | Some c when c > span_off_budget_ns ->
      Printf.eprintf
        "FATAL: disabled-span overhead %.1f ns/call exceeds %g ns budget\n"
        c span_off_budget_ns;
      exit 1
  | _ -> ()
