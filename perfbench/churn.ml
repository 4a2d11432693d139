(* churn_mobility: two mobility traces maintained step by step.

   Each trace is an Evolve random-waypoint deployment whose zeta, phi
   and gamma(4) are maintained by Incremental; one operation advances
   both traces by one step — Evolve.step, then Incremental.step on its
   dirty rows.  walk keeps Evolve's default 2-8 s pauses, so most nodes
   move every step; linger pauses 20-60 s, so few do.  The dirty-set
   size is the input property Incremental's cost depends on, so the two
   traces sit on either side of any incremental-versus-full dispatch.
   Traces are re-created every [epoch] steps; set-up is Evolve.create,
   [warmup] unmaintained steps to reach steady motion, and
   Incremental.create.  The last step of every trace is checked against
   a full uncached recompute. *)

open Perfbench
module D = Core.Decay
module Rng = Core.Prelude.Rng
module Obs = Core.Prelude.Obs

let n = 176
let r = 4.
let warmup = 20
let epoch = 16

type trace = {
  name : string;
  ev : D.Evolve.t;
  inc : D.Incremental.t;
  mutable res : D.Incremental.result;
  mutable space : D.Decay_space.t;
}

let config = function
  | "walk" -> { D.Evolve.default with n }
  | _ -> { D.Evolve.default with n; pause_min = 20.; pause_max = 60. }

let create ~ctx ~seed name =
  let ev =
    Bench.stage "evolve.create" (fun () ->
        let ev = D.Evolve.create ~name ~seed (config name) in
        for _ = 1 to warmup do
          ignore (D.Evolve.step ev)
        done;
        ev)
  in
  let inc =
    Bench.stage "incremental.create" (fun () ->
        D.Incremental.create ~ctx ~r (D.Evolve.space ev))
  in
  { name; ev; inc; res = D.Incremental.current inc; space = D.Evolve.space ev }

(* One maintained step; its wall time and dirty-set size. *)
let step tr =
  let t0 = Obs.now_s () in
  let space, dirty =
    Bench.stage ("evolve.step." ^ tr.name) (fun () -> D.Evolve.step tr.ev)
  in
  tr.res <-
    Bench.stage ("incremental.step." ^ tr.name) (fun () ->
        D.Incremental.step tr.inc ~dirty space);
  tr.space <- space;
  (Obs.now_s () -. t0, Array.length dirty)

let full ~ctx space =
  let z = D.Metricity.zeta_witness ~ctx space in
  let p = D.Metricity.phi_witness ~ctx space in
  (z, p, D.Fading.gamma ~ctx space ~r)

let agrees (res : D.Incremental.result) (z, p, g) =
  Bench.same_witness res.zeta z
  && Bench.same_witness res.phi p
  && match res.gamma with Some gi -> Stats.bits_equal gi.g_value g | None -> false

type measured = {
  ticks : float array;  (** one step of each trace *)
  walk : float array;
  linger : float array;
  dirty : (string * int) list;
  setups : float array;  (** per trace *)
  checks : int;
  failed : int;
  pairs_full : int;
  last : trace list;  (** the final epoch's traces *)
}

(* Epochs of fresh traces until [seconds] pass; each trace's last step
   is checked against a full uncached recompute. *)
let measure ~ctx ~rng seconds =
  let ticks = ref [] and walk = ref [] and linger = ref [] and dirty = ref [] in
  let setups = ref [] and checks = ref 0 and failed = ref 0 and pairs = ref 0 in
  let last = ref [] and first = ref true in
  let deadline = Obs.now_s () +. seconds in
  while !first || Obs.now_s () < deadline do
    first := false;
    let make name =
      let t0 = Obs.now_s () in
      let tr = create ~ctx ~seed:(Rng.int rng 1_000_000_000) name in
      setups := (Obs.now_s () -. t0) :: !setups;
      tr
    in
    let w = make "walk" in
    let l = make "linger" in
    let k = ref 0 in
    while !k < epoch && (!k = 0 || Obs.now_s () < deadline) do
      let tw, dw = step w in
      let tl, dl = step l in
      ticks := (tw +. tl) :: !ticks;
      walk := tw :: !walk;
      linger := tl :: !linger;
      dirty := ("linger", dl) :: ("walk", dw) :: !dirty;
      incr k
    done;
    List.iter
      (fun tr ->
        let f = Bench.stage ("check.full." ^ tr.name) (fun () -> full ~ctx tr.space) in
        incr checks;
        if not (agrees tr.res f) then incr failed;
        pairs := !pairs + (D.Incremental.stats tr.inc).pairs_full)
      [ w; l ];
    last := [ w; l ]
  done;
  let arr l = Array.of_list (List.rev l) in
  {
    ticks = arr !ticks;
    walk = arr !walk;
    linger = arr !linger;
    dirty = List.rev !dirty;
    setups = arr !setups;
    checks = !checks;
    failed = !failed;
    pairs_full = !pairs;
    last = !last;
  }

(* The final traces' spaces recomputed at jobs=1 and at jobs=nproc,
   untraced: both must agree with the maintained answers, and their time
   ratio is the parallel speedup. *)
let jobs_check ~ctx traces =
  let time c =
    let t0 = Obs.now_s () in
    let fs = List.map (fun tr -> full ~ctx:c tr.space) traces in
    (Obs.now_s () -. t0, fs)
  in
  let t1, f1 = time { ctx with D.Ctx.jobs = Some 1 } in
  let tn, fn = time ctx in
  let agree tr (a, b) = agrees tr.res a && agrees tr.res b in
  (t1 /. tn, List.length (List.filter not (List.map2 agree traces (List.combine f1 fn))))

let tail_q = 0.75

let run ~seed ~seconds ~traced ~dir =
  let nproc = Core.Prelude.Parallel.auto_jobs () in
  let ctx = { D.Ctx.uncached with jobs = Some nproc } in
  let rng = Rng.create seed in
  let dirty_of m name =
    Array.of_list
      (List.filter_map
         (fun (k, d) -> if k = name then Some (float_of_int d) else None)
         m.dirty)
  in
  let attempted m = Array.length m.ticks + m.checks in
  let report m =
    Printf.printf "churn_mobility: n=%d, %d steps of walk + linger, %d traces\n" n
      (Array.length m.ticks) (Array.length m.setups);
    Printf.printf "  walk_step_s %s\n  linger_step_s %s\n"
      (Stats.pct_label (Stats.percentile m.walk 0.5))
      (Stats.pct_label (Stats.percentile m.linger 0.5));
    Printf.printf "  dirty rows per step: walk %s; linger %s\n"
      (Stats.pct_label (Stats.percentile (dirty_of m "walk") 0.5))
      (Stats.pct_label (Stats.percentile (dirty_of m "linger") 0.5));
    Printf.printf "  failed_frac %.6f (%d / %d steps and checks)\n"
      (float_of_int m.failed /. float_of_int (attempted m))
      m.failed (attempted m)
  in
  if not traced then begin
    let m = measure ~ctx ~rng seconds in
    report m;
    let tail = Stats.percentile m.ticks tail_q in
    let setup = Stats.median m.setups in
    Printf.printf "  op_p50_s %s\n  op_tail_s %s%s\n  setup_s %.6f s (median of %d traces)\n"
      (Stats.pct_label (Stats.percentile m.ticks 0.5))
      (Stats.pct_label tail)
      (if Stats.reportable tail then "" else "  [fewer than 10 samples beyond]")
      setup (Array.length m.setups);
    {
      Bench.attempted = attempted m;
      failed = m.failed;
      metrics =
        [ Bench.metric "op_p50_s" "s" (Stats.median m.ticks);
          Bench.metric "op_tail_s" "s" tail.value;
          Bench.metric "ops_per_s" "1/s"
            (float_of_int (Array.length m.ticks) /. Array.fold_left ( +. ) 0. m.ticks);
          Bench.metric "setup_s" "s" setup ];
    }
  end
  else begin
    let base = measure ~ctx ~rng (seconds /. 2.) in
    let m, t =
      Bench.traced ~path:(Filename.concat dir "trace.jsonl") (fun () ->
          measure ~ctx ~rng (seconds /. 2.))
    in
    let speedup, bad = jobs_check ~ctx m.last in
    report m;
    let overhead = 100. *. ((Stats.median m.ticks /. Stats.median base.ticks) -. 1.) in
    let l = Bench.ledger t in
    Stats.print_ledger ~title:"churn_mobility" ~overhead_pct:overhead l;
    Bench.print_span_medians t
      [ ("incremental.step_s.walk", "incremental.step.walk");
        ("incremental.step_s.linger", "incremental.step.linger");
        ("evolve.step_s.walk", "evolve.step.walk");
        ("evolve.step_s.linger", "evolve.step.linger");
        ("incremental.create_s", "incremental.create");
        ("evolve.create_s", "evolve.create");
        (* the bar an incremental step has to beat *)
        ("metricity.full_step_s.walk", "check.full.walk");
        ("metricity.full_step_s.linger", "check.full.linger") ];
    Bench.print_queue_wait t;
    let c name = float_of_int (Stats.counter t.delta name) in
    let swept = c "incremental.triples_swept" and full = c "incremental.triples_full_equiv" in
    Bench.print_ratio "incremental triples swept / full-equivalent" (swept, full);
    Printf.printf "  parallel.speedup %.3f (jobs=1 over jobs=%d on the last spaces)\n" speedup nproc;
    let dirty = Array.of_list (List.map (fun (_, d) -> float_of_int d) m.dirty) in
    {
      Bench.attempted = attempted m + List.length m.last;
      failed = m.failed + bad;
      metrics =
        Bench.common t ~ops:(Array.length m.ticks) ~ledger:l ~overhead_pct:overhead ~speedup
        @ [ Bench.metric "incremental.dirty_rows_p50" "count" (Stats.median dirty);
            Bench.metric "incremental.triples_swept" "count" swept;
            Bench.metric "incremental.triples_full" "count" full;
            Bench.metric "incremental.savings" "x" (Bench.ratio (full, swept));
            Bench.metric "incremental.pairs_full" "count" (float_of_int m.pairs_full);
            Bench.metric "incremental.gamma_recomputed" "count"
              (c "incremental.gamma_recomputed") ];
    }
  end
