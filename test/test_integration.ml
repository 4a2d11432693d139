open Testutil
module D = Core.Decay.Decay_space
module I = Core.Sinr.Instance
module Pw = Core.Sinr.Power
module F = Core.Sinr.Feasibility

(* ------------------------------------------------- Analysis entry point *)

let test_analysis_geo () =
  let pts = Core.Decay.Spaces.grid_points ~rows:4 ~cols:4 ~spacing:2. in
  let d = D.of_points ~alpha:3. pts in
  let r = Core.Analysis.run d in
  check_float ~eps:2e-3 "zeta = 3" 3. r.Core.Analysis.zeta;
  check_true "symmetric" r.Core.Analysis.symmetric;
  check_true "fading space" r.Core.Analysis.is_fading_space;
  check_true "independence <= 6" (r.Core.Analysis.independence <= 6);
  check_true "phi_log <= zeta"
    (r.Core.Analysis.phi_log <= r.Core.Analysis.zeta +. 1e-6)

let test_analysis_gamma_field () =
  let d = Core.Decay.Spaces.uniform 6 in
  let r =
    Core.Analysis.run
      ~config:{ Core.Analysis.default with Core.Analysis.gamma_at = [ 0.5 ] }
      d
  in
  match r.Core.Analysis.gamma with
  | [ (sep, g) ] ->
      check_float "separation echoed" 0.5 sep;
      check_float "gamma" 2.5 g
  | _ -> Alcotest.fail "expected one gamma entry"

let test_kernel_ctx_variants () =
  (* Job count is plumbing: the [~ctx] variants of each kernel entry
     point must agree with each other. *)
  let module Met = Core.Decay.Metricity in
  let module Fad = Core.Decay.Fading in
  let module St = Core.Decay.Statistics in
  let module Ctx = Core.Decay.Ctx in
  let d = random_asym_space ~n:14 31 in
  check_float "zeta: jobs 2 = default"
    (Met.zeta d)
    (Met.zeta ~ctx:(Ctx.make ~jobs:2 ()) d);
  check_true "zeta_witness: jobs 1 = default"
    (Met.zeta_witness ~ctx:Ctx.default d
    = Met.zeta_witness ~ctx:(Ctx.make ~jobs:1 ()) d);
  check_float "phi: jobs 1 = default"
    (Met.phi ~ctx:Ctx.default d)
    (Met.phi ~ctx:(Ctx.make ~jobs:1 ()) d);
  check_float "gamma: jobs 2 = default at exact_limit 10"
    (Fad.gamma ~ctx:(Ctx.make ~exact_limit:10 ()) d ~r:2.)
    (Fad.gamma ~ctx:(Ctx.make ~jobs:2 ~exact_limit:10 ()) d ~r:2.);
  check_true "summarize: jobs 2 = jobs 1"
    (St.summarize ~ctx:(Ctx.make ~jobs:1 ()) d
    = St.summarize ~ctx:(Ctx.make ~jobs:2 ()) d)

let test_analysis_table_renders () =
  let d = Core.Decay.Spaces.uniform 5 in
  let r = Core.Analysis.run d in
  let s = Core.Prelude.Table.render (Core.Analysis.to_table r) in
  check_true "mentions metricity" (String.length s > 100)

(* ---------------------------------------------------- Solve entry point *)

let test_solve_all_algorithms () =
  let t = planar_instance ~n_links:10 1 in
  List.iter
    (fun algo ->
      let s = Core.Solve.capacity ~algo t in
      check_true
        (Core.Solve.capacity_algo_name algo ^ " feasible")
        (F.is_feasible t (Pw.uniform 1.) s))
    [ Core.Solve.Alg1; Core.Solve.Affectance_greedy; Core.Solve.Strongest_first;
      Core.Solve.Exact ]

let test_solve_schedule_modes () =
  let t = planar_instance ~n_links:10 2 in
  check_true "first fit verifies"
    (Core.Sched.Scheduler.verify t (Core.Solve.schedule ~via:`First_fit t));
  check_true "capacity mode verifies"
    (Core.Sched.Scheduler.verify t
       (Core.Solve.schedule ~via:(`Capacity Core.Solve.Alg1) t))

(* -------------------------------- End-to-end: environment to scheduling *)

let test_pipeline_indoor () =
  (* Build an office, deploy nodes, measure decays, analyze, extract a
     workload, solve capacity, schedule everything, and run the distributed
     game — the full stack on one instance. *)
  let env =
    Core.Radio.Environment.office ~rooms_x:3 ~rooms_y:2 ~room_size:6.
      Core.Radio.Material.drywall
  in
  let g = rng 42 in
  let pts = Core.Decay.Spaces.random_points g ~n:16 ~side:17. in
  let nodes = Core.Radio.Node.of_points pts in
  let cfg =
    { Core.Radio.Propagation.default with
      Core.Radio.Propagation.shadowing_sigma_db = 4. }
  in
  let space = Core.Radio.Measure.decay_space ~seed:7 ~config:cfg env nodes in
  let report = Core.Analysis.run space in
  check_true "indoor zeta above free-space alpha" (report.Core.Analysis.zeta > 2.);
  let t =
    I.random_links_in_space ~zeta:report.Core.Analysis.zeta (rng 8) ~n_links:6
      ~max_decay:(D.max_decay space) space
  in
  (* Capacity. *)
  let s = Core.Solve.capacity t in
  check_true "capacity feasible" (F.is_feasible t (Pw.uniform 1.) s);
  (* Scheduling. *)
  let sched = Core.Solve.schedule t in
  check_true "schedule valid" (Core.Sched.Scheduler.verify t sched);
  (* Distributed game: the no-regret guarantee is about sustained
     throughput (a constant fraction of the optimum), not feasibility of
     the thresholded active set. *)
  let r = Core.Distrib.Regret.run ~rounds:400 (rng 9) t in
  let opt = List.length (Core.Capacity.Exact.capacity t) in
  check_true "game sustains a constant fraction of optimum"
    (r.Core.Distrib.Regret.avg_successes >= 0.25 *. float_of_int opt)

let test_pipeline_measurement_loop () =
  (* The paper's measurement story: the quantized RSSI view of a space has
     nearly the same metricity as the truth. *)
  let env = Core.Radio.Environment.empty ~side:30. in
  let nodes =
    Core.Radio.Node.of_points
      (Core.Decay.Spaces.random_points (rng 10) ~n:10 ~side:25.)
  in
  let truth = Core.Radio.Measure.decay_space ~seed:3 env nodes in
  let measured =
    Core.Radio.Measure.measured_decay_space ~tx_power_dbm:20. truth
  in
  let zt = Core.Decay.Metricity.zeta truth in
  let zm = Core.Decay.Metricity.zeta measured in
  check_true "measured metricity close to truth" (Float.abs (zt -. zm) < 0.5)

(* --------------------------------------- Proposition 1: theory transfer *)

let test_prop1_quasi_metric_equivalence () =
  (* Running a metric-space algorithm on the induced quasi-metric with
     path-loss zeta is the same as running it directly on the decay space:
     decays, affectances and hence algorithm outputs coincide. *)
  let sp = random_space ~n:16 ~range:40. 20 in
  let t =
    I.random_links_in_space ~zeta:(Core.Decay.Metricity.zeta sp) (rng 21)
      ~n_links:6 ~max_decay:(D.max_decay sp) sp
  in
  let m, z = Core.Decay.Quasi_metric.induce sp in
  let sp' = Core.Decay.Quasi_metric.round_trip ~zeta:z m in
  let pairs =
    Array.to_list
      (Array.map
         (fun l -> (l.Core.Sinr.Link.sender, l.Core.Sinr.Link.receiver))
         t.I.links)
  in
  let t' = I.make ~zeta:z sp' pairs in
  let s = Core.Capacity.Alg1.run t in
  let s' = Core.Capacity.Alg1.run t' in
  Alcotest.(check (list int)) "same selection through the quasi-metric"
    (ids s) (ids s')

let test_prop1_geo_preserved () =
  (* On a GEO-SINR instance the decay-space pipeline changes nothing. *)
  let t = planar_instance ~n_links:12 22 in
  let computed_zeta = Core.Decay.Metricity.zeta t.I.space in
  let t' =
    I.make ~zeta:computed_zeta t.I.space
      (Array.to_list
         (Array.map
            (fun l -> (l.Core.Sinr.Link.sender, l.Core.Sinr.Link.receiver))
            t.I.links))
  in
  Alcotest.(check (list int)) "alg1 unchanged"
    (ids (Core.Capacity.Alg1.run t))
    (ids (Core.Capacity.Alg1.run t'))

(* ---------------------------------------------- Theorem 5 vs hardness *)

let test_alg1_reasonable_on_indoor () =
  (* Algorithm 1 stays within a small factor of optimum on a measured
     indoor space (bounded growth in practice). *)
  let env =
    Core.Radio.Environment.random_clutter (rng 30) ~side:40. ~n_walls:25
      [ Core.Radio.Material.concrete; Core.Radio.Material.drywall ]
  in
  let nodes =
    Core.Radio.Node.of_points
      (Core.Decay.Spaces.random_points (rng 31) ~n:24 ~side:38.)
  in
  let space = Core.Radio.Measure.decay_space ~seed:5 env nodes in
  let zeta = Core.Decay.Metricity.zeta space in
  let t =
    I.random_links_in_space ~zeta (rng 32) ~n_links:10
      ~max_decay:(Core.Prelude.Stats.percentile
                    (Array.of_list
                       (List.concat_map
                          (fun i ->
                            List.filteri (fun j _ -> j <> i)
                              (List.init 24 (fun j ->
                                   if i = j then 1. else D.decay space i j)))
                          (List.init 24 Fun.id)))
                    30.)
      space
  in
  let opt = List.length (Core.Capacity.Exact.capacity t) in
  let alg = List.length (Core.Capacity.Alg1.run t) in
  check_true "within factor 8 of optimum" (opt <= 8 * max 1 alg)

let suite =
  [
    ( "core.analysis",
      [
        case "geo report" test_analysis_geo;
        case "gamma field" test_analysis_gamma_field;
        case "ctx variants agree" test_kernel_ctx_variants;
        case "table renders" test_analysis_table_renders;
      ] );
    ( "core.solve",
      [
        case "all capacity algorithms" test_solve_all_algorithms;
        case "schedule modes" test_solve_schedule_modes;
      ] );
    ( "integration.pipeline",
      [
        case "indoor end-to-end" test_pipeline_indoor;
        case "measurement loop" test_pipeline_measurement_loop;
        case "alg1 on indoor space" test_alg1_reasonable_on_indoor;
      ] );
    ( "integration.prop1",
      [
        case "quasi-metric equivalence" test_prop1_quasi_metric_equivalence;
        case "geo preserved" test_prop1_geo_preserved;
      ] );
  ]
