(* offline_analysis: the bg analyze path on freshly generated spaces.

   One operation analyzes one site: a geometric space (alpha = 3, built
   by Decay_space.of_points) and two walled ones from the radio
   simulator (office drywall and concrete/metal clutter, through
   Radio.Measure.decay_space), each characterized by zeta, phi, gamma(4)
   and summarize — uncached, one job per core — then the full
   Analysis.run report, gamma at r = 4, on a small space.  Geometric
   spaces load the kernels' inner loop and its exp evaluations, walled
   ones the pruning bounds and gamma, and the report loads Dimension.
   Every site holds all three kinds, so operations cost alike and their
   median does not fall between two kinds.  Generating a site is its
   set-up. *)

open Perfbench
module D = Core.Decay
module R = Core.Radio
module Rng = Core.Prelude.Rng
module Obs = Core.Prelude.Obs
module Trace = Obs_tools.Trace

let alpha = 3.
let n_space = 256
let n_report = 24
let r = 4.

type site = {
  geo : D.Decay_space.t;
  office : D.Decay_space.t;
  clutter : D.Decay_space.t;
  small : D.Decay_space.t;
}

let walled_space rng ~tag ~office ~n =
  Bench.stage ("radio.measure." ^ tag) (fun () ->
      let seed = Rng.int rng 1_000_000 in
      let env, side =
        if office then
          (R.Environment.office ~rooms_x:3 ~rooms_y:3 ~room_size:6. R.Material.drywall, 17.)
        else
          ( R.Environment.random_clutter rng ~side:25. ~n_walls:30
              [ R.Material.concrete; R.Material.metal ],
            24. )
      in
      let pts = D.Spaces.random_points rng ~n ~side in
      R.Measure.decay_space ~seed env (R.Node.of_points pts))

let generate rng i =
  let geo =
    Bench.stage "decay_space.of_points" (fun () ->
        D.Decay_space.of_points ~alpha (D.Spaces.random_points rng ~n:n_space ~side:25.))
  in
  let office = walled_space rng ~tag:"site" ~office:true ~n:n_space in
  let clutter = walled_space rng ~tag:"site" ~office:false ~n:n_space in
  let small = walled_space rng ~tag:"report" ~office:(i mod 2 = 0) ~n:n_report in
  { geo; office; clutter; small }

type chars = {
  zeta : D.Metricity.witness;
  phi : D.Metricity.witness;
  gamma : float;
  summary : D.Statistics.summary;
}

(* zeta, phi, gamma and the summary of one space; [tag] names the
   ledger stages. *)
let characterize ~ctx ?tag s =
  let st name f =
    match tag with None -> f () | Some t -> Bench.stage (name ^ "." ^ t) f
  in
  let zeta = st "metricity.zeta" (fun () -> D.Metricity.zeta_witness ~ctx s) in
  let phi = st "metricity.phi" (fun () -> D.Metricity.phi_witness ~ctx s) in
  let gamma = st "fading.gamma" (fun () -> D.Fading.gamma ~ctx s ~r) in
  let summary = st "statistics.summarize" (fun () -> D.Statistics.summarize ~ctx s) in
  { zeta; phi; gamma; summary }

let same_chars a b =
  Bench.same_witness a.zeta b.zeta
  && Bench.same_witness a.phi b.phi
  && Stats.bits_equal a.gamma b.gamma
  && a.summary = b.summary

(* A geometric space's metricity is alpha: the kernel's bisection
   returns the lower end of its bracket, so it never exceeds alpha, and
   with hundreds of points some triple is close enough to collinear to
   come within [zeta_slack] of it. *)
let zeta_slack = 1e-3

type op = {
  setup_s : float;
  geo_s : float;
  office_s : float;
  clutter_s : float;
  report_s : float;
  ok : bool;
}

let op_total o = o.geo_s +. o.office_s +. o.clutter_s +. o.report_s

(* The three characterized spaces of a site, with their stage tags. *)
let kinds site = [ ("geo", site.geo); ("office", site.office); ("clutter", site.clutter) ]

type kept = { site : site; chars : chars list }

(* One site.  With [probe], the report's Dimension parameters are also
   timed one public call at a time, and the site is kept for the jobs=1
   check. *)
let one ~ctx ~probe rng i =
  let t0 = Obs.now_s () in
  let site = generate rng i in
  let t1 = Obs.now_s () in
  let g = characterize ~ctx ~tag:"geo" site.geo in
  let t2 = Obs.now_s () in
  let o = characterize ~ctx ~tag:"office" site.office in
  let t3 = Obs.now_s () in
  let c = characterize ~ctx ~tag:"clutter" site.clutter in
  let t4 = Obs.now_s () in
  let report =
    Bench.stage "analysis.run" (fun () ->
        Core.Analysis.run ~config:{ Core.Analysis.ctx; gamma_at = [ r ] } site.small)
  in
  let t5 = Obs.now_s () in
  if probe then begin
    let s = site.small in
    ignore (Bench.stage "dimension.assouad" (fun () -> D.Dimension.assouad s));
    ignore
      (Bench.stage "dimension.quasi_doubling" (fun () ->
           D.Dimension.quasi_doubling ~zeta:report.zeta s));
    ignore
      (Bench.stage "dimension.independence" (fun () ->
           D.Dimension.independence_dimension s));
    ignore (Bench.stage "dimension.guards" (fun () -> D.Dimension.max_guard_count s))
  end;
  let ok = g.zeta.value <= alpha && g.zeta.value >= alpha *. (1. -. zeta_slack) in
  ( { setup_s = t1 -. t0; geo_s = t2 -. t1; office_s = t3 -. t2; clutter_s = t4 -. t3;
      report_s = t5 -. t4; ok },
    if probe then Some { site; chars = [ g; o; c ] } else None )

(* Sites until [seconds] pass; the first [probes] of them are kept. *)
let measure ~ctx ~rng ~probes seconds =
  let ops = ref [] and kept = ref [] in
  Bench.for_seconds seconds (fun i ->
      let o, k = one ~ctx ~probe:(i < probes) rng i in
      ops := o :: !ops;
      Option.iter (fun k -> kept := k :: !kept) k);
  (Array.of_list (List.rev !ops), !kept)

(* The kept sites characterized again at jobs=1 and at jobs=nproc,
   untraced: both must reproduce the traced answers bit for bit, and
   their time ratio is the parallel speedup. *)
let jobs_check ~ctx kept =
  let time c =
    let t0 = Obs.now_s () in
    let rs =
      List.map (fun k -> List.map (fun (_, s) -> characterize ~ctx:c s) (kinds k.site)) kept
    in
    (Obs.now_s () -. t0, rs)
  in
  let t1, r1 = time { ctx with D.Ctx.jobs = Some 1 } in
  let tn, rn = time ctx in
  let agree k (a, b) =
    List.for_all2 same_chars k.chars a && List.for_all2 same_chars k.chars b
  in
  (t1 /. tn, List.length (List.filter not (List.map2 agree kept (List.combine r1 rn))))

let tail_q = 0.75

let run ~seed ~seconds ~traced ~dir =
  let nproc = Core.Prelude.Parallel.auto_jobs () in
  let ctx = { D.Ctx.uncached with jobs = Some nproc } in
  let rng = Rng.create seed in
  let failed ops = Array.fold_left (fun a o -> if o.ok then a else a + 1) 0 ops in
  let report ops =
    let line name f =
      Printf.printf "  %-30s %s\n" name
        (Stats.pct_label (Stats.percentile (Array.map f ops) 0.5))
    in
    Printf.printf
      "offline_analysis: %d sites (geometric, office and clutter n=%d, report n=%d)\n"
      (Array.length ops) n_space n_report;
    line "characterize_geo_s" (fun o -> o.geo_s);
    line "characterize_walled_s.office" (fun o -> o.office_s);
    line "characterize_walled_s.clutter" (fun o -> o.clutter_s);
    line "report_s" (fun o -> o.report_s);
    line "generate_s" (fun o -> o.setup_s);
    Printf.printf "  failed_frac %.6f (%d / %d)\n"
      (float_of_int (failed ops) /. float_of_int (Array.length ops))
      (failed ops) (Array.length ops)
  in
  if not traced then begin
    let ops, _ = measure ~ctx ~rng ~probes:0 seconds in
    report ops;
    let totals = Array.map op_total ops in
    let tail = Stats.percentile totals tail_q in
    Printf.printf "  op_p50_s %s\n  op_tail_s %s%s\n"
      (Stats.pct_label (Stats.percentile totals 0.5))
      (Stats.pct_label tail)
      (if Stats.reportable tail then "" else "  [fewer than 10 samples beyond]");
    {
      Bench.attempted = Array.length ops;
      failed = failed ops;
      metrics =
        [ Bench.metric "op_p50_s" "s" (Stats.median totals);
          Bench.metric "op_tail_s" "s" tail.value;
          Bench.metric "ops_per_s" "1/s"
            (float_of_int (Array.length ops) /. Array.fold_left ( +. ) 0. totals);
          Bench.metric "setup_s" "s" (Stats.median (Array.map (fun o -> o.setup_s) ops)) ];
    }
  end
  else begin
    let base, _ = measure ~ctx ~rng ~probes:0 (seconds /. 2.) in
    let (ops, kept), t =
      Bench.traced ~path:(Filename.concat dir "trace.jsonl") (fun () ->
          measure ~ctx ~rng ~probes:2 (seconds /. 2.))
    in
    let speedup, bad = jobs_check ~ctx kept in
    report ops;
    let overhead =
      100.
      *. ((Stats.median (Array.map op_total ops) /. Stats.median (Array.map op_total base))
         -. 1.)
    in
    let l = Bench.ledger t in
    Stats.print_ledger ~title:"offline_analysis" ~overhead_pct:overhead l;
    (* per-kind pruning: the sweeps under each kind's stages *)
    let by_id = Hashtbl.create 4096 in
    List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.id s) t.spans;
    let kind_sweeps tags =
      List.filter
        (fun (s : Trace.span) ->
          (s.name = "zeta_sweep" || s.name = "phi_sweep")
          &&
          match Hashtbl.find_opt by_id s.parent with
          | Some (p : Trace.span) ->
              List.exists (fun tag -> String.ends_with ~suffix:("." ^ tag) p.name) tags
          | None -> false)
        t.spans
    in
    Bench.print_span_medians t
      (List.concat_map
         (fun (label, stage) ->
           List.map
             (fun (tag, kind) -> (label ^ "." ^ kind, stage ^ "." ^ tag))
             [ ("geo", "geo"); ("office", "walled.office"); ("clutter", "walled.clutter") ])
         [ ("metricity.zeta_s", "metricity.zeta"); ("metricity.phi_s", "metricity.phi");
           ("fading.gamma_s", "fading.gamma");
           ("statistics.summarize_s", "statistics.summarize") ]
      @ [ ("analysis.run_s", "analysis.run");
          ("radio.measure_s.site", "radio.measure.site");
          ("radio.measure_s.report", "radio.measure.report");
          ("dimension.assouad_s", "dimension.assouad");
          ("dimension.quasi_doubling_s", "dimension.quasi_doubling");
          ("dimension.independence_s", "dimension.independence");
          ("dimension.guards_s", "dimension.guards") ]);
    Bench.print_queue_wait t;
    let geo = Bench.pruning (kind_sweeps [ "geo" ])
    and walled = Bench.pruning (kind_sweeps [ "office"; "clutter" ]) in
    Bench.print_ratio "kernel.pruned_fraction.geo (pruned / triples)" geo;
    Bench.print_ratio "kernel.pruned_fraction.walled (pruned / triples)" walled;
    Bench.print_ratio "  of which office" (Bench.pruning (kind_sweeps [ "office" ]));
    Bench.print_ratio "  of which clutter" (Bench.pruning (kind_sweeps [ "clutter" ]));
    Printf.printf "  parallel.speedup %.3f (jobs=1 over jobs=%d, %d sites)\n" speedup nproc
      (List.length kept);
    {
      Bench.attempted = Array.length ops + List.length kept;
      failed = failed ops + bad;
      metrics =
        Bench.common t ~ops:(Array.length ops) ~ledger:l ~overhead_pct:overhead ~speedup
        @ [ Bench.metric "kernel.pruned_fraction.geo" "1" (Bench.ratio geo);
            Bench.metric "kernel.pruned_fraction.walled" "1" (Bench.ratio walled) ];
    }
  end
