(* What every workload shares: the metric record the final JSON line is
   made of, the traced-run harness (sink on, a root span, registry
   deltas), and the rule that turns the benchmark's own spans into
   ledger stages. *)

module Obs = Core.Prelude.Obs
module Trace = Obs_tools.Trace

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;  (** rejects, errors, give-ups and correctness mismatches *)
  metrics : metric list;
      (** end-to-end metrics from an untraced run, per-layer ones from a
          traced run *)
}

(* The benchmark's own span around one public call; its name, minus the
   prefix, is the ledger stage. *)
let stage name f = Obs.with_span ("bench." ^ name) f
let is_bench (s : Trace.span) = String.starts_with ~prefix:"bench." s.name
let root_name = "bench.workload"

type traced = {
  spans : Trace.span list;
  delta : (string * Obs.metric_snapshot) list;
  root : Trace.span;
}

(* Run [f] with the trace sink at [path] and one root span around it;
   counters and histograms come back as deltas over exactly that
   region. *)
let traced ~path f =
  Obs.set_trace_file path;
  let before = Obs.snapshot () in
  let r =
    Fun.protect ~finally:Obs.close_trace (fun () -> Obs.with_span root_name f)
  in
  let delta = Stats.delta ~before ~after:(Obs.snapshot ()) in
  let spans = Trace.load path in
  let root =
    match List.find_opt (fun (s : Trace.span) -> s.name = root_name) spans with
    | Some s -> s
    | None -> failwith "traced run: root span missing from the trace"
  in
  (r, { spans; delta; root })

let named spans name = List.filter (fun (s : Trace.span) -> s.name = name) spans

let busy spans name =
  List.fold_left (fun acc (s : Trace.span) -> acc +. s.dur_s) 0. (named spans name)

let children spans (p : Trace.span) =
  List.filter
    (fun (s : Trace.span) -> s.parent = p.id && s.domain = p.domain)
    spans

let interval (s : Trace.span) = (s.start_s, s.start_s +. s.dur_s)
let by_start (a : Trace.span) (b : Trace.span) = Float.compare a.start_s b.start_s
let stage_name (s : Trace.span) = String.sub s.name 6 (String.length s.name - 6)

(* Ledger stages from the benchmark's spans directly under the root.
   [expand] may replace one such span by finer stages (the serve loop);
   otherwise the span is one stage, and the part of it covered by the
   program's own spans (kernel sweeps, [analyze], ...) is its program
   time. *)
let ledger ?(expand = fun _ -> None) t =
  let stages =
    children t.spans t.root
    |> List.filter is_bench
    |> List.sort by_start
    |> List.concat_map (fun (s : Trace.span) ->
           match expand s with
           | Some stages -> stages
           | None ->
               let prog =
                 children t.spans s
                 |> List.filter (fun c -> not (is_bench c))
                 |> List.map interval
                 |> Stats.clip (interval s)
                 |> Stats.union_length
               in
               [ { Stats.name = stage_name s; total_s = s.dur_s; program_s = prog } ])
  in
  Stats.ledger ~wall_s:t.root.dur_s (Stats.collapse stages)

(* Shares of the traced wall per layer: every ledger stage is charged to
   the layer named by its first dotted component. *)
let layers =
  [ "protocol"; "server"; "store"; "metricity"; "fading"; "statistics";
    "estimators"; "analysis"; "dimension"; "radio"; "decay_space"; "evolve";
    "incremental"; "check" ]

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let shares (l : Stats.ledger) =
  List.map
    (fun layer ->
      let s =
        List.fold_left
          (fun acc (st : Stats.stage) ->
            if layer_of st.name = layer then acc +. st.total_s else acc)
          0. l.stages
      in
      metric ("share." ^ layer) "%" (100. *. s /. l.wall_s))
    layers

(* Pruned over covered triples, from the pruning tallies the ζ/φ sweeps
   attach to their spans ([n(n-1)(n-2)] triples each). *)
let pruning sweeps =
  let attr s k = Option.value (Trace.attr_num s k) ~default:0. in
  List.fold_left
    (fun (pruned, covered) (s : Trace.span) ->
      let n = attr s "n" in
      let c = n *. (n -. 1.) *. (n -. 2.) in
      let touched = attr s "plain_skips" +. attr s "cheap_skips" +. attr s "deep" in
      (pruned +. c -. touched, covered +. c))
    (0., 0.) sweeps

(* The median duration of each benchmark span [("bench." ^ span)],
   printed under the per-layer name [label]. *)
let print_span_medians t pairs =
  List.iter
    (fun (label, span) ->
      match named t.spans ("bench." ^ span) with
      | [] -> ()
      | ss ->
          let d = Array.of_list (List.map (fun (s : Trace.span) -> s.dur_s) ss) in
          Printf.printf "  %-34s %s\n" label (Stats.pct_label (Stats.percentile d 0.5)))
    pairs

let print_queue_wait t =
  Printf.printf "  %-34s %.6f s (log2 buckets)\n" "parallel.queue_wait_p50_s"
    (Stats.hist_quantile t.delta "parallel.queue_wait_s" 0.5)

let ratio (num, den) = if den > 0. then num /. den else 0.

let print_ratio label (num, den) =
  Printf.printf "  %-34s %.4f  (%.0f / %.0f)\n" label (ratio (num, den)) num den

(* Per-layer metrics every workload reports.  Kernel sweeps run in all
   three (the server's misses, the offline characterizations, the churn
   full-recompute samples), so none of the times here is structurally
   zero; kernel times are busy seconds per workload operation. *)
let common t ~ops ~ledger:(l : Stats.ledger) ~overhead_pct ~speedup =
  let per_op x = x /. float_of_int (max 1 ops) in
  let c name = float_of_int (Stats.counter t.delta name) in
  let sweeps = named t.spans "zeta_sweep" @ named t.spans "phi_sweep" in
  [ metric "ledger.wall_s" "s" l.wall_s;
    metric "ledger.residual_s" "s" l.residual_s;
    metric "trace.overhead_pct" "%" overhead_pct;
    metric "trace.ops" "count" (float_of_int ops);
    metric "metricity.zeta_s" "s" (per_op (busy t.spans "zeta_sweep"));
    metric "metricity.phi_s" "s" (per_op (busy t.spans "phi_sweep"));
    metric "fading.gamma_s" "s" (per_op (busy t.spans "gamma_sweep"));
    metric "parallel.speedup" "x" speedup;
    metric "parallel.queue_wait_mean_s" "s"
      (Stats.hist_mean t.delta "parallel.queue_wait_s");
    metric "parallel.worker_tasks" "count" (c "parallel.worker_tasks");
    metric "parallel.caller_tasks" "count" (c "parallel.caller_tasks");
    metric "kernel.triples" "count" (c "kernel.triples");
    metric "kernel.pruned_fraction" "1" (ratio (pruning sweeps));
    metric "kernel.exp_evals" "count" (c "kernel.exp_evals");
    metric "kernel.bisections" "count" (c "kernel.bisections") ]
  @ shares l

let same_witness (a : Core.Decay.Metricity.witness) (b : Core.Decay.Metricity.witness) =
  a.x = b.x && a.y = b.y && a.z = b.z && Stats.bits_equal a.value b.value

(* Remove a scratch directory tree the benchmark created. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Run [body] on successive operations until [seconds] have passed
   (always at least one). *)
let for_seconds seconds body =
  let deadline = Obs.now_s () +. seconds in
  let rec go i =
    body i;
    if Obs.now_s () < deadline then go (i + 1)
  in
  go 0
