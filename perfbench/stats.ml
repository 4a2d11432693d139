(* The arithmetic behind every number the benchmark prints: percentiles
   that carry their sample counts, deltas of the process-wide Obs
   registry, interval unions, and the stage ledger whose residual makes
   "the parts add up" checkable.  Kept apart from the workloads so the
   tests next to it can pin each rule. *)

module Obs = Core.Prelude.Obs

(* ----------------------------------------------------------- percentiles *)

type pct = {
  q : float;
  value : float;
  samples : int;
  beyond : int;  (** samples strictly above the selected rank *)
}

(* Nearest-rank percentile: the smallest sample with at least [q] of the
   samples at or below it.  The epsilon keeps [q *. n] that lands a
   rounding error above an integer (0.99 *. 100.) on that integer. *)
let percentile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if not (q > 0. && q <= 1.) then invalid_arg "Stats.percentile: q not in (0,1]";
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let rank = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  let i = max 0 (min (n - 1) (rank - 1)) in
  { q; value = a.(i); samples = n; beyond = n - 1 - i }

(* A percentile is only reported when at least ten samples lie beyond
   it; otherwise one outlier more or less would move it. *)
let reportable p = p.beyond >= 10

let median xs = (percentile xs 0.5).value

(* The highest of p99, p95, p90 and p75 that is reportable, else the
   median.  Only for printed figures: a gated tail keeps one fixed
   percentile, or a faster program with more samples would report a
   higher one. *)
let tail xs =
  let rec go = function
    | [] -> percentile xs 0.5
    | q :: rest ->
        let p = percentile xs q in
        if reportable p then p else go rest
  in
  go [ 0.99; 0.95; 0.9; 0.75 ]

let pct_label p =
  Printf.sprintf "p%g=%.6g (n=%d, %d beyond)" (100. *. p.q) p.value p.samples
    p.beyond

(* ------------------------------------------------------ registry deltas *)

(* The Obs registry is process-wide and never reset by the benchmark, so
   every counter and histogram is read as [after - before] around the
   region it describes.  A metric registered inside the region counts
   from zero. *)
let delta ~before ~after =
  List.map
    (fun (name, a) ->
      let b = List.assoc_opt name before in
      let d =
        match (a, b) with
        | Obs.Counter_snapshot x, Some (Obs.Counter_snapshot y) ->
            Obs.Counter_snapshot (x - y)
        | Obs.Histogram_snapshot x, Some (Obs.Histogram_snapshot y) ->
            let buckets =
              List.filter_map
                (fun (i, c) ->
                  let c' = c - Option.value (List.assoc_opt i y.buckets) ~default:0 in
                  if c' = 0 then None else Some (i, c'))
                x.buckets
            in
            Obs.Histogram_snapshot
              { count = x.count - y.count; sum = x.sum -. y.sum; buckets }
        | v, _ -> v (* gauges are levels, not totals; new metrics count from 0 *)
      in
      (name, d))
    after

let counter d name =
  match List.assoc_opt name d with Some (Obs.Counter_snapshot v) -> v | _ -> 0

let hist d name =
  match List.assoc_opt name d with
  | Some (Obs.Histogram_snapshot h) -> (h.count, h.sum)
  | _ -> (0, 0.)

(* Mean of a histogram delta; 0 when nothing was observed. *)
let hist_mean d name =
  match hist d name with 0, _ -> 0. | c, s -> s /. float_of_int c

(* Quantile of a histogram delta at the geometric midpoint of the
   selected log2 bucket — the estimator Obs uses live, so the two are
   comparable.  Coarse (a factor of sqrt 2), hence printed, never
   gated. *)
let hist_quantile d name q =
  match List.assoc_opt name d with
  | Some (Obs.Histogram_snapshot { count; buckets; _ }) when count > 0 ->
      let rank = int_of_float (Float.round (q *. float_of_int (count - 1))) in
      let rec go seen = function
        | [] -> 0.
        | (b, c) :: rest ->
            if seen + c > rank then
              if b <= 0 then 0.
              else if b >= Obs.num_buckets - 1 then Obs.bucket_lower_bound b
              else Obs.bucket_lower_bound b *. Float.sqrt 2.
            else go (seen + c) rest
      in
      go 0 (List.sort compare buckets)
  | _ -> 0.

(* ------------------------------------------------------------- intervals *)

(* Total length covered by a set of [(start, stop)] intervals, overlaps
   counted once. *)
let union_length ivs =
  let ivs = List.sort compare (List.filter (fun (a, b) -> b > a) ivs) in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (acc, Some (ca, Float.max cb b))
            else (acc +. (cb -. ca), Some (a, b)))
      (0., None) ivs
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let clip (lo, hi) ivs =
  List.filter_map
    (fun (a, b) ->
      let a = Float.max a lo and b = Float.min b hi in
      if b > a then Some (a, b) else None)
    ivs

(* ---------------------------------------------------------------- ledger *)

type stage = {
  name : string;
  total_s : float;
  program_s : float;  (** part covered by the program's own spans *)
}

type ledger = { wall_s : float; stages : stage list; residual_s : float }

(* Stages are disjoint slices of one wall-clock interval; whatever they
   do not cover is the residual, reported on its own line rather than
   folded into a stage. *)
let ledger ~wall_s stages =
  let covered = List.fold_left (fun acc s -> acc +. s.total_s) 0. stages in
  { wall_s; stages; residual_s = wall_s -. covered }

(* Merge stages that share a name, keeping first-seen order. *)
let collapse stages =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt tbl s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name s
      | Some t ->
          Hashtbl.replace tbl s.name
            { t with total_s = t.total_s +. s.total_s;
                     program_s = t.program_s +. s.program_s })
    stages;
  List.rev_map (Hashtbl.find tbl) !order

let print_ledger ~title ~overhead_pct l =
  Printf.printf "ledger %s: traced wall %.4f s\n" title l.wall_s;
  Printf.printf "  %-26s %11s %7s %11s %11s\n" "stage" "total_s" "share"
    "program_s" "self_s";
  List.iter
    (fun s ->
      Printf.printf "  %-26s %11.5f %6.2f%% %11.5f %11.5f\n" s.name s.total_s
        (100. *. s.total_s /. l.wall_s)
        s.program_s (s.total_s -. s.program_s))
    l.stages;
  Printf.printf "  %-26s %11.5f %6.2f%%   (tracing overhead %+.2f%%)\n"
    "residual" l.residual_s (100. *. l.residual_s /. l.wall_s) overhead_pct

(* ----------------------------------------------------------------- misc *)

(* Peak resident set of this process in MB (Linux VmHWM). *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | s ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                  float_of_int kb /. 1024.)
          | _ -> None)
        (String.split_on_char '\n' s)
      |> Option.value ~default:0.
  | exception Sys_error _ -> 0.

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
