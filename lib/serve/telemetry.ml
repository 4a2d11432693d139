(* Periodic metrics snapshots for a live daemon.

   One JSONL line per interval with absolute values *and* deltas against
   the previous snapshot: absolutes make any single line a complete
   scrape, deltas make rate computation (bg top, bg slo) trivial without
   the consumer having to handle counter resets — the producer already
   clamped them.

   The file is a ring.  Append-only between rewrites (a supervised
   worker respawn reopens in append mode and keeps the ring going);
   once more than 2 * max_lines lines have accumulated, the newest
   max_lines are rewritten to a temp file which is renamed into place —
   the same atomic-replace idiom the store snapshot uses, so a reader
   never sees a torn file. *)

module Obs = Core.Prelude.Obs
module J = Core.Prelude.Jsonl

let delta ~prev ~cur = if cur >= prev then cur - prev else cur
let delta_f ~prev ~cur = if cur >= prev then cur -. prev else cur

(* Lines the ring keeps after a rewrite. *)
let max_lines = 512

type t = {
  path : string;
  ival_s : float;
  mutable oc : out_channel;
  mutable lines : string Queue.t; (* newest max_lines, for ring rewrite *)
  mutable written : int; (* lines in the file right now *)
  mutable last_s : float; (* last snapshot time; nan = never *)
  mutable seq : int;
  mutable prev : (string * Obs.metric_snapshot) list;
  started_s : float;
}

let read_tail path =
  if not (Sys.file_exists path) then (Queue.create (), 0)
  else begin
    let q = Queue.create () in
    let ic = open_in path in
    (try
       while true do
         Queue.push (input_line ic) q;
         if Queue.length q > max_lines then ignore (Queue.pop q)
       done
     with End_of_file -> close_in ic);
    (q, Queue.length q)
  end

let create ?(interval_s = 1.) path =
  (* Continue an existing ring rather than clobbering it: the respawned
     worker's first delta then clamps against the old process's last
     absolute values. *)
  let lines, written = read_tail path in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
  in
  {
    path;
    ival_s = interval_s;
    oc;
    lines;
    written;
    last_s = Float.nan;
    seq = 0;
    prev = [];
    started_s = Obs.now_s ();
  }

let interval_s t = t.ival_s

let prev_of t name =
  List.assoc_opt name t.prev

let obj_of_pairs pairs = J.Obj pairs

let snapshot_json t ~now snap =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, m) ->
      match m with
      | Obs.Counter_snapshot cur ->
          let prev =
            match prev_of t name with
            | Some (Obs.Counter_snapshot p) -> p
            | _ -> 0
          in
          counters :=
            ( name,
              obj_of_pairs
                [ ("value", J.Num (float_of_int cur));
                  ("delta", J.Num (float_of_int (delta ~prev ~cur))) ] )
            :: !counters
      | Obs.Gauge_snapshot v -> gauges := (name, J.Num v) :: !gauges
      | Obs.Histogram_snapshot { count; sum; buckets } ->
          let pcount, psum, pbuckets =
            match prev_of t name with
            | Some (Obs.Histogram_snapshot p) -> (p.count, p.sum, p.buckets)
            | _ -> (0, 0., [])
          in
          let reset = count < pcount in
          let bucket_delta (i, cur) =
            let prev =
              if reset then 0
              else
                match List.assoc_opt i pbuckets with
                | Some p -> p
                | None -> 0
            in
            (string_of_int i, J.Num (float_of_int (delta ~prev ~cur)))
          in
          let bd =
            List.filter_map
              (fun (i, c) ->
                let (k, v) = bucket_delta (i, c) in
                match v with J.Num 0. -> None | _ -> Some (k, v))
              buckets
          in
          histograms :=
            ( name,
              obj_of_pairs
                [ ("count", J.Num (float_of_int count));
                  ( "count_delta",
                    J.Num (float_of_int (delta ~prev:pcount ~cur:count)) );
                  ("sum", J.Num sum);
                  ("sum_delta", J.Num (delta_f ~prev:psum ~cur:sum));
                  ("p50", J.Num (Obs.quantile_of_buckets buckets 0.5));
                  ("p99", J.Num (Obs.quantile_of_buckets buckets 0.99));
                  ("buckets_delta", J.Obj bd) ] )
            :: !histograms)
    snap;
  J.Obj
    [
      ("type", J.Str "telemetry");
      ("seq", J.Num (float_of_int t.seq));
      ("t_s", J.Num now);
      ("uptime_s", J.Num (now -. t.started_s));
      ("counters", J.Obj (List.rev !counters));
      ("gauges", J.Obj (List.rev !gauges));
      ("histograms", J.Obj (List.rev !histograms));
    ]

let rewrite_ring t =
  let tmp = t.path ^ ".tmp" in
  let oc = open_out tmp in
  Queue.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    t.lines;
  close_out oc;
  close_out_noerr t.oc;
  Sys.rename tmp t.path;
  t.oc <- open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 t.path;
  t.written <- Queue.length t.lines

let append_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  Queue.push line t.lines;
  if Queue.length t.lines > max_lines then ignore (Queue.pop t.lines);
  t.written <- t.written + 1;
  if t.written > 2 * max_lines then rewrite_ring t

let force_snapshot ?now t =
  let now = match now with Some n -> n | None -> Obs.now_s () in
  let snap = Obs.snapshot () in
  let line = J.to_string (snapshot_json t ~now snap) in
  append_line t line;
  t.prev <- snap;
  t.seq <- t.seq + 1;
  t.last_s <- now

let maybe_snapshot ?now t =
  let now = match now with Some n -> n | None -> Obs.now_s () in
  if Float.is_nan t.last_s || now -. t.last_s >= t.ival_s then
    force_snapshot ~now t

let close t = close_out_noerr t.oc

(* ---------------------------------------------------------- prometheus *)

let sanitize name =
  String.map (fun c -> if c = '.' || c = '-' then '_' else c) name

let prometheus snap =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, m) ->
      let pname = sanitize name in
      match m with
      | Obs.Counter_snapshot v ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" pname);
          Buffer.add_string b (Printf.sprintf "%s %d\n" pname v)
      | Obs.Gauge_snapshot v ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" pname);
          Buffer.add_string b (Printf.sprintf "%s %.17g\n" pname v)
      | Obs.Histogram_snapshot { count; sum; buckets } ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" pname);
          let cumulative = ref 0 in
          List.iter
            (fun (i, c) ->
              cumulative := !cumulative + c;
              let le =
                if i >= Obs.num_buckets - 1 then "+Inf"
                else Printf.sprintf "%.17g" (Obs.bucket_lower_bound (i + 1))
              in
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" pname le
                   !cumulative))
            buckets;
          if
            (* Prometheus requires a terminal +Inf bucket *)
            not
              (List.exists (fun (i, _) -> i >= Obs.num_buckets - 1) buckets)
          then
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname !cumulative);
          Buffer.add_string b (Printf.sprintf "%s_sum %.17g\n" pname sum);
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" pname count))
    snap;
  Buffer.contents b
