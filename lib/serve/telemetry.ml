(* The one JSON form of a registry snapshot, and periodic snapshots of a
   live daemon in a ring file.

   A snapshot encodes as three objects keyed by metric name: counters,
   gauges, and histograms with their sparse per-bucket (index, count)
   pairs.  The metrics wire op answers with these fields; a ring line
   carries them for the absolute values and once more under "deltas"
   for the activity since the previous line.  [of_json] reads any of
   them back, so `bg top`, `bg slo` and the Prometheus rendering decode
   one form, and [diff] is the one place deltas are taken: a counter or
   histogram that went backwards (a respawned process starts from zero)
   is a fresh baseline, never a negative delta.

   The file is a ring.  Append-only between rewrites (a supervised
   worker respawn reopens in append mode and keeps the ring going);
   once more than 2 * max_lines lines have accumulated, the newest
   max_lines are rewritten to a temp file which is renamed into place —
   the same atomic-replace idiom the store snapshot uses, so a reader
   never sees a torn file. *)

module Obs = Core.Prelude.Obs
module J = Core.Prelude.Jsonl

type snapshot = (string * Obs.metric_snapshot) list

(* ---------------------------------------------------------------- codec *)

let json_fields snap =
  let int i = J.Num (float_of_int i) in
  let pick f =
    J.Obj
      (List.filter_map
         (fun (name, m) -> Option.map (fun v -> (name, v)) (f m))
         snap)
  in
  [ ( "counters",
      pick (function Obs.Counter_snapshot v -> Some (int v) | _ -> None) );
    ( "gauges",
      pick (function Obs.Gauge_snapshot v -> Some (J.Num v) | _ -> None) );
    ( "histograms",
      pick (function
        | Obs.Histogram_snapshot { count; sum; buckets } ->
            Some
              (J.Obj
                 [ ("count", int count); ("sum", J.Num sum);
                   ("p50", J.Num (Obs.quantile_of_buckets buckets 0.5));
                   ("p99", J.Num (Obs.quantile_of_buckets buckets 0.99));
                   ( "buckets",
                     J.Obj
                       (List.map
                          (fun (i, c) -> (string_of_int i, int c))
                          buckets) ) ])
        | _ -> None) ) ]

(* A missing or malformed field reads as zero: telemetry is observed,
   not validated.  Non-finite floats come back from the strings Jsonl
   writes them as. *)
let of_json j =
  let fields k j = match J.member k j with Some (J.Obj kvs) -> kvs | _ -> [] in
  let num = function
    | J.Num f -> f
    | J.Str s -> Option.value ~default:0. (float_of_string_opt s)
    | _ -> 0.
  in
  let int v = int_of_float (num v) in
  let mem k j = Option.value ~default:J.Null (J.member k j) in
  let each kind f = List.map (fun (name, v) -> (name, f v)) (fields kind j) in
  each "counters" (fun v -> Obs.Counter_snapshot (int v))
  @ each "gauges" (fun v -> Obs.Gauge_snapshot (num v))
  @ each "histograms" (fun h ->
        Obs.Histogram_snapshot
          {
            count = int (mem "count" h);
            sum = num (mem "sum" h);
            buckets =
              List.filter_map
                (fun (i, c) ->
                  Option.map (fun i -> (i, int c)) (int_of_string_opt i))
                (fields "buckets" h)
              |> List.sort compare;
          })
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let delta ~prev ~cur = if cur >= prev then cur - prev else cur

let diff ~prev snap =
  List.map
    (fun (name, m) ->
      ( name,
        match (m, List.assoc_opt name prev) with
        | Obs.Counter_snapshot cur, Some (Obs.Counter_snapshot p) ->
            Obs.Counter_snapshot (delta ~prev:p ~cur)
        | Obs.Histogram_snapshot h, Some (Obs.Histogram_snapshot p)
          when h.count >= p.count ->
            let before i = Option.value ~default:0 (List.assoc_opt i p.buckets) in
            Obs.Histogram_snapshot
              {
                count = h.count - p.count;
                sum = h.sum -. p.sum;
                buckets =
                  List.filter_map
                    (fun (i, c) ->
                      match delta ~prev:(before i) ~cur:c with
                      | 0 -> None
                      | d -> Some (i, d))
                    h.buckets;
              }
        (* First sight, a histogram that was reset, or a gauge (a level,
           not a sum): the whole value is the delta. *)
        | m, _ -> m ))
    snap

let counter snap name =
  match List.assoc_opt name snap with Some (Obs.Counter_snapshot v) -> v | _ -> 0

let gauge snap name =
  match List.assoc_opt name snap with Some (Obs.Gauge_snapshot v) -> v | _ -> 0.

let buckets snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Histogram_snapshot h) -> h.buckets
  | _ -> []

(* ----------------------------------------------------------------- ring *)

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
  mutable prev : snapshot;
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
  (* Continue an existing ring rather than clobbering it.  This process's
     first deltas are taken against zero: everything it counted is new. *)
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
  let line =
    J.Obj
      ([ ("type", J.Str "telemetry"); ("seq", J.Num (float_of_int t.seq));
         ("t_s", J.Num now); ("uptime_s", J.Num (now -. t.started_s)) ]
      @ json_fields snap
      @ [ ("deltas", J.Obj (json_fields (diff ~prev:t.prev snap))) ])
  in
  append_line t (J.to_string line);
  t.prev <- snap;
  t.seq <- t.seq + 1;
  t.last_s <- now

let maybe_snapshot ?now t =
  let now = match now with Some n -> n | None -> Obs.now_s () in
  if Float.is_nan t.last_s || now -. t.last_s >= t.ival_s then
    force_snapshot ~now t

let close t = close_out_noerr t.oc

type line = {
  seq : int;
  t_s : float;
  uptime_s : float;
  values : snapshot;
  deltas : snapshot;
}

let read path =
  J.parse_lines (J.read_file path)
  |> List.filter_map (fun j ->
         if J.mem_str "type" j <> Some "telemetry" then None
         else
           let num k = Option.value ~default:0. (J.mem_num k j) in
           Some
             {
               seq = int_of_float (num "seq");
               t_s = num "t_s";
               uptime_s = num "uptime_s";
               values = of_json j;
               deltas =
                 of_json (Option.value ~default:J.Null (J.member "deltas" j));
             })

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
