(* SLO objectives, sliding-window tracking, burn rates.

   Everything reduces to a bad-event budget.  A latency objective
   "p99 <= T" allows 1% of requests to exceed T; an error objective
   "err <= e" allows a fraction e to fail.  The burn rate is the
   observed bad fraction over the allowed fraction, so 1.0 is the
   boundary of compliance — the standard SRE framing, which makes
   window length a presentation choice rather than part of the
   objective.

   The tracker keeps the window's events in a queue (admission order =
   time order, since the server records responses as it sends them) and
   evicts from the front on report.  Lifetime totals are kept as plain
   sums per objective and never evicted. *)

module J = Core.Prelude.Jsonl
module Obs = Core.Prelude.Obs

type objective =
  | Latency of { quantile : float; threshold_s : float }
  | Error_rate of float

type spec = objective list

let budget = function
  | Latency { quantile; _ } -> 1. -. quantile
  | Error_rate e -> e

(* %g keeps "p99<=0.05" short and round-trips through parse_spec. *)
let objective_name = function
  | Latency { quantile; threshold_s } ->
      let q = quantile *. 100. in
      let qs =
        if Float.is_integer q then Printf.sprintf "p%.0f" q
        else
          (* p99.9 -> "p999": digits after "p" read as 0.<digits> once
             longer than two. *)
          Printf.sprintf "p%s"
            (String.concat ""
               (String.split_on_char '.' (Printf.sprintf "%g" q)))
      in
      Printf.sprintf "%s<=%g" qs threshold_s
  | Error_rate e -> Printf.sprintf "err<=%g" e

let parse_one entry =
  let entry = String.trim entry in
  let key, value =
    match String.index_opt entry '<' with
    | None -> ("", "")
    | Some i ->
        let klen = i in
        let vstart =
          if i + 1 < String.length entry && entry.[i + 1] = '=' then i + 2
          else i + 1
        in
        ( String.trim (String.sub entry 0 klen),
          String.trim
            (String.sub entry vstart (String.length entry - vstart)) )
  in
  if key = "" || value = "" then
    Error (Printf.sprintf "slo: %S is not KEY<=VALUE" entry)
  else
    match key with
    | "err" -> (
        let pct = String.length value > 0 && value.[String.length value - 1] = '%' in
        let num =
          if pct then String.sub value 0 (String.length value - 1) else value
        in
        match float_of_string_opt num with
        | Some v when Float.is_finite v && v > 0. && (if pct then v <= 100. else v <= 1.) ->
            Ok (Error_rate (if pct then v /. 100. else v))
        | _ -> Error (Printf.sprintf "slo: err bound %S not in (0,1]" value))
    | _ when String.length key >= 2 && key.[0] = 'p' -> (
        let digits = String.sub key 1 (String.length key - 1) in
        match int_of_string_opt digits with
        | Some d when d > 0 && d < 100 && String.length digits <= 2 -> (
            let quantile = float_of_int d /. 100. in
            match float_of_string_opt value with
            | Some t when Float.is_finite t && t > 0. ->
                Ok (Latency { quantile; threshold_s = t })
            | _ ->
                Error
                  (Printf.sprintf "slo: latency bound %S not positive" value))
        | Some d when String.length digits = 3 && d > 100 && d < 1000 -> (
            (* p999 = 0.999, p995 = 0.995 *)
            let quantile = float_of_int d /. 1000. in
            match float_of_string_opt value with
            | Some t when Float.is_finite t && t > 0. ->
                Ok (Latency { quantile; threshold_s = t })
            | _ ->
                Error
                  (Printf.sprintf "slo: latency bound %S not positive" value))
        | _ -> Error (Printf.sprintf "slo: bad quantile key %S" key))
    | _ ->
        Error
          (Printf.sprintf "slo: unknown key %S (want pNN or err)" key)

let parse_spec s =
  let entries =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun e -> e <> "")
  in
  if entries = [] then Error "slo: empty spec"
  else
    List.fold_left
      (fun acc entry ->
        match (acc, parse_one entry) with
        | Error e, _ -> Error e
        | _, Error e -> Error e
        | Ok objs, Ok o -> Ok (o :: objs))
      (Ok []) entries
    |> Result.map List.rev

(* ------------------------------------------------------------- tracking *)

type event = { at : float; latency_s : float; ok : bool }

type status = {
  objective : objective;
  window_total : int;
  window_bad : int;
  window_burn : float;
  lifetime_total : int;
  lifetime_bad : int;
  lifetime_burn : float;
  healthy : bool;
}

(* Seconds of events the sliding window scores. *)
let window_s = 60.

type t = {
  slo_spec : spec;
  events : event Queue.t;
  life_bad : int array; (* per objective, same order as slo_spec *)
  mutable life_total : int;
}

let create spec =
  {
    slo_spec = spec;
    events = Queue.create ();
    life_bad = Array.make (List.length spec) 0;
    life_total = 0;
  }

let is_bad objective ev =
  match objective with
  | Latency { threshold_s; _ } -> (not ev.ok) || ev.latency_s > threshold_s
  | Error_rate _ -> not ev.ok

let record t ~now_s ~latency_s ~ok =
  let ev = { at = now_s; latency_s; ok } in
  Queue.push ev t.events;
  t.life_total <- t.life_total + 1;
  List.iteri
    (fun i o -> if is_bad o ev then t.life_bad.(i) <- t.life_bad.(i) + 1)
    t.slo_spec

let evict t ~now_s =
  let cutoff = now_s -. window_s in
  while
    (not (Queue.is_empty t.events)) && (Queue.peek t.events).at < cutoff
  do
    ignore (Queue.pop t.events)
  done

let burn ~bad ~total ~budget =
  if total = 0 then 0.
  else float_of_int bad /. float_of_int total /. budget

let report t ~now_s =
  evict t ~now_s;
  let window_total = Queue.length t.events in
  List.mapi
    (fun i o ->
      let window_bad =
        Queue.fold (fun n ev -> if is_bad o ev then n + 1 else n) 0 t.events
      in
      let b = budget o in
      let window_burn = burn ~bad:window_bad ~total:window_total ~budget:b in
      let lifetime_burn =
        burn ~bad:t.life_bad.(i) ~total:t.life_total ~budget:b
      in
      {
        objective = o;
        window_total;
        window_bad;
        window_burn;
        lifetime_total = t.life_total;
        lifetime_bad = t.life_bad.(i);
        lifetime_burn;
        healthy = window_burn <= 1.;
      })
    t.slo_spec

let violated statuses = List.exists (fun s -> not s.healthy) statuses

(* One objective scored over a finished set of events: window and
   lifetime coincide. *)
let score objective ~bad ~total =
  let b = burn ~bad ~total ~budget:(budget objective) in
  {
    objective;
    window_total = total;
    window_bad = bad;
    window_burn = b;
    lifetime_total = total;
    lifetime_bad = bad;
    lifetime_burn = b;
    healthy = b <= 1.;
  }

let eval_samples spec samples =
  let total = List.length samples in
  List.map
    (fun o ->
      let bad =
        List.fold_left
          (fun n (latency_s, ok) ->
            if is_bad o { at = 0.; latency_s; ok } then n + 1 else n)
          0 samples
      in
      score o ~bad ~total)
    spec

let bad_latency_of_buckets ~threshold_s buckets =
  let threshold_bucket = Obs.bucket_of threshold_s in
  List.fold_left
    (fun n (i, count) -> if i > threshold_bucket then n + count else n)
    0 buckets

(* Score a ring's deltas: per objective, sum what each snapshot adds.
   Latency objectives read the serve.latency_s buckets; the error
   objective reads the admission counters (rejected and failed are bad,
   accepted + rejected is the request total). *)
let eval_telemetry spec deltas =
  let add objective (bad, total) d =
    match objective with
    | Latency { threshold_s; _ } ->
        let buckets = Telemetry.buckets d "serve.latency_s" in
        ( bad + bad_latency_of_buckets ~threshold_s buckets,
          total + List.fold_left (fun n (_, c) -> n + c) 0 buckets )
    | Error_rate _ ->
        let count = Telemetry.counter d in
        let rejected = count "serve.rejected" in
        ( bad + count "serve.failed" + rejected,
          total + count "serve.accepted" + rejected )
  in
  List.map
    (fun o ->
      let bad, total = List.fold_left (add o) (0, 0) deltas in
      score o ~bad ~total)
    spec

let status_to_json s =
  J.Obj
    [
      ("objective", J.Str (objective_name s.objective));
      ( "window",
        J.Obj
          [ ("total", J.Num (float_of_int s.window_total));
            ("bad", J.Num (float_of_int s.window_bad));
            ("burn", J.Num s.window_burn) ] );
      ( "lifetime",
        J.Obj
          [ ("total", J.Num (float_of_int s.lifetime_total));
            ("bad", J.Num (float_of_int s.lifetime_bad));
            ("burn", J.Num s.lifetime_burn) ] );
      ("healthy", J.Bool s.healthy);
    ]
