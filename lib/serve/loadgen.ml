(* `bg loadgen` — the production-shaped workload replayer for bg serve.

   A workload is generated, not recorded: from one integer seed it
   expands to a pool of distinct decay spaces and a request trace over
   them with zipf-skewed repetition (a few hot spaces dominate, a long
   tail appears once or twice — the shape that makes a shared cache
   earn its keep).  Generation is a pure function of the workload
   record: the same seed yields byte-identical request lines, and
   therefore identical space digests server-side, on every run — which
   is exactly what lets a second run against a restarted daemon hit the
   persistent store.

   Two drivers replay a trace:
   - in-process, against a Server.t, for tests and the perf gate;
   - over pipes against a spawned `bg serve` daemon, closed-loop with a
     bounded in-flight window (and an optional open-loop target rate),
     for the end-to-end benchmark.  The pipe driver multiplexes reads
     and writes with select and keeps writes nonblocking, so a busy
     daemon can never deadlock the generator.

   Both drivers take an optional Client policy and then exercise the
   full retry path: per-request deadlines, seeded backoff, bounded
   re-sends (safe — requests are idempotent by cache key), breaker
   pauses, and first-answer-wins dedup (a late answer to a timed-out
   attempt counts as a duplicate, never a second result).  Responses
   that fail to parse — chaos-torn or corrupted lines — are counted and
   retried, so no corrupt payload ever reaches the report as an answer.

   Both report answered/ok/rejected/error counts, cache-outcome tallies,
   retry/duplicate/corrupt/gave-up tallies, throughput and exact
   (sorted-sample) p50/p99 latencies. *)

module P = Protocol
module J = Core.Prelude.Jsonl
module D = Core.Decay.Decay_space
module Spaces = Core.Decay.Spaces
module Rng = Core.Prelude.Rng
module Obs = Core.Prelude.Obs

(* ---------------------------------------------------------------- zipf *)

(* Cumulative distribution of the zipf(s) law on ranks 1..n:
   P(rank = k) proportional to k^-s. *)
let zipf_cdf ~s ~n =
  if n < 1 then invalid_arg "zipf_cdf: n must be positive";
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for k = 0 to n - 1 do
    total := !total +. (float_of_int (k + 1) ** -.s);
    cdf.(k) <- !total
  done;
  Array.map (fun c -> c /. !total) cdf

(* Draw a rank (0-based) by binary search over the cdf. *)
let zipf_pick rng cdf =
  let u = Rng.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------ workload *)

type workload = {
  seed : int;
  requests : int;
  spaces : int;  (** distinct decay spaces in the pool *)
  nodes : int;  (** nodes per space *)
  zipf_s : float;  (** skew: 0 = uniform, larger = hotter head *)
}

let default_workload =
  { seed = 1; requests = 2000; spaces = 200; nodes = 24; zipf_s = 1.1 }

let space_matrix space =
  let n = D.n space in
  Array.init n (fun i -> Array.init n (fun j -> D.decay space i j))

(* The op mix: mostly the headline sweep (zeta), the rest spread over
   the other analyses.  Estimate's design is derived from the space
   rank, not drawn, so repeats of a hot space repeat the whole cache
   key. *)
let pick_op rng ~rank ~nodes =
  let u = Rng.float rng 1. in
  if u < 0.60 then P.Zeta
  else if u < 0.80 then P.Phi
  else if u < 0.90 then P.Gamma 4.
  else if u < 0.95 then P.Summarize
  else
    P.Estimate
      { nodes = max 3 (min 16 nodes); replicates = 4; seed = rank }

let generate w =
  if w.requests < 1 then invalid_arg "Loadgen.generate: requests < 1";
  if w.spaces < 1 then invalid_arg "Loadgen.generate: spaces < 1";
  if w.nodes < 3 then invalid_arg "Loadgen.generate: nodes < 3";
  if not (Float.is_finite w.zipf_s) || w.zipf_s < 0. then
    invalid_arg "Loadgen.generate: zipf_s must be finite and >= 0";
  let rng = Rng.create w.seed in
  let space_rng = Rng.split rng in
  (* One split per space decouples draw counts: space k is the same
     bytes whatever the trace around it does. *)
  let pool =
    Array.init w.spaces (fun _k ->
        let r = Rng.split space_rng in
        let pts = Spaces.random_points r ~n:w.nodes ~side:100. in
        space_matrix (Spaces.perturbed r ~alpha:3. ~sigma:0.8 pts))
  in
  let cdf = zipf_cdf ~s:w.zipf_s ~n:w.spaces in
  let trace_rng = Rng.split rng in
  List.init w.requests (fun i ->
      let rank = zipf_pick trace_rng cdf in
      let op = pick_op trace_rng ~rank ~nodes:w.nodes in
      {
        P.id = Printf.sprintf "r%06d" i;
        op;
        space =
          Some (P.Inline (Printf.sprintf "lg-%d-%d" w.seed rank, pool.(rank)));
        (* Deterministic trace id: the same seed names the same request
           the same way on every run, so a p99 exemplar from one report
           can be looked up in any other run's trace files. *)
        trace =
          Some
            {
              P.trace_id = Printf.sprintf "t%d-r%06d" w.seed i;
              parent_span = 0;
            };
      })

(* --------------------------------------------------- driver-side tracing *)

(* The drivers run their own event loop rather than Client.request, so
   they emit spans after the fact: each request's root [client.request]
   span id is preallocated before the first send and rides the wire as
   [parent_span], and the span itself is emitted (backdated) when the
   request resolves.  The daemon's serve.request subtree then re-parents
   under this exact span when the trace files are merged. *)
type tracing = {
  spans : (string, string * int * string) Hashtbl.t;
      (* id -> (trace_id, root span id, re-rendered request line) *)
  mutable emitted : int;
}

let trace_prep requests =
  if not (Obs.tracing ()) then None
  else begin
    let spans = Hashtbl.create 256 in
    List.iter
      (fun r ->
        let tid =
          match r.P.trace with
          | Some t -> t.P.trace_id
          | None -> "lg-" ^ r.P.id
        in
        let span = Obs.alloc_span_id () in
        let line =
          P.request_to_string
            { r with P.trace = Some { P.trace_id = tid; parent_span = span } }
        in
        Hashtbl.replace spans r.P.id (tid, span, line))
      requests;
    Some { spans; emitted = 0 }
  end

let traced_line tr id line =
  match tr with
  | None -> line
  | Some t -> (
      match Hashtbl.find_opt t.spans id with
      | Some (_, _, l) -> l
      | None -> line)

(* Close a request's root span.  Called at most once per id (answered,
   or given up); ids that never resolve before the driver exits simply
   have no root span — the server subtree still names the trace id. *)
let trace_finish tr ~id ~start_s ~dur_s ~attempts ~ok =
  match tr with
  | None -> ()
  | Some t -> (
      match Hashtbl.find_opt t.spans id with
      | None -> ()
      | Some (tid, span, _) ->
          Hashtbl.remove t.spans id;
          t.emitted <- t.emitted + 1;
          ignore
            (Obs.emit_span_at
               ~attrs:
                 [ ("trace_id", Obs.S tid); ("id", Obs.S id);
                   ("attempts", Obs.I attempts) ]
               ~parent:0 ~id:span ~ok ~name:"client.request" ~start_s ~dur_s
               ()))

(* -------------------------------------------------------------- report *)

type report = {
  sent : int;
  answered : int;
  ok : int;
  rejected : int;
  errors : int;
  hits : int;
  misses : int;
  coalesced : int;
  degraded : int;
  retries : int;
  duplicates : int;
  corrupt_lines : int;
  gave_up : int;
  wall_s : float;
  throughput_rps : float;
  mean_s : float;
  p50_s : float;
  p99_s : float;
  exemplars : (string * float) list;
      (* trace ids of the slowest-decile answers, worst first *)
  slo_samples : (float * bool) list;
      (* (latency_s, ok) per resolved request; gave-ups score as
         (infinity, false) so no objective can be gamed by abandonment *)
}

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(min (n - 1)
              (int_of_float (Float.round (q *. float_of_int (n - 1)))))

(* Fold a list of (response, latency) into a report. *)
let build_report ?(retries = 0) ?(duplicates = 0) ?(corrupt_lines = 0)
    ?(gave_up = 0) ~sent ~wall_s answers =
  let ok = ref 0 and rejected = ref 0 and errors = ref 0 in
  let hits = ref 0 and misses = ref 0 and coalesced = ref 0 in
  let degraded = ref 0 in
  let lat = ref [] in
  let traced = ref [] in
  let samples = ref [] in
  List.iter
    (fun (resp, latency) ->
      lat := latency :: !lat;
      (match P.response_trace resp with
      | Some t -> traced := (t.P.trace_id, latency) :: !traced
      | None -> ());
      (match resp with
      | P.Done { cache; degraded = d; _ } ->
          incr ok;
          if d then incr degraded;
          (match cache with
          | P.Hit -> incr hits
          | P.Miss -> incr misses
          | P.Coalesced -> incr coalesced)
      | P.Rejected _ -> incr rejected
      | P.Failed _ -> incr errors);
      samples := (latency, match resp with P.Done _ -> true | _ -> false)
                 :: !samples)
    answers;
  for _ = 1 to gave_up do
    samples := (Float.infinity, false) :: !samples
  done;
  let lats = Array.of_list !lat in
  Array.sort compare lats;
  let answered = Array.length lats in
  let mean_s =
    if answered = 0 then 0.
    else Array.fold_left ( +. ) 0. lats /. float_of_int answered
  in
  (* Exemplars: trace ids of the slowest-decile answers (at least one
     when anything was traced), worst first, capped — enough to jump
     into `bg trace report --id` without drowning the report. *)
  let exemplars =
    let arr = Array.of_list !traced in
    Array.sort (fun (_, a) (_, b) -> compare b a) arr;
    let n = Array.length arr in
    let keep = min 8 (max (min n 1) (n / 10)) in
    Array.to_list (Array.sub arr 0 keep)
  in
  {
    sent;
    answered;
    ok = !ok;
    rejected = !rejected;
    errors = !errors;
    hits = !hits;
    misses = !misses;
    coalesced = !coalesced;
    degraded = !degraded;
    retries;
    duplicates;
    corrupt_lines;
    gave_up;
    wall_s;
    throughput_rps =
      (if wall_s > 0. then float_of_int answered /. wall_s else 0.);
    mean_s;
    p50_s = quantile lats 0.50;
    p99_s = quantile lats 0.99;
    exemplars;
    slo_samples = List.rev !samples;
  }

let hit_rate r = if r.ok = 0 then 0. else float_of_int r.hits /. float_of_int r.ok

let report_to_json r =
  J.Obj
    [ ("sent", J.Num (float_of_int r.sent));
      ("answered", J.Num (float_of_int r.answered));
      ("ok", J.Num (float_of_int r.ok));
      ("rejected", J.Num (float_of_int r.rejected));
      ("errors", J.Num (float_of_int r.errors));
      ("hits", J.Num (float_of_int r.hits));
      ("misses", J.Num (float_of_int r.misses));
      ("coalesced", J.Num (float_of_int r.coalesced));
      ("degraded", J.Num (float_of_int r.degraded));
      ("retries", J.Num (float_of_int r.retries));
      ("duplicates", J.Num (float_of_int r.duplicates));
      ("corrupt_lines", J.Num (float_of_int r.corrupt_lines));
      ("gave_up", J.Num (float_of_int r.gave_up));
      ("hit_rate", J.Num (hit_rate r));
      ("wall_s", J.Num r.wall_s);
      ("throughput_rps", J.Num r.throughput_rps);
      ("mean_s", J.Num r.mean_s);
      ("p50_s", J.Num r.p50_s);
      ("p99_s", J.Num r.p99_s);
      ( "exemplars",
        J.Arr
          (List.map
             (fun (tid, lat) ->
               J.Obj [ ("trace_id", J.Str tid); ("latency_s", J.Num lat) ])
             r.exemplars) ) ]

let pp_report fmt r =
  Format.fprintf fmt
    "sent %d  answered %d  ok %d  rejected %d  errors %d@\n\
     cache: %d hit / %d miss / %d coalesced  (hit rate %.3f)@\n\
     resilience: %d degraded  %d retries  %d duplicates  %d corrupt  %d \
     gave up@\n\
     wall %.3fs  throughput %.1f req/s  latency mean %.2gs  p50 %.2gs  \
     p99 %.2gs"
    r.sent r.answered r.ok r.rejected r.errors r.hits r.misses r.coalesced
    (hit_rate r) r.degraded r.retries r.duplicates r.corrupt_lines r.gave_up
    r.wall_s r.throughput_rps r.mean_s r.p50_s r.p99_s;
  match r.exemplars with
  | [] -> ()
  | ex ->
      Format.fprintf fmt "@\nslowest traces:";
      List.iter
        (fun (tid, lat) -> Format.fprintf fmt " %s(%.2gs)" tid lat)
        ex

(* ---------------------------------------------------- in-process driver *)

(* The in-process driver feeds run_loop through the io record and
   recovers chaos-dropped/-corrupted replies at batch boundaries: the
   flush callback fires after every batch's replies, and provided the
   in-flight window never exceeds the engine's batch_size, every request
   sent before a flush was answered by it — so an id still unanswered at
   flush lost its reply to chaos, and is re-sent (bounded by the client
   policy) or given up.  First answer wins; merged torn lines fail to
   parse and count as corrupt. *)
let drive_inproc ?(window = 32) ?client server requests =
  if window < 1 then invalid_arg "drive_inproc: window < 1";
  let max_retries =
    match client with None -> 0 | Some c -> (Client.config c).Client.max_retries
  in
  let tr = trace_prep requests in
  let remaining =
    ref
      (List.map
         (fun r -> (r.P.id, traced_line tr r.P.id (P.request_to_string r)))
         requests)
  in
  let lines : (string, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (id, line) -> Hashtbl.replace lines id line) !remaining;
  let inflight : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let attempts : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let answered : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let sent = ref 0 in
  let retries = ref 0 and duplicates = ref 0 in
  let corrupt = ref 0 and gave_up = ref 0 in
  let answers = ref [] in
  let started = Obs.now_s () in
  let handle_line resp_line =
    match P.response_of_string resp_line with
    | Error _ -> incr corrupt
    | Ok resp -> (
        let id = P.response_id resp in
        if Hashtbl.mem answered id then incr duplicates
        else
          match Hashtbl.find_opt inflight id with
          | None ->
              (* Not in flight: either a late answer to an id we gave up
                 on, or a corrupted payload whose mangled id still
                 parses.  Never an answer either way. *)
              if Hashtbl.mem lines id then incr duplicates else incr corrupt
          | Some t0 ->
              Hashtbl.remove inflight id;
              Hashtbl.add answered id ();
              Option.iter Client.record_success client;
              let latency = Obs.now_s () -. t0 in
              trace_finish tr ~id ~start_s:t0 ~dur_s:latency
                ~attempts:(try Hashtbl.find attempts id with Not_found -> 1)
                ~ok:(match resp with P.Done _ -> true | _ -> false);
              answers := (resp, latency) :: !answers)
  in
  let read ~block:_ =
    match !remaining with
    | [] -> if Hashtbl.length inflight = 0 then `Eof else `Nothing
    | (id, line) :: rest ->
        if Hashtbl.length inflight >= window then `Nothing
        else begin
          remaining := rest;
          let n = (try Hashtbl.find attempts id with Not_found -> 0) + 1 in
          Hashtbl.replace attempts id n;
          if n = 1 then begin
            incr sent;
            Hashtbl.replace inflight id (Obs.now_s ())
          end
          (* a retry keeps its first-send timestamp for latency *)
          else if not (Hashtbl.mem inflight id) then
            Hashtbl.replace inflight id (Obs.now_s ());
          `Req (line, handle_line)
        end
  in
  (* Batch boundary: every in-flight id predates the batch just replied
     to (window <= batch_size), so survivors lost their reply line. *)
  let flush () =
    let lost = Hashtbl.fold (fun id _ acc -> id :: acc) inflight [] in
    List.iter
      (fun id ->
        let n = try Hashtbl.find attempts id with Not_found -> 1 in
        Option.iter (fun c -> Client.record_failure c ~now:(Obs.now_s ())) client;
        if n > max_retries then begin
          (match Hashtbl.find_opt inflight id with
          | Some t0 ->
              trace_finish tr ~id ~start_s:t0
                ~dur_s:(Obs.now_s () -. t0)
                ~attempts:n ~ok:false
          | None -> ());
          Hashtbl.remove inflight id;
          incr gave_up
        end
        else begin
          incr retries;
          Option.iter Client.count_retry client;
          remaining := (id, Hashtbl.find lines id) :: !remaining
        end)
      lost
  in
  let _stats = Server.run_loop server { Server.read; flush } in
  build_report ~retries:!retries ~duplicates:!duplicates
    ~corrupt_lines:!corrupt ~gave_up:!gave_up ~sent:!sent
    ~wall_s:(Obs.now_s () -. started) !answers

(* ------------------------------------------------------- pipe driver *)

let write_nonblock fd buf =
  (* Push as much of [buf] down the pipe as it will take right now. *)
  let s = Buffer.contents buf in
  let len = String.length s in
  if len > 0 then begin
    match Unix.write_substring fd s 0 len with
    | n ->
        Buffer.clear buf;
        if n < len then Buffer.add_substring buf s n (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  end

(* Drive an external daemon speaking the protocol on [req_w]/[resp_r]
   (both pipe fds; [req_w] is closed when nothing more will ever be sent,
   so the daemon sees EOF and drains).  Closed-loop: at most [window]
   requests in flight; [rate] adds an open-loop cap (requests issued no
   faster than [rate]/s even when the window has room).  With [client],
   attempts that outlive the policy deadline are re-sent after jittered
   backoff (up to max_retries), the breaker pauses issuing after
   consecutive failures, and late answers to timed-out attempts are
   deduplicated — each request contributes at most one answer. *)
let drive_fds ?(window = 32) ?rate ?client ~req_w ~resp_r requests =
  if window < 1 then invalid_arg "drive: window < 1";
  (match rate with
  | Some r when r <= 0. -> invalid_arg "drive: rate must be positive"
  | _ -> ());
  Unix.set_nonblock req_w;
  let reader = Server.Line_reader.create resp_r in
  let deadline = Option.bind client (fun c -> (Client.config c).Client.deadline_s) in
  let max_retries =
    match client with None -> 0 | Some c -> (Client.config c).Client.max_retries
  in
  let tr = trace_prep requests in
  let pending =
    ref
      (List.map
         (fun r -> (r.P.id, traced_line tr r.P.id (P.request_to_string r)))
         requests)
  in
  let lines : (string, string) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun (id, line) -> Hashtbl.replace lines id line) !pending;
  let out = Buffer.create 65536 in
  let attempt_at : (string, float) Hashtbl.t = Hashtbl.create 256 in
  let first_at : (string, float) Hashtbl.t = Hashtbl.create 256 in
  let attempts : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let retry_at : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let answered_ids : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let sent = ref 0 in
  let retries = ref 0 and duplicates = ref 0 in
  let corrupt = ref 0 and gave_up = ref 0 in
  let answers = ref [] in
  let closed_req = ref false in
  let started = Obs.now_s () in
  let admit now =
    match client with None -> true | Some c -> Client.admit c ~now
  in
  let issue_allowed now =
    match rate with
    | None -> true
    | Some r -> float_of_int !sent <= (now -. started) *. r
  in
  let enqueue_line id now =
    Hashtbl.replace attempt_at id now;
    if not (Hashtbl.mem first_at id) then Hashtbl.replace first_at id now;
    Hashtbl.replace attempts id
      ((try Hashtbl.find attempts id with Not_found -> 0) + 1);
    Buffer.add_string out (Hashtbl.find lines id);
    Buffer.add_char out '\n'
  in
  let issue_some () =
    let now = Obs.now_s () in
    let inflight () = Hashtbl.length attempt_at in
    if admit now then begin
      (* Due retries go out first — they have been waiting longest. *)
      let due =
        Hashtbl.fold
          (fun id when_ acc -> if when_ <= now then id :: acc else acc)
          retry_at []
      in
      List.iter
        (fun id ->
          if inflight () < window && Buffer.length out < 1 lsl 20 then begin
            Hashtbl.remove retry_at id;
            incr retries;
            Option.iter Client.count_retry client;
            enqueue_line id now
          end)
        due;
      let continue = ref true in
      while
        !continue && !pending <> [] && inflight () < window
        && Buffer.length out < 1 lsl 20
        && issue_allowed now
      do
        match !pending with
        | [] -> continue := false
        | (id, _) :: rest ->
            pending := rest;
            incr sent;
            enqueue_line id now
      done
    end
  in
  (* Attempts past the deadline: failure for the breaker, then either a
     backoff-scheduled re-send or (retry budget spent) a give-up. *)
  let check_deadlines () =
    match (deadline, client) with
    | Some d, Some c ->
        let now = Obs.now_s () in
        let expired =
          Hashtbl.fold
            (fun id t0 acc -> if now -. t0 > d then id :: acc else acc)
            attempt_at []
        in
        List.iter
          (fun id ->
            Hashtbl.remove attempt_at id;
            Client.record_failure c ~now;
            let n = try Hashtbl.find attempts id with Not_found -> 1 in
            if n > max_retries then begin
              (match Hashtbl.find_opt first_at id with
              | Some t0 ->
                  trace_finish tr ~id ~start_s:t0 ~dur_s:(now -. t0)
                    ~attempts:n ~ok:false
              | None -> ());
              incr gave_up
            end
            else
              Hashtbl.replace retry_at id
                (now +. Client.backoff_s c ~attempt:(n - 1)))
          expired
    | _ -> ()
  in
  let handle_line line =
    match P.response_of_string line with
    | Error _ -> incr corrupt
    | Ok resp -> (
        let id = P.response_id resp in
        if Hashtbl.mem answered_ids id then incr duplicates
        else
          match Hashtbl.find_opt first_at id with
          | None ->
              (* Parses, but we never sent this id: a corrupted payload
                 whose mangling survived the JSON parser.  Never an
                 answer — the real request's deadline will retry it. *)
              incr corrupt
          | Some t0 ->
              Hashtbl.add answered_ids id ();
              let latency = Obs.now_s () -. t0 in
              Hashtbl.remove attempt_at id;
              Hashtbl.remove retry_at id;
              Option.iter Client.record_success client;
              trace_finish tr ~id ~start_s:t0 ~dur_s:latency
                ~attempts:(try Hashtbl.find attempts id with Not_found -> 1)
                ~ok:(match resp with P.Done _ -> true | _ -> false);
              answers := (resp, latency) :: !answers)
  in
  (* Nothing more will ever be sent once the trace is drained, no retry
     is scheduled, and (when a deadline exists) nothing in flight can
     still expire into a retry. *)
  let done_sending () =
    !pending = [] && Buffer.length out = 0
    && Hashtbl.length retry_at = 0
    && (deadline = None || Hashtbl.length attempt_at = 0)
  in
  let eof = ref false in
  while not !eof do
    check_deadlines ();
    issue_some ();
    if (not !closed_req) && done_sending () then begin
      closed_req := true;
      (try Unix.close req_w with Unix.Unix_error _ -> ())
    end;
    let want_write =
      (not !closed_req) && Buffer.length out > 0
    in
    let writes = if want_write then [ req_w ] else [] in
    (* Tighter ticks while a deadline or scheduled retry is pending, so
       expiry latency stays small against sub-second deadlines. *)
    let tick =
      if
        Hashtbl.length retry_at > 0
        || (deadline <> None && Hashtbl.length attempt_at > 0)
      then 0.05
      else 0.25
    in
    (match Unix.select [ resp_r ] writes [] tick with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        if writable <> [] then write_nonblock req_w out;
        if readable <> [] then begin
          Server.Line_reader.read_chunk reader;
          let continue = ref true in
          while !continue do
            match Server.Line_reader.next ~block:false reader with
            | `Line l -> handle_line l
            | `Nothing -> continue := false
            | `Eof ->
                continue := false;
                eof := true
          done
        end)
  done;
  if not !closed_req then (try Unix.close req_w with Unix.Unix_error _ -> ());
  build_report ~retries:!retries ~duplicates:!duplicates
    ~corrupt_lines:!corrupt ~gave_up:!gave_up ~sent:!sent
    ~wall_s:(Obs.now_s () -. started) !answers

(* Spawn [argv] (a `bg serve` command line), drive the trace through its
   stdin/stdout, reap it, and report.  The child's stderr passes
   through. *)
let drive_subprocess ?window ?rate ?client argv requests =
  (* cloexec on every pipe end: the child must NOT inherit our copies of
     req_w / resp_r, or closing req_w here would never deliver its EOF
     (the daemon itself would hold the write end open).  create_process
     dup2s req_r / resp_w onto the child's stdin / stdout, which clears
     cloexec on those. *)
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  let report =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close resp_r with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () -> drive_fds ?window ?rate ?client ~req_w ~resp_r requests)
  in
  report
