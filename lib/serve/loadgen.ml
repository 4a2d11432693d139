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
   - in-process, against a Server.t, for E30, tests and the perf gate;
   - over pipes against a spawned `bg serve` daemon, closed-loop with a
     bounded in-flight window, for the end-to-end benchmark.  The pipe
     driver multiplexes reads and writes with select and keeps writes
     nonblocking, so a busy daemon can never deadlock the generator.

   Both are transports over one request ledger, which counts every
   request once: sent, then answered or given up, with retries,
   duplicates and corrupt lines tallied by one set of rules.  With a
   Client policy the drivers exercise the full retry path: lost attempts
   (deadline expiry over pipes, a batch flush in-process) are re-sent
   under the retry budget (safe — requests are idempotent by cache key),
   and the pipe driver backs off and honours the breaker.

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

(* -------------------------------------------------------------- ledger *)

(* Every per-request fact and every state change lives in one ledger;
   the drivers are transports that decide only when a line goes out and
   when an attempt counts as lost.

   A request is Waiting (never sent, or lost and due for a re-send at the
   given time), In_flight since its current attempt went out, or
   resolved — Answered or Gave_up — exactly once.  A reply line has one
   meaning: a parseable reply for a sent, unresolved id resolves it (the
   first answer wins, even one that beats its own re-send); a reply for
   a resolved id is a duplicate, whether that request answered or gave
   up; an unparseable line, or an id never sent, is corrupt.  So
   answered + gave_up never exceeds sent.  (Replies carry no checksum:
   a mangled line that still parses and names a sent id answers it.)

   Tracing: the drivers run their own event loop rather than
   Client.request, so each request's root [client.request] span id is
   preallocated and rides the wire as [parent_span], and the span itself
   is emitted (backdated) when the request resolves.  The daemon's
   serve.request subtree then re-parents under this exact span when the
   trace files are merged.  A request still unresolved when its driver
   stops has no root span; the server subtree still names its trace
   id. *)

type state =
  | Waiting of float  (* due time of the next send *)
  | In_flight of float  (* when the current attempt went out *)
  | Answered
  | Gave_up

type entry = {
  id : string;
  index : int;  (* trace position: lost attempts are handled in this order *)
  line : string;  (* the wire line, trace context included *)
  root : (string * int) option;  (* trace id, root span id *)
  mutable attempts : int;
  mutable first_s : float;
  mutable state : state;
}

type ledger = {
  client : Client.t option;
  max_retries : int;
  entries : (string, entry) Hashtbl.t;
  flying : (string, entry) Hashtbl.t;
  mutable fresh : entry list;  (* never sent, in trace order *)
  mutable lost : entry list;  (* awaiting a re-send, earliest due first *)
  mutable sent : int;
  mutable retries : int;
  mutable duplicates : int;
  mutable corrupt : int;
  mutable gave_up : int;
  mutable answers : (P.response * float) list;  (* latency; latest first *)
  started_s : float;
}

let ledger ?client requests =
  let tracing = Obs.tracing () in
  let entries = Hashtbl.create 256 in
  let fresh =
    List.mapi
      (fun index r ->
        let root, line =
          if not tracing then (None, P.request_to_string r)
          else
            let tid =
              match r.P.trace with
              | Some t -> t.P.trace_id
              | None -> "lg-" ^ r.P.id
            in
            let span = Obs.alloc_span_id () in
            let trace = Some { P.trace_id = tid; parent_span = span } in
            (Some (tid, span), P.request_to_string { r with P.trace })
        in
        let e =
          { id = r.P.id; index; line; root; attempts = 0; first_s = 0.;
            state = Waiting neg_infinity (* due at once *) }
        in
        Hashtbl.replace entries e.id e;
        e)
      requests
  in
  {
    client;
    max_retries =
      (match client with
      | None -> 0
      | Some c -> (Client.config c).Client.max_retries);
    entries;
    flying = Hashtbl.create 64;
    fresh;
    lost = [];
    sent = 0;
    retries = 0;
    duplicates = 0;
    corrupt = 0;
    gave_up = 0;
    answers = [];
    started_s = Obs.now_s ();
  }

let in_flight_count l = Hashtbl.length l.flying

(* In-flight entries in trace order. *)
let in_flight l =
  List.sort
    (fun a b -> compare a.index b.index)
    (Hashtbl.fold (fun _ e acc -> e :: acc) l.flying [])

(* Something is still to be sent, now or after a backoff. *)
let pending l = l.fresh <> [] || l.lost <> []

(* The next attempt's line, if one is due at [now]: a lost request whose
   re-send is due goes first (it has waited longest), then the trace in
   order. *)
let send l ~now =
  let next =
    match (l.lost, l.fresh) with
    | ({ state = Waiting due; _ } as e) :: rest, _ when due <= now ->
        l.lost <- rest;
        Some e
    | _, e :: rest ->
        l.fresh <- rest;
        Some e
    | _ -> None
  in
  Option.map
    (fun e ->
      if e.attempts = 0 then begin
        l.sent <- l.sent + 1;
        e.first_s <- now
      end
      else begin
        l.retries <- l.retries + 1;
        Option.iter Client.count_retry l.client
      end;
      e.attempts <- e.attempts + 1;
      e.state <- In_flight now;
      Hashtbl.replace l.flying e.id e;
      e.line)
    next

let is_ok = function P.Done _ -> true | P.Rejected _ | P.Failed _ -> false

(* The one place a request resolves, and emits its root span. *)
let resolve l e ~now ~ok state =
  (match e.state with
  | Waiting _ -> l.lost <- List.filter (fun x -> x != e) l.lost
  | _ -> Hashtbl.remove l.flying e.id);
  e.state <- state;
  Option.iter
    (fun (tid, span) ->
      ignore
        (Obs.emit_span_at
           ~attrs:
             [ ("trace_id", Obs.S tid); ("id", Obs.S e.id);
               ("attempts", Obs.I e.attempts) ]
           ~parent:0 ~id:span ~ok ~name:"client.request" ~start_s:e.first_s
           ~dur_s:(now -. e.first_s) ()))
    e.root

let receive l line =
  match P.response_of_string line with
  | Error _ -> l.corrupt <- l.corrupt + 1
  | Ok resp -> (
      match Hashtbl.find_opt l.entries (P.response_id resp) with
      | Some { state = Answered | Gave_up; _ } ->
          l.duplicates <- l.duplicates + 1
      | Some e when e.attempts > 0 ->
          let now = Obs.now_s () in
          resolve l e ~now ~ok:(is_ok resp) Answered;
          Option.iter Client.record_success l.client;
          l.answers <- (resp, now -. e.first_s) :: l.answers
      | _ -> l.corrupt <- l.corrupt + 1)

(* An in-flight attempt that will not be answered: a failure for the
   breaker, then a re-send due [backoff attempt] seconds from [now] while
   the retry budget lasts, else a give-up. *)
let lose l e ~now ~backoff =
  Option.iter (fun c -> Client.record_failure c ~now) l.client;
  if e.attempts > l.max_retries then begin
    l.gave_up <- l.gave_up + 1;
    resolve l e ~now ~ok:false Gave_up
  end
  else begin
    Hashtbl.remove l.flying e.id;
    let due = now +. backoff (e.attempts - 1) in
    e.state <- Waiting due;
    let rec insert = function
      | ({ state = Waiting d; _ } as x) :: rest when d <= due ->
          x :: insert rest
      | rest -> e :: rest
    in
    l.lost <- insert l.lost
  end

let report l =
  let ok = ref 0 and rejected = ref 0 and errors = ref 0 in
  let hits = ref 0 and misses = ref 0 and coalesced = ref 0 in
  let degraded = ref 0 in
  List.iter
    (fun (resp, _) ->
      match resp with
      | P.Done { cache; degraded = d; _ } -> (
          incr ok;
          if d then incr degraded;
          match cache with
          | P.Hit -> incr hits
          | P.Miss -> incr misses
          | P.Coalesced -> incr coalesced)
      | P.Rejected _ -> incr rejected
      | P.Failed _ -> incr errors)
    l.answers;
  let lats = Array.of_list (List.map snd l.answers) in
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
    let arr =
      Array.of_list
        (List.filter_map
           (fun (resp, latency) ->
             Option.map
               (fun t -> (t.P.trace_id, latency))
               (P.response_trace resp))
           l.answers)
    in
    Array.sort (fun (_, a) (_, b) -> compare b a) arr;
    let n = Array.length arr in
    let keep = min 8 (max (min n 1) (n / 10)) in
    Array.to_list (Array.sub arr 0 keep)
  in
  let wall_s = Obs.now_s () -. l.started_s in
  {
    sent = l.sent;
    answered;
    ok = !ok;
    rejected = !rejected;
    errors = !errors;
    hits = !hits;
    misses = !misses;
    coalesced = !coalesced;
    degraded = !degraded;
    retries = l.retries;
    duplicates = l.duplicates;
    corrupt_lines = l.corrupt;
    gave_up = l.gave_up;
    wall_s;
    throughput_rps =
      (if wall_s > 0. then float_of_int answered /. wall_s else 0.);
    mean_s;
    p50_s = quantile lats 0.50;
    p99_s = quantile lats 0.99;
    exemplars;
    (* Gave-ups score as failures at infinite latency, so no objective
       can be gamed by abandonment. *)
    slo_samples =
      List.rev_map (fun (resp, latency) -> (latency, is_ok resp)) l.answers
      @ List.init l.gave_up (fun _ -> (Float.infinity, false));
  }

(* ---------------------------------------------------- in-process driver *)

(* The in-process driver feeds run_loop through the io record.  The
   flush callback fires after every batch's replies, and provided the
   in-flight window never exceeds the engine's batch_size, every attempt
   sent before a flush was answered by it — so an attempt still in
   flight at a flush lost its reply to chaos, and is re-sent at once. *)
let drive_inproc ?(window = 32) ?client server requests =
  if window < 1 then invalid_arg "drive_inproc: window < 1";
  let l = ledger ?client requests in
  let read ~block:_ =
    if in_flight_count l >= window then `Nothing
    else
      match send l ~now:(Obs.now_s ()) with
      | Some line -> `Req (line, receive l)
      | None ->
          if in_flight_count l = 0 && not (pending l) then `Eof else `Nothing
  in
  let flush () =
    List.iter
      (fun e -> lose l e ~now:(Obs.now_s ()) ~backoff:(fun _ -> 0.))
      (in_flight l)
  in
  ignore (Server.run_loop server { Server.read; flush } : Server.stats);
  report l

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
   attempts in flight, issued only while the client's breaker admits.
   With [client], an attempt that outlives the policy deadline is lost,
   and re-sent after jittered backoff while the retry budget lasts. *)
let drive_fds ?(window = 32) ?client ~req_w ~resp_r requests =
  if window < 1 then invalid_arg "drive: window < 1";
  Unix.set_nonblock req_w;
  let reader = Server.Line_reader.create resp_r in
  let deadline = Option.bind client (fun c -> (Client.config c).Client.deadline_s) in
  let l = ledger ?client requests in
  let out = Buffer.create 65536 in
  let closed_req = ref false in
  let issue_some () =
    let now = Obs.now_s () in
    let rec go () =
      if in_flight_count l < window && Buffer.length out < 1 lsl 20 then
        match send l ~now with
        | Some line ->
            Buffer.add_string out line;
            Buffer.add_char out '\n';
            go ()
        | None -> ()
    in
    match client with
    | Some c when not (Client.admit c ~now) -> ()
    | _ -> go ()
  in
  let check_deadlines () =
    match (deadline, client) with
    | Some d, Some c ->
        let now = Obs.now_s () in
        List.iter
          (fun e ->
            match e.state with
            | In_flight t0 when now -. t0 > d ->
                lose l e ~now ~backoff:(fun attempt ->
                    Client.backoff_s c ~attempt)
            | _ -> ())
          (in_flight l)
    | _ -> ()
  in
  (* Nothing more will ever be sent once nothing is pending or buffered
     and (when a deadline exists) nothing in flight can still expire
     into a re-send. *)
  let done_sending () =
    (not (pending l)) && Buffer.length out = 0
    && (deadline = None || in_flight_count l = 0)
  in
  let eof = ref false in
  while not !eof do
    check_deadlines ();
    issue_some ();
    if (not !closed_req) && done_sending () then begin
      closed_req := true;
      (try Unix.close req_w with Unix.Unix_error _ -> ())
    end;
    let writes =
      if (not !closed_req) && Buffer.length out > 0 then [ req_w ] else []
    in
    (* Tighter ticks while a deadline or scheduled re-send is pending, so
       expiry latency stays small against sub-second deadlines. *)
    let tick =
      if l.lost <> [] || (deadline <> None && in_flight_count l > 0) then 0.05
      else 0.25
    in
    match Unix.select [ resp_r ] writes [] tick with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        if writable <> [] then write_nonblock req_w out;
        if readable <> [] then begin
          Server.Line_reader.read_chunk reader;
          let continue = ref true in
          while !continue do
            match Server.Line_reader.next ~block:false reader with
            | `Line line -> receive l line
            | `Nothing -> continue := false
            | `Eof ->
                continue := false;
                eof := true
          done
        end
  done;
  if not !closed_req then (try Unix.close req_w with Unix.Unix_error _ -> ());
  report l

(* Spawn [argv] (a `bg serve` command line), drive the trace through its
   stdin/stdout, reap it, and report.  The child's stderr passes
   through. *)
let drive_subprocess ?window ?client argv requests =
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
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close resp_r with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () -> drive_fds ?window ?client ~req_w ~resp_r requests)
