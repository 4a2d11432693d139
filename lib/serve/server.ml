(* The batched analysis engine behind `bg serve`.

   Requests flow through three stages:

     admission  a bounded queue (max_queue).  A request arriving at a
                full queue is answered immediately with a typed
                "rejected" response — overload sheds load instead of
                collapsing latency, and the queue can never grow without
                bound.  Pings are answered here too: a health probe
                never waits behind analysis work.  An admitted request's
                space is resolved (built, validated, digested) before it
                is queued.
     batching   up to batch_size queued requests are taken per cycle.
                Within a batch, requests are keyed by space digest + op
                parameters; concurrent duplicates coalesce onto a single
                computation, and the shared store answers keys any
                earlier batch (or an earlier daemon life, via the
                persistent snapshot + WAL) already computed.
     compute    the unique missing keys of a batch run in parallel on
                the shared domain pool — one task per key with the
                inner sweeps pinned sequential, so parallelism comes
                from request-level fan-out; a batch with a single
                missing key instead runs it on the caller with the full
                configured job count, so large lone requests still use
                the whole machine.  Either way results are bit-identical
                (job counts never change results).  A compute exception
                is caught inside its task and becomes a typed "error"
                response: one poisoned request cannot cancel its batch
                or crash the daemon.

   Degraded mode (config.degrade): when the backlog behind a batch
   crosses the watermark, or a space is too large for an exact sweep,
   zeta/phi/gamma requests that miss the cache are answered from the
   Estimators tier — a certified lower bound with its confidence
   interval, tagged degraded:true — instead of being shed.  Load
   degrades exact -> estimated -> rejected.  Degraded answers are never
   written to the store: the cache key promises the exact value.

   Chaos (config.chaos): the injector's per-request stall and mid-batch
   crash points fire inside process_batch; response-line faults fire at
   the reply boundary in run_loop, so every transport misbehaves
   identically.  With a WAL-backed store the group-commit ordering below
   (compute -> journal -> fsync -> reply) means a crash at any point
   loses at most the in-flight batch, and no reply is ever sent for an
   entry that could vanish.

   Observability: one serve.request span per request (attrs: id, op,
   batch, cache outcome, queue-wait and total latency), one serve.batch
   span per cycle, serve.latency_s / serve.queue_wait_s histograms and
   serve.{accepted,rejected,computed,degraded,...} counters — all
   through the existing Obs registry, so `--metrics` and `--trace` just
   work. *)

module P = Protocol
module J = Core.Prelude.Jsonl
module D = Core.Decay.Decay_space
module Io = Core.Decay.Decay_io
module Met = Core.Decay.Metricity
module Fad = Core.Decay.Fading
module Stat = Core.Decay.Statistics
module Est = Core.Decay.Estimators
module Ctx = Core.Decay.Ctx
module Par = Core.Prelude.Parallel
module Obs = Core.Prelude.Obs
module Rng = Core.Prelude.Rng

type degrade = {
  queue_watermark : int;
  big_n : int;
  nodes : int;
  replicates : int;
  seed : int;
}

let default_degrade =
  { queue_watermark = 64; big_n = 1024; nodes = 32; replicates = 6; seed = 0 }

(* Supervisor lineage: counters the supervisor threads into each worker
   incarnation (via BG_SUPERVISE_* environment variables, see
   Supervisor), so a respawned worker's ping does not report zeroed
   telemetry. *)
type lineage = {
  restarts : int;
  supervisor_started_s : float;
  prior_uptime_s : float; (* summed uptime of dead predecessor workers *)
}

type config = {
  ctx : Ctx.t;
  batch_size : int;
  max_queue : int;
  request_timeout_s : float option;
  store : Store.t option;
  degrade : degrade option;
  chaos : Chaos.t option;
  slo : Slo.t option;
  telemetry : Telemetry.t option;
  lineage : lineage option;
}

let default_config =
  {
    ctx = Ctx.default;
    batch_size = 32;
    max_queue = 256;
    request_timeout_s = None;
    store = None;
    degrade = None;
    chaos = None;
    slo = None;
    telemetry = None;
    lineage = None;
  }

type stats = {
  mutable accepted : int;
  mutable rejected : int;
  mutable failed : int;
  mutable served : int;
  mutable computed : int;
  mutable store_hits : int;
  mutable coalesced : int;
  mutable batches : int;
  mutable peak_queue : int;
  mutable degraded : int;
  mutable pings : int;
  mutable disconnects : int;
}

type t = { config : config; stats : stats; started_s : float }

let create config =
  if config.batch_size < 1 then
    invalid_arg "Server.create: batch_size must be positive";
  if config.max_queue < 1 then
    invalid_arg "Server.create: max_queue must be positive";
  (match config.degrade with
  | Some d ->
      if d.queue_watermark < 1 then
        invalid_arg "Server.create: degrade watermark must be positive";
      if d.nodes < 3 then
        invalid_arg "Server.create: degrade nodes must be >= 3";
      if d.replicates < 1 then
        invalid_arg "Server.create: degrade replicates must be positive"
  | None -> ());
  {
    config;
    stats =
      {
        accepted = 0; rejected = 0; failed = 0; served = 0; computed = 0;
        store_hits = 0; coalesced = 0; batches = 0; peak_queue = 0;
        degraded = 0; pings = 0; disconnects = 0;
      };
    started_s = Obs.now_s ();
  }

let stats t = t.stats

let c_accepted = Obs.counter "serve.accepted"
let c_rejected = Obs.counter "serve.rejected"
let c_failed = Obs.counter "serve.failed"
let c_computed = Obs.counter "serve.computed"
let c_store_hits = Obs.counter "serve.store_hits"
let c_coalesced = Obs.counter "serve.coalesced"
let c_batches = Obs.counter "serve.batches"
let c_degraded = Obs.counter "serve.degraded"
let c_pings = Obs.counter "serve.pings"
let c_disconnects = Obs.counter "serve.client_disconnects"
let h_latency = Obs.histogram "serve.latency_s"
let h_queue_wait = Obs.histogram "serve.queue_wait_s"
let h_batch_fill = Obs.histogram "serve.batch_fill"
let batch_counter = Atomic.make 0

(* ------------------------------------------------------------- compute *)

(* Every space is validated like a CSV one before it is answered or
   stored: a raw file is mapped and its cells checked (the digest reads
   every cell anyway). *)
let resolve_space = function
  | P.Inline (name, rows) -> D.of_matrix ~name rows
  | P.Csv text -> Io.of_csv text
  | P.File path ->
      if Io.is_raw path then Io.load_raw_mmap ~validate:true path
      else Io.load path

let witness_json (w : Met.witness) =
  J.Obj
    [ ("x", J.Num (float_of_int w.x)); ("y", J.Num (float_of_int w.y));
      ("z", J.Num (float_of_int w.z)) ]

let compute ~ctx op space =
  match op with
  | P.Zeta ->
      let w = Met.zeta_witness ~ctx space in
      J.Obj [ ("zeta", J.Num w.value); ("witness", witness_json w) ]
  | P.Phi ->
      let w = Met.phi_witness ~ctx space in
      J.Obj [ ("phi", J.Num w.value); ("witness", witness_json w) ]
  | P.Gamma r ->
      J.Obj [ ("gamma", J.Num (Fad.gamma ~ctx space ~r)); ("r", J.Num r) ]
  | P.Summarize ->
      let s = Stat.summarize ~ctx space in
      J.Obj
        [ ("n", J.Num (float_of_int s.n)); ("min_db", J.Num s.min_db);
          ("max_db", J.Num s.max_db); ("median_db", J.Num s.median_db);
          ("dynamic_range_db", J.Num s.dynamic_range_db);
          ("asymmetry_db", J.Num s.asymmetry_db) ]
  | P.Estimate { nodes; replicates; seed } ->
      let e =
        Est.zeta ~ctx ~replicates ~nodes (Rng.create seed)
          (Est.of_space space)
      in
      J.Obj
        [ ("zeta_lower", J.Num e.point); ("hi", J.Num e.hi);
          ("confidence", J.Num e.confidence) ]
  | P.Ping | P.Metrics -> invalid_arg "ping/metrics are answered at admission"

let compute_guarded ~ctx ~timeout op space =
  let body () =
    match timeout with
    | None -> compute ~ctx op space
    | Some seconds -> Par.with_deadline ~seconds (fun () -> compute ~ctx op space)
  in
  match body () with
  | v -> Ok v
  | exception Par.Timeout -> Error "wall-clock budget exceeded"
  | exception (Invalid_argument m | Failure m | Sys_error m) -> Error m

(* The degraded tier: answer zeta/phi/gamma from Estimators, seeded
   deterministically per cache key so identical requests under identical
   load degrade to bit-identical estimates.  Returns None for ops with
   no estimator (they stay exact) and spaces too small to stratify. *)
let compute_degraded ~ctx d op space key =
  let n = D.n space in
  let rng = Rng.create (d.seed lxor Hashtbl.hash key) in
  let estimate_json tag (e : Est.estimate) =
    Some
      (J.Obj
         [ (tag, J.Num e.point); ("lo", J.Num e.lo); ("hi", J.Num e.hi);
           ("confidence", J.Num e.confidence);
           ("replicates", J.Num (float_of_int (Array.length e.replicates)))
         ])
  in
  match op with
  | P.Zeta when n >= 3 ->
      let nodes = min d.nodes n in
      if nodes < 3 then None
      else
        estimate_json "zeta_lower"
          (Est.zeta ~ctx ~replicates:d.replicates ~nodes rng
             (Est.of_space space))
  | P.Phi when n >= 3 ->
      let nodes = min d.nodes n in
      if nodes < 3 then None
      else
        estimate_json "phi_lower"
          (Est.phi ~ctx ~replicates:d.replicates ~nodes rng
             (Est.of_space space))
  | P.Gamma r when n >= 1 ->
      let listeners = max 1 (min d.nodes n) in
      estimate_json "gamma_lower"
        (Est.gamma ~ctx ~replicates:d.replicates ~listeners rng
           (Est.of_space space) ~r)
  | _ -> None

(* ---------------------------------------------------------------- ping *)

(* Supervisor lineage fields, shared by ping and metrics: a worker
   respawned by the supervisor keeps reporting cumulative restart and
   uptime figures rather than starting over from zero. *)
let lineage_fields t ~now =
  let uptime = Float.max 0. (now -. t.started_s) in
  match t.config.lineage with
  | None -> [ ("restarts", J.Num 0.); ("total_uptime_s", J.Num uptime) ]
  | Some l ->
      [ ("restarts", J.Num (float_of_int l.restarts));
        ( "supervisor_uptime_s",
          J.Num (Float.max 0. (now -. l.supervisor_started_s)) );
        ("total_uptime_s", J.Num (l.prior_uptime_s +. uptime)) ]

let slo_fields t ~now =
  match t.config.slo with
  | None -> []
  | Some slo ->
      let statuses = Slo.report slo ~now_s:now in
      [ ("slo", J.Arr (List.map Slo.status_to_json statuses));
        ("slo_healthy", J.Bool (not (Slo.violated statuses))) ]

let ping_result t ~queue_depth =
  let st = t.stats in
  let now = Obs.now_s () in
  let hit_rate =
    if st.served > 0 then float_of_int st.store_hits /. float_of_int st.served
    else 0.
  in
  J.Obj
    ([ ("uptime_s", J.Num (Float.max 0. (now -. t.started_s)));
       ("queue_depth", J.Num (float_of_int queue_depth));
       ("accepted", J.Num (float_of_int st.accepted));
       ("served", J.Num (float_of_int st.served));
       ("hit_rate", J.Num hit_rate);
       ("degraded_answers", J.Num (float_of_int st.degraded));
       ("degrade_enabled", J.Bool (t.config.degrade <> None)) ]
    @ lineage_fields t ~now
    @ slo_fields t ~now)

(* The metrics op: one full registry scrape plus the server's own stats,
   answered at admission like ping so a scraper works during overload.
   This is what `bg top --socket` polls. *)
let metrics_result t ~queue_depth =
  let st = t.stats in
  let now = Obs.now_s () in
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, m) ->
      match m with
      | Obs.Counter_snapshot v ->
          counters := (name, J.Num (float_of_int v)) :: !counters
      | Obs.Gauge_snapshot v -> gauges := (name, J.Num v) :: !gauges
      | Obs.Histogram_snapshot { count; sum; buckets } ->
          histograms :=
            ( name,
              J.Obj
                [ ("count", J.Num (float_of_int count)); ("sum", J.Num sum);
                  ("p50", J.Num (Obs.quantile_of_buckets buckets 0.5));
                  ("p99", J.Num (Obs.quantile_of_buckets buckets 0.99)) ] )
            :: !histograms)
    (Obs.snapshot ());
  J.Obj
    ([ ("uptime_s", J.Num (Float.max 0. (now -. t.started_s)));
       ("queue_depth", J.Num (float_of_int queue_depth));
       ( "stats",
         J.Obj
           [ ("accepted", J.Num (float_of_int st.accepted));
             ("rejected", J.Num (float_of_int st.rejected));
             ("failed", J.Num (float_of_int st.failed));
             ("served", J.Num (float_of_int st.served));
             ("computed", J.Num (float_of_int st.computed));
             ("store_hits", J.Num (float_of_int st.store_hits));
             ("coalesced", J.Num (float_of_int st.coalesced));
             ("batches", J.Num (float_of_int st.batches));
             ("peak_queue", J.Num (float_of_int st.peak_queue));
             ("degraded", J.Num (float_of_int st.degraded));
             ("pings", J.Num (float_of_int st.pings));
             ("disconnects", J.Num (float_of_int st.disconnects)) ] );
       ("counters", J.Obj (List.rev !counters));
       ("gauges", J.Obj (List.rev !gauges));
       ("histograms", J.Obj (List.rev !histograms)) ]
    @ lineage_fields t ~now
    @ slo_fields t ~now)

let admission_response t ~queue_depth ~id ~op ~trace =
  t.stats.pings <- t.stats.pings + 1;
  Obs.incr c_pings;
  P.Done
    {
      id;
      op_name = P.op_name op;
      result =
        (match op with
        | P.Metrics -> metrics_result t ~queue_depth
        | _ -> ping_result t ~queue_depth);
      cache = P.Miss;
      queue_wait_s = 0.;
      batch = 0;
      elapsed_s = 0.;
      degraded = false;
      trace;
    }

(* ------------------------------------------------------------- batches *)

(* What admission knows about a request once its space is resolved. *)
type resolved =
  | Bad of string (* unresolvable space: typed error *)
  | Keyed of D.t * string (* space + full cache key *)
  | Health (* ping/metrics: answered without touching the compute path *)

let resolve req =
  match (req.P.op, req.P.space) with
  | (P.Ping | P.Metrics), _ -> Health
  | _, None -> Bad "request: missing space"
  | _, Some spec -> (
      match resolve_space spec with
      | space ->
          (* Hex, not the raw 16 MD5 bytes: the key must survive a JSONL
             snapshot round-trip as printable text. *)
          Keyed
            (space, Digest.to_hex (D.digest space) ^ "/" ^ P.op_key req.P.op)
      | exception (Invalid_argument m | Failure m | Sys_error m) -> Bad m)

(* Process one batch of admitted requests, each with its admission
   timestamp and resolved space.  [queue_depth] is the backlog left
   behind the batch — the degraded-mode watermark signal.  Returns one
   response per request, in input order. *)
let process_resolved ~queue_depth t resolved =
  let cfg = t.config and st = t.stats in
  let batch = 1 + Atomic.fetch_and_add batch_counter 1 in
  let n = List.length resolved in
  Obs.with_span "serve.batch"
    ~attrs:[ ("batch", Obs.I batch); ("n", Obs.I n) ]
    (fun () ->
      Obs.observe h_batch_fill (float_of_int n);
      let started_s = Obs.now_s () in
      (* Chaos: per-request stall rolls, one per batch member. *)
      (match cfg.chaos with
      | Some c -> List.iter (fun _ -> Chaos.stall c) resolved
      | None -> ());
      (* Which keys answer from the degraded tier this cycle: a cache
         miss on zeta/phi/gamma when the backlog is over the watermark,
         or whenever the space is too big for an exact sweep.  Store
         hits stay exact — a hit is both cheaper and better. *)
      let over_watermark =
        match cfg.degrade with
        | Some d -> queue_depth >= d.queue_watermark
        | None -> false
      in
      let wants_degrade space =
        match cfg.degrade with
        | None -> false
        | Some d -> over_watermark || D.n space >= d.big_n
      in
      (* One compute per distinct key: the first requester owns it, later
         duplicates coalesce.  Store hits skip compute entirely. *)
      let owners = Hashtbl.create 16 in
      let from_store = Hashtbl.create 16 in
      let degraded_results = Hashtbl.create 4 in
      List.iter
        (fun (req, _, r) ->
          match r with
          | Bad _ | Health -> ()
          | Keyed (space, key) ->
              if
                not
                  (Hashtbl.mem owners key || Hashtbl.mem from_store key
                  || Hashtbl.mem degraded_results key)
              then begin
                match Option.bind cfg.store (fun s -> Store.find s key) with
                | Some v -> Hashtbl.add from_store key v
                | None -> (
                    match
                      if wants_degrade space then
                        Option.bind cfg.degrade (fun d ->
                            compute_degraded ~ctx:cfg.ctx d req.P.op space key)
                      else None
                    with
                    | Some v -> Hashtbl.add degraded_results key v
                    | None -> Hashtbl.add owners key (req.P.op, space))
              end)
        resolved;
      let to_compute =
        Hashtbl.fold (fun key (op, space) acc -> (key, op, space) :: acc)
          owners []
        (* Deterministic task order regardless of hashing. *)
        |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
      in
      let timeout = cfg.request_timeout_s in
      (* Each compute is timed explicitly (not just spanned) so response
         assembly can re-emit the kernel sweep as a backdated child of
         every requester's serve.request span — the merged causal tree
         then shows the sweep under each originating client root. *)
      let timed key f =
        let c0 = Obs.now_s () in
        let r = f () in
        (key, r, c0, Obs.now_s () -. c0)
      in
      let computed =
        match to_compute with
        | [] -> []
        | [ (key, op, space) ] ->
            (* A lone compute keeps the configured within-request
               parallelism: nothing else to overlap it with. *)
            [ timed key (fun () -> compute_guarded ~ctx:cfg.ctx ~timeout op space) ]
        | _ ->
            (* Several distinct keys: fan out across the pool, one task
               per key, inner sweeps sequential.  Results are identical
               either way; only the parallelism axis moves. *)
            let seq_ctx = { cfg.ctx with Ctx.jobs = Some 1 } in
            let tasks =
              to_compute
              |> List.map (fun (key, op, space) () ->
                     Obs.with_span "serve.compute"
                       ~attrs:
                         [ ("op", Obs.S (P.op_name op));
                           ("batch", Obs.I batch) ]
                       (fun () ->
                         timed key (fun () ->
                             compute_guarded ~ctx:seq_ctx ~timeout op space)))
              |> Array.of_list
            in
            Array.to_list (Par.run tasks)
      in
      (* Chaos: the mid-batch crash point sits between compute and the
         store writes — results in hand, nothing journaled, no reply
         sent.  The whole batch is the loss, exactly the WAL's promised
         worst case. *)
      Chaos.maybe_at cfg.chaos Chaos.Mid_batch;
      let results = Hashtbl.create 16 in
      let timings = Hashtbl.create 16 in
      List.iter
        (fun (key, r, c0, cdur) ->
          Hashtbl.replace results key r;
          Hashtbl.replace timings key (c0, cdur);
          match (r, cfg.store) with
          | Ok v, Some store -> Store.add store key v
          | _ -> ())
        computed;
      (* Assemble responses in input order; the first requester of a
         computed key reports "miss", later duplicates "coalesced". *)
      let miss_seen = Hashtbl.create 16 in
      List.map
        (fun (req, t0, r) ->
          let finished_s = Obs.now_s () in
          let queue_wait_s = Float.max 0. (started_s -. t0) in
          let elapsed_s = Float.max 0. (finished_s -. t0) in
          let outcome_of key =
            if Hashtbl.mem from_store key then P.Hit
            else if Hashtbl.mem miss_seen key then P.Coalesced
            else begin
              Hashtbl.add miss_seen key ();
              P.Miss
            end
          in
          let trace = req.P.trace in
          let response =
            match r with
            | Bad reason -> P.Failed { id = req.P.id; reason; trace }
            | Health ->
                admission_response t ~queue_depth ~id:req.P.id ~op:req.P.op
                  ~trace
            | Keyed (_, key) -> (
                match Hashtbl.find_opt degraded_results key with
                | Some v ->
                    P.Done
                      {
                        id = req.P.id;
                        op_name = P.op_name req.P.op;
                        result = v;
                        cache = outcome_of key;
                        queue_wait_s;
                        batch;
                        elapsed_s;
                        degraded = true;
                        trace;
                      }
                | None -> (
                    let result =
                      match Hashtbl.find_opt from_store key with
                      | Some v -> Ok v
                      | None -> (
                          match Hashtbl.find_opt results key with
                          | Some r -> r
                          | None -> Error "internal: result missing")
                    in
                    match result with
                    | Error reason -> P.Failed { id = req.P.id; reason; trace }
                    | Ok v ->
                        P.Done
                          {
                            id = req.P.id;
                            op_name = P.op_name req.P.op;
                            result = v;
                            cache = outcome_of key;
                            queue_wait_s;
                            batch;
                            elapsed_s;
                            degraded = false;
                            trace;
                          }))
          in
          (* The per-request span: wall time of the request itself lives
             in the queue_wait_s / elapsed_s attrs (the span closes at
             response assembly).  When the request carried trace context,
             the span records it — trace_id plus the client's span id —
             which is what lets Obs_tools.Trace.merge re-parent this
             subtree under the originating client root.  Queue wait and
             the kernel sweep are re-emitted as backdated children, so
             the merged tree attributes the request's latency stage by
             stage. *)
          let trace_attrs =
            match trace with
            | None -> []
            | Some { P.trace_id; parent_span } ->
                ("trace_id", Obs.S trace_id)
                ::
                (if parent_span > 0 then
                   [ ("parent_span", Obs.I parent_span) ]
                 else [])
          in
          Obs.with_span "serve.request"
            ~attrs:
              ([ ("id", Obs.S req.P.id);
                 ("op", Obs.S (P.op_name req.P.op));
                 ("batch", Obs.I batch);
                 ( "cache",
                   Obs.S
                     (match response with
                     | P.Done { degraded = true; _ } -> "degraded"
                     | P.Done { cache; _ } -> P.cache_outcome_name cache
                     | P.Rejected _ -> "rejected"
                     | P.Failed _ -> "error") );
                 ("queue_wait_s", Obs.F queue_wait_s);
                 ("elapsed_s", Obs.F elapsed_s) ]
              @ trace_attrs)
            (fun () ->
              (match r with
              | Keyed (_, key) when Obs.tracing () ->
                  if queue_wait_s > 0. then
                    ignore
                      (Obs.emit_span_at ~name:"serve.queue_wait"
                         ~start_s:t0 ~dur_s:queue_wait_s ());
                  (match Hashtbl.find_opt timings key with
                  | Some (c0, cdur) ->
                      ignore
                        (Obs.emit_span_at ~name:"serve.kernel"
                           ~attrs:[ ("op", Obs.S (P.op_name req.P.op)) ]
                           ~start_s:c0 ~dur_s:cdur ())
                  | None -> ())
              | _ -> ());
              Obs.observe h_latency elapsed_s;
              Obs.observe h_queue_wait queue_wait_s;
              (match cfg.slo with
              | Some slo ->
                  Slo.record slo ~now_s:finished_s ~latency_s:elapsed_s
                    ~ok:(match response with P.Done _ -> true | _ -> false)
              | None -> ());
              (match response with
              | P.Done { degraded = true; _ } ->
                  st.served <- st.served + 1;
                  st.degraded <- st.degraded + 1;
                  Obs.incr c_degraded
              | P.Done { op_name = "ping"; _ } -> st.served <- st.served + 1
              | P.Done { cache; _ } ->
                  st.served <- st.served + 1;
                  (match cache with
                  | P.Hit ->
                      st.store_hits <- st.store_hits + 1;
                      Obs.incr c_store_hits
                  | P.Miss ->
                      st.computed <- st.computed + 1;
                      Obs.incr c_computed
                  | P.Coalesced ->
                      st.coalesced <- st.coalesced + 1;
                      Obs.incr c_coalesced)
              | P.Failed _ ->
                  st.failed <- st.failed + 1;
                  Obs.incr c_failed
              | P.Rejected _ -> ());
              response))
        resolved)

let process_batch ?(queue_depth = 0) t reqs =
  process_resolved ~queue_depth t
    (List.map (fun (req, t0) -> (req, t0, resolve req)) reqs)

(* ---------------------------------------------------------------- loop *)

type input =
  [ `Req of string * (string -> unit) | `Nothing | `Eof ]

type io = { read : block:bool -> input; flush : unit -> unit }

(* The id to answer a line that is not a valid request with: its "id"
   if it is JSON that has one, "?" otherwise. *)
let error_id line =
  match J.parse line with
  | exception J.Bad _ -> "?"
  | j -> Option.value (J.mem_str "id" j) ~default:"?"

let run_loop ?(should_stop = fun () -> false) t io =
  let cfg = t.config and st = t.stats in
  (* Response lines pass through the chaos mangler on their way out, so
     every transport tears, drops and corrupts identically. *)
  let send =
    match cfg.chaos with
    | None -> fun reply line -> reply line
    | Some c -> (
        fun reply line ->
          match Chaos.mangle c line with
          | `Deliver l -> reply l
          | `Drop | `Drop_keep_carry -> ())
  in
  let queue : (P.request * float * resolved * (string -> unit)) Queue.t =
    Queue.create ()
  in
  let eof = ref false in
  let admit line reply =
    match P.request_of_string line with
    | Ok ({ P.op = P.Ping | P.Metrics; _ } as req) ->
        (* Health probes and telemetry scrapes bypass the queue
           entirely: they must answer during overload, which is exactly
           when the queue is full. *)
        send reply
          (P.response_to_string
             (admission_response t ~queue_depth:(Queue.length queue)
                ~id:req.P.id ~op:req.P.op ~trace:req.P.trace))
    | parsed ->
        if Queue.length queue >= cfg.max_queue then begin
          (* Shed load with a typed answer: the queue is bounded by
             construction, and accepted requests keep a bounded wait. *)
          st.rejected <- st.rejected + 1;
          Obs.incr c_rejected;
          (match cfg.slo with
          | Some slo ->
              Slo.record slo ~now_s:(Obs.now_s ()) ~latency_s:0. ~ok:false
          | None -> ());
          (* The id comes from the parse already done; only a line that
             failed it is looked at again. *)
          let id, trace =
            match parsed with
            | Ok req -> (req.P.id, req.P.trace)
            | Error _ -> (error_id line, None)
          in
          send reply
            (P.response_to_string
               (P.Rejected
                  {
                    id;
                    reason =
                      Printf.sprintf "queue full (%d pending)" cfg.max_queue;
                    trace;
                  }))
        end
        else
          match parsed with
          | Error reason ->
              st.failed <- st.failed + 1;
              Obs.incr c_failed;
              send reply
                (P.response_to_string
                   (P.Failed { id = error_id line; reason; trace = None }))
          | Ok req ->
              st.accepted <- st.accepted + 1;
              Obs.incr c_accepted;
              (* Resolve at admission and queue the request without its
                 rows: a backlog then holds each space's cells once, flat
                 and off the OCaml heap, and the rows die young instead
                 of being promoted with every queued request. *)
              let t0 = Obs.now_s () in
              let r = resolve req in
              Queue.add ({ req with P.space = None }, t0, r, reply) queue
  in
  let rec drain ~block =
    if not (!eof || should_stop ()) then
      match io.read ~block with
      | `Req (line, reply) ->
          admit line reply;
          drain ~block:false
      | `Nothing -> ()
      | `Eof -> eof := true
  in
  while not ((!eof || should_stop ()) && Queue.is_empty queue) do
    (* Block only when idle; once work is queued, take whatever input is
       already waiting and get on with the batch.  A signal interrupting
       the blocking read surfaces as `Nothing, so should_stop is
       re-checked promptly. *)
    drain ~block:(Queue.is_empty queue && not (should_stop ()));
    st.peak_queue <- max st.peak_queue (Queue.length queue);
    Option.iter (fun tel -> Telemetry.maybe_snapshot tel) cfg.telemetry;
    if not (Queue.is_empty queue) then begin
      let batch = ref [] in
      let replies = ref [] in
      while not (Queue.is_empty queue) && List.length !batch < cfg.batch_size
      do
        let req, t0, r, reply = Queue.take queue in
        batch := (req, t0, r) :: !batch;
        replies := reply :: !replies
      done;
      let responses =
        process_resolved ~queue_depth:(Queue.length queue) t (List.rev !batch)
      in
      st.batches <- st.batches + 1;
      Obs.incr c_batches;
      (* Group commit: make the batch's store entries durable before any
         reply leaves — an answered request is never lost to a crash. *)
      Option.iter Store.sync cfg.store;
      List.iter2
        (fun reply resp -> send reply (P.response_to_string resp))
        (List.rev !replies) responses;
      io.flush ()
    end
  done;
  io.flush ();
  Option.iter Store.flush cfg.store;
  (* The tail of the run must land in the ring even if the last interval
     had not elapsed: a drained shutdown leaves complete telemetry. *)
  Option.iter
    (fun tel ->
      Telemetry.force_snapshot tel;
      Telemetry.close tel)
    cfg.telemetry;
  st

(* ------------------------------------------------- line-buffered reads *)

(* A nonblocking-capable line reader over a raw fd: select decides
   whether bytes are waiting, an internal buffer splits them into lines.
   (Mixing select with OCaml's buffered channels would lose the bytes
   already sitting in the channel buffer, hence the raw-fd version.) *)
module Line_reader = struct
  type t = {
    fd : Unix.file_descr;
    buf : Buffer.t;
    mutable lines : string list; (* complete lines, oldest first *)
    mutable closed : bool;
  }

  let create fd = { fd; buf = Buffer.create 4096; lines = []; closed = false }

  let pending_partial t = Buffer.length t.buf

  let split_buffer t =
    let s = Buffer.contents t.buf in
    match String.rindex_opt s '\n' with
    | None -> ()
    | Some last ->
        let complete = String.sub s 0 last in
        let rest = String.sub s (last + 1) (String.length s - last - 1) in
        Buffer.clear t.buf;
        Buffer.add_string t.buf rest;
        t.lines <-
          t.lines
          @ (String.split_on_char '\n' complete
            |> List.filter (fun l -> String.trim l <> ""))

  let read_chunk t =
    let bytes = Bytes.create 65536 in
    match Unix.read t.fd bytes 0 (Bytes.length bytes) with
    | 0 -> t.closed <- true
    | n ->
        Buffer.add_subbytes t.buf bytes 0 n;
        split_buffer t
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

  let readable ~timeout t =
    match Unix.select [ t.fd ] [] [] timeout with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

  (* [`Line l | `Nothing | `Eof], never blocking longer than [block]'s
     semantics: block=false polls, block=true waits for input or EOF. *)
  let rec next ~block t =
    match t.lines with
    | l :: rest ->
        t.lines <- rest;
        `Line l
    | [] ->
        if t.closed then `Eof
        else if readable ~timeout:(if block then -1. else 0.) t then begin
          read_chunk t;
          if t.lines = [] && not t.closed then
            if block then next ~block t else `Nothing
          else next ~block:false t
        end
        else `Nothing
end

(* --------------------------------------------------------- stdio daemon *)

let write_all fd s =
  let bytes = Bytes.of_string s in
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd bytes !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let serve_stdio config =
  let t = create config in
  let reader = Line_reader.create Unix.stdin in
  let out = Buffer.create 65536 in
  let reply line =
    Buffer.add_string out line;
    Buffer.add_char out '\n'
  in
  let io =
    {
      read =
        (fun ~block ->
          match Line_reader.next ~block reader with
          | `Line l -> `Req (l, reply)
          | `Nothing -> `Nothing
          | `Eof -> `Eof);
      flush =
        (fun () ->
          if Buffer.length out > 0 then begin
            write_all Unix.stdout (Buffer.contents out);
            Buffer.clear out
          end);
    }
  in
  (* SIGTERM / SIGINT drain instead of dying mid-batch: the loop stops
     reading, finishes the queued work, and flushes the store snapshot —
     an interrupt no longer discards the warm cache accumulated since
     the last flush.  (The signal interrupts the blocking select, which
     surfaces as `Nothing; run_loop then notices should_stop.) *)
  let stop = ref false in
  let on_signal = Sys.Signal_handle (fun _ -> stop := true) in
  let old_int = (try Some (Sys.signal Sys.sigint on_signal) with Invalid_argument _ -> None) in
  let old_term = (try Some (Sys.signal Sys.sigterm on_signal) with Invalid_argument _ -> None) in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (Sys.set_signal Sys.sigint) old_int;
      Option.iter (Sys.set_signal Sys.sigterm) old_term)
    (fun () -> run_loop ~should_stop:(fun () -> !stop) t io)

(* -------------------------------------------------------- socket daemon *)

(* A Unix-domain-socket front end: accept any number of clients, select
   across them, answer each request on the connection it arrived on.
   Responses are written synchronously (requests and responses are a few
   KB; a client that stops reading only stalls its own connection's
   replies).  A client that disconnects mid-request costs exactly its
   own partial line — logged, counted (serve.client_disconnects),
   dropped — and the remaining clients keep being served.  The daemon
   stops on SIGINT/SIGTERM (draining the queue and flushing the store
   first) or, with [?max_requests], after answering that many requests —
   the hook the smoke tests use. *)
let serve_socket ?max_requests config path =
  (match Sys.file_exists path with
  | true -> Sys.remove path
  | false -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 64;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let stop = ref false in
  let on_signal = Sys.Signal_handle (fun _ -> stop := true) in
  let old_int = Sys.signal Sys.sigint on_signal in
  let old_term = Sys.signal Sys.sigterm on_signal in
  let clients : (Unix.file_descr, Line_reader.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let answered = ref 0 in
  let t = create config in
  let drop fd =
    (match Hashtbl.find_opt clients fd with
    | Some r ->
        t.stats.disconnects <- t.stats.disconnects + 1;
        Obs.incr c_disconnects;
        let partial = Line_reader.pending_partial r in
        if partial > 0 then
          Printf.eprintf
            "bg serve: client disconnected mid-request; dropped %d-byte \
             partial line\n\
             %!"
            partial
    | None -> ());
    Hashtbl.remove clients fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let reply_to fd line =
    (try write_all fd (line ^ "\n")
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
     -> drop fd);
    incr answered;
    match max_requests with
    | Some n when !answered >= n -> stop := true
    | _ -> ()
  in
  (* Round-robin over client readers so one chatty client cannot starve
     the rest: take at most one buffered line per client per call. *)
  let read ~block =
    let take_buffered () =
      Hashtbl.fold
        (fun fd r acc ->
          match acc with
          | Some _ -> acc
          | None -> (
              match Line_reader.next ~block:false r with
              | `Line l -> Some (`Req (l, reply_to fd))
              | `Eof ->
                  drop fd;
                  None
              | `Nothing -> None))
        clients None
    in
    let rec go block =
      if !stop then `Eof
      else
        match take_buffered () with
        | Some req -> req
        | None -> (
            let fds = listener :: Hashtbl.fold (fun fd _ a -> fd :: a) clients [] in
            (* A finite timeout even when blocking, so signals and
               max_requests are noticed promptly. *)
            match Unix.select fds [] [] (if block then 0.25 else 0.) with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Nothing
            | [], _, _ -> if block then go block else `Nothing
            | ready, _, _ ->
                List.iter
                  (fun fd ->
                    if fd = listener then begin
                      let client, _ = Unix.accept listener in
                      Hashtbl.replace clients client
                        (Line_reader.create client)
                    end
                    else
                      match Hashtbl.find_opt clients fd with
                      | None -> ()
                      | Some r -> (
                          Line_reader.read_chunk r;
                          if r.Line_reader.closed && r.Line_reader.lines = []
                          then drop fd))
                  ready;
                go block)
    in
    go block
  in
  let io = { read; flush = (fun () -> ()) } in
  let finish () =
    Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) clients;
    (try Unix.close listener with Unix.Unix_error _ -> ());
    (try Sys.remove path with Sys_error _ -> ());
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term
  in
  Fun.protect ~finally:finish (fun () -> run_loop t io)
