(** The JSONL wire schema of [bg serve] — typed requests and responses.

    One request per line in, one response per line out.  A request names
    an analysis [op], carries its decay space inline or by file path,
    and is answered by exactly one response:
    [ok] with the result, [rejected] under admission control (overload
    is a first-class, immediate answer — never a hung connection), or
    [error] for malformed or invalid input.

    Request line shapes:
    {v
{"id":"r1","op":"zeta","space":{"name":"s","n":2,
 "f64":"AAAAAAAAAAAAAAAAAAD4PzMzMzMzM/M/AAAAAAAAAAA="}}
{"id":"r1","op":"zeta","space":{"name":"s","matrix":[[0,1.5],[1.2,0]]}}
{"id":"r2","op":"gamma","r":4,"space":{"csv":"# name: s\n0,2\n2,0"}}
{"id":"r3","op":"estimate","nodes":32,"replicates":6,"seed":7,
 "space":{"file":"big.bgd"}}
{"id":"hp","op":"ping"}
    v}

    The first two lines carry the same space.  [f64] is the base64 of
    the [n·n] cells, row-major, as little-endian IEEE float64; its
    decoded length must be exactly [8·n·n].  {!request_to_string} writes
    every square {!Inline} space this way.  The decimal [matrix] form,
    [csv] and [file] are still accepted; ragged rows are written as
    [matrix] so that the server's shape check can name the bad row.

    Response line shapes:
    {v
{"id":"r1","status":"ok","op":"zeta","cache":"hit|miss|coalesced",
 "queue_wait_s":F,"batch":N,"elapsed_s":F,"result":{...}}
{"id":"r4","status":"ok","op":"zeta","cache":"miss",...,
 "degraded":true,"result":{"point":...,"lo":...,"hi":...}}
{"id":"r9","status":"rejected","reason":"queue full (256 pending)"}
{"id":"rX","status":"error","reason":"space: need one of f64 / matrix / csv / file"}
    v}

    [degraded:true] marks an answer produced by the
    {!Bg_decay.Estimators} tier instead of an exact sweep — the server
    was above its load watermark, and the result carries the estimator's
    confidence interval.  The flag is omitted when false, so
    pre-resilience response lines parse unchanged.

    An [f64] space carries its cells' bits themselves, so a workload
    generated from a seed produces bit-identical request lines — and
    therefore identical space digests — on every run, which is what
    makes the persistent cache hit across daemon restarts.  Only the
    decimal form relies on [%.17g] ({!Core.Prelude.Jsonl}) to
    round-trip a double. *)

type op =
  | Zeta
  | Phi
  | Gamma of float  (** the separation [r > 0] *)
  | Summarize
  | Estimate of { nodes : int; replicates : int; seed : int }
      (** stratified {!Bg_decay.Estimators.zeta} — for spaces too large
          for the exact sweep *)
  | Ping
      (** health probe: answered at admission (never queued) with
          uptime, queue depth, hit rate, degraded-mode and SLO status,
          plus supervisor lineage (restarts, cumulative uptime) *)
  | Metrics
      (** live telemetry scrape: answered at admission with a full
          snapshot of the server's metrics registry (counters, gauges,
          histogram buckets) — what [bg top] polls *)

type space_spec =
  | Inline of string * float array array
      (** name, decay rows; [f64] or [matrix] on the wire *)
  | Csv of string  (** CSV text, as accepted by {!Bg_decay.Decay_io.of_csv} *)
  | File of string  (** path to a CSV or raw-binary matrix on the server *)

type trace_context = { trace_id : string; parent_span : int }
(** Cross-process trace identity.  [trace_id] names the logical request
    across every process it touches; [parent_span] is the sender's span
    id in its own trace file (0 = unknown), which lets
    [Obs_tools.Trace.merge] re-parent the server's spans under the
    client's.  Serialized as top-level [trace_id] / [parent_span] wire
    fields, omitted when absent, so pre-tracing lines parse unchanged. *)

type request = {
  id : string;
  op : op;
  space : space_spec option;
  trace : trace_context option;
}
(** [space] is [None] only for {!Ping} / {!Metrics}; every analysis op
    requires one. *)

type cache_outcome =
  | Hit  (** answered from the shared store (memory or disk) *)
  | Miss  (** computed by this request *)
  | Coalesced
      (** computed once by a concurrent duplicate in the same batch *)

type response =
  | Done of {
      id : string;
      op_name : string;
      result : Core.Prelude.Jsonl.t;
      cache : cache_outcome;
      queue_wait_s : float;  (** admission to batch start *)
      batch : int;  (** id of the batch that served it *)
      elapsed_s : float;  (** admission to response *)
      degraded : bool;
          (** answered by the estimator tier under load; the result
              carries its confidence interval *)
      trace : trace_context option;  (** echo of the request's context *)
    }
  | Rejected of {
      id : string;
      reason : string;
      trace : trace_context option;
    }  (** shed by admission control; resubmit later *)
  | Failed of { id : string; reason : string; trace : trace_context option }

val op_name : op -> string
(** ["zeta"], ["phi"], ["gamma"], ["summarize"], ["estimate"],
    ["ping"], ["metrics"]. *)

val op_key : op -> string
(** The op's contribution to the cache key: includes every parameter
    that changes the result (gamma's [r], the estimator design), so
    distinct questions about one space never collide in the store. *)

val cache_outcome_name : cache_outcome -> string
val response_id : response -> string

val response_trace : response -> trace_context option
(** The trace context echoed on any response variant. *)

val request_to_string : request -> string
(** One JSONL line (no trailing newline); a square inline space goes
    out as [f64]. *)

val request_of_string : string -> (request, string) result
(** Parse one request line; [Error] carries a one-line reason suitable
    for a [Failed] response. *)

val request_to_json : request -> Core.Prelude.Jsonl.t

val response_to_string : response -> string
val response_of_string : string -> (response, string) result
