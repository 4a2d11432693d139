(* The JSONL wire schema of `bg serve`.

   One request per line in, one response per line out.  Requests carry
   the decay space inline (matrix rows or CSV text) or by file path, so
   the daemon never needs shared state with its clients beyond the
   stream itself.  Responses are typed: a request always gets exactly
   one of ok / rejected / error back, and overload is a first-class
   answer (status "rejected"), never a hung connection.

   Ping is the one op with no space: a health probe answered at
   admission (never queued), whose result reports uptime, queue depth,
   hit rate and degraded-mode status.

   A Done response may additionally carry degraded:true — the answer
   came from the estimator tier (with its confidence interval in the
   result) rather than an exact sweep, because the server was above its
   load watermark.  The flag is omitted when false, so pre-resilience
   response lines parse identically.

   All parsing goes through Core.Prelude.Jsonl (floats round-trip via
   %.17g), so a workload generated from a seed produces bit-identical
   request lines — and therefore identical space digests — on every
   run, which is what makes the persistent cache hit across restarts. *)

module J = Core.Prelude.Jsonl

type op =
  | Zeta
  | Phi
  | Gamma of float
  | Summarize
  | Estimate of { nodes : int; replicates : int; seed : int }
  | Ping
  | Metrics

type space_spec =
  | Inline of string * float array array
  | Csv of string
  | File of string

(* Trace context rides every request and is echoed on its responses:
   [trace_id] names the logical request across every process it touches;
   [parent_span] is the sender's span id, so the server's spans can be
   re-parented under the client's when trace files are merged
   (Obs_tools.Trace.merge).  Both fields are omitted from the wire when
   absent, so pre-tracing lines parse unchanged. *)
type trace_context = { trace_id : string; parent_span : int }

type request = {
  id : string;
  op : op;
  space : space_spec option;
  trace : trace_context option;
}

type cache_outcome = Hit | Miss | Coalesced

type response =
  | Done of {
      id : string;
      op_name : string;
      result : J.t;
      cache : cache_outcome;
      queue_wait_s : float;
      batch : int;
      elapsed_s : float;
      degraded : bool;
      trace : trace_context option;
    }
  | Rejected of { id : string; reason : string; trace : trace_context option }
  | Failed of { id : string; reason : string; trace : trace_context option }

let op_name = function
  | Zeta -> "zeta"
  | Phi -> "phi"
  | Gamma _ -> "gamma"
  | Summarize -> "summarize"
  | Estimate _ -> "estimate"
  | Ping -> "ping"
  | Metrics -> "metrics"

(* The cache key suffix: every parameter that changes the result must be
   part of it (gamma's separation, the estimator design), so distinct
   questions about one space never collide in the store. *)
let op_key = function
  | Zeta -> "zeta"
  | Phi -> "phi"
  | Gamma r -> Printf.sprintf "gamma:%.17g" r
  | Summarize -> "summarize"
  | Estimate { nodes; replicates; seed } ->
      Printf.sprintf "estimate:%d:%d:%d" nodes replicates seed
  | Ping -> "ping"
  | Metrics -> "metrics"

let cache_outcome_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Coalesced -> "coalesced"

let cache_outcome_of_name = function
  | "hit" -> Some Hit
  | "miss" -> Some Miss
  | "coalesced" -> Some Coalesced
  | _ -> None

let response_id = function
  | Done { id; _ } | Rejected { id; _ } | Failed { id; _ } -> id

let response_trace = function
  | Done { trace; _ } | Rejected { trace; _ } | Failed { trace; _ } -> trace

(* -------------------------------------------------------- trace context *)

let trace_fields = function
  | None -> []
  | Some { trace_id; parent_span } ->
      ("trace_id", J.Str trace_id)
      ::
      (if parent_span > 0 then
         [ ("parent_span", J.Num (float_of_int parent_span)) ]
       else [])

let trace_of_json j =
  match J.mem_str "trace_id" j with
  | None -> None
  | Some trace_id ->
      let parent_span =
        match J.mem_num "parent_span" j with
        | Some v when Float.is_finite v && v > 0. -> int_of_float v
        | _ -> 0
      in
      Some { trace_id; parent_span }

(* ------------------------------------------------------------ requests *)

let space_to_json = function
  | Inline (name, rows) ->
      J.Obj
        [ ("name", J.Str name);
          ( "matrix",
            J.Arr
              (Array.to_list rows
              |> List.map (fun row ->
                     J.Arr (Array.to_list row |> List.map (fun v -> J.Num v))))
          ) ]
  | Csv text -> J.Obj [ ("csv", J.Str text) ]
  | File path -> J.Obj [ ("file", J.Str path) ]

let request_to_json r =
  let base = [ ("id", J.Str r.id); ("op", J.Str (op_name r.op)) ] in
  let params =
    match r.op with
    | Gamma sep -> [ ("r", J.Num sep) ]
    | Estimate { nodes; replicates; seed } ->
        [ ("nodes", J.Num (float_of_int nodes));
          ("replicates", J.Num (float_of_int replicates));
          ("seed", J.Num (float_of_int seed)) ]
    | Zeta | Phi | Summarize | Ping | Metrics -> []
  in
  let space =
    match r.space with
    | None -> []
    | Some s -> [ ("space", space_to_json s) ]
  in
  J.Obj (base @ params @ trace_fields r.trace @ space)

let request_to_string r = J.to_string (request_to_json r)

let space_of_json j =
  match (J.member "matrix" j, J.mem_str "csv" j, J.mem_str "file" j) with
  | Some (J.Arr rows), _, _ ->
      let row_of = function
        | J.Arr cells ->
            cells
            |> List.map (function
                 | J.Num v -> v
                 | _ -> failwith "space.matrix: non-numeric cell")
            |> Array.of_list
        | _ -> failwith "space.matrix: row is not an array"
      in
      let name =
        Option.value (J.mem_str "name" j) ~default:"inline"
      in
      Ok (Inline (name, Array.of_list (List.map row_of rows)))
  | _, Some text, _ -> Ok (Csv text)
  | _, _, Some path -> Ok (File path)
  | _ -> Error "space: need one of matrix / csv / file"

let int_field name j ~default =
  match J.mem_num name j with
  | None -> default
  | Some v -> int_of_float v

let request_of_json j =
  match (J.mem_str "id" j, J.mem_str "op" j) with
  | None, _ -> Error "request: missing id"
  | _, None -> Error "request: missing op"
  | Some id, Some op -> (
      match
        match op with
        | "zeta" -> Ok Zeta
        | "phi" -> Ok Phi
        | "summarize" -> Ok Summarize
        | "ping" -> Ok Ping
        | "metrics" -> Ok Metrics
        | "gamma" -> (
            match J.mem_num "r" j with
            | Some r when r > 0. && Float.is_finite r -> Ok (Gamma r)
            | Some _ -> Error "gamma: r must be finite and positive"
            | None -> Error "gamma: missing r")
        | "estimate" ->
            Ok
              (Estimate
                 {
                   nodes = int_field "nodes" j ~default:32;
                   replicates = int_field "replicates" j ~default:6;
                   seed = int_field "seed" j ~default:0;
                 })
        | other -> Error (Printf.sprintf "unknown op %S" other)
      with
      | Error e -> Error e
      | Ok op -> (
          let trace = trace_of_json j in
          match J.member "space" j with
          | None ->
              if op = Ping || op = Metrics then Ok { id; op; space = None; trace }
              else Error "request: missing space"
          | Some space_j -> (
              match space_of_json space_j with
              | Error e -> Error e
              | exception Failure e -> Error e
              | Ok space -> Ok { id; op; space = Some space; trace })))

let request_of_string line =
  match J.parse line with
  | exception J.Bad msg -> Error ("malformed JSON: " ^ msg)
  | j -> request_of_json j

(* ----------------------------------------------------------- responses *)

let response_to_json = function
  | Done
      { id; op_name; result; cache; queue_wait_s; batch; elapsed_s; degraded;
        trace }
    ->
      J.Obj
        ([ ("id", J.Str id); ("status", J.Str "ok"); ("op", J.Str op_name);
           ("cache", J.Str (cache_outcome_name cache));
           ("queue_wait_s", J.Num queue_wait_s);
           ("batch", J.Num (float_of_int batch));
           ("elapsed_s", J.Num elapsed_s) ]
        @ (if degraded then [ ("degraded", J.Bool true) ] else [])
        @ trace_fields trace
        @ [ ("result", result) ])
  | Rejected { id; reason; trace } ->
      J.Obj
        ([ ("id", J.Str id); ("status", J.Str "rejected");
           ("reason", J.Str reason) ]
        @ trace_fields trace)
  | Failed { id; reason; trace } ->
      J.Obj
        ([ ("id", J.Str id); ("status", J.Str "error");
           ("reason", J.Str reason) ]
        @ trace_fields trace)

let response_to_string r = J.to_string (response_to_json r)

let response_of_json j =
  match (J.mem_str "id" j, J.mem_str "status" j) with
  | None, _ -> Error "response: missing id"
  | _, None -> Error "response: missing status"
  | Some id, Some "rejected" ->
      Ok
        (Rejected
           { id; reason = Option.value (J.mem_str "reason" j) ~default:"";
             trace = trace_of_json j })
  | Some id, Some "error" ->
      Ok
        (Failed
           { id; reason = Option.value (J.mem_str "reason" j) ~default:"";
             trace = trace_of_json j })
  | Some id, Some "ok" -> (
      match
        ( J.mem_str "op" j,
          Option.bind (J.mem_str "cache" j) cache_outcome_of_name,
          J.member "result" j )
      with
      | Some op_name, Some cache, Some result ->
          Ok
            (Done
               {
                 id;
                 op_name;
                 result;
                 cache;
                 queue_wait_s =
                   Option.value (J.mem_num "queue_wait_s" j) ~default:0.;
                 batch = int_field "batch" j ~default:0;
                 elapsed_s =
                   Option.value (J.mem_num "elapsed_s" j) ~default:0.;
                 degraded =
                   Option.value (J.mem_bool "degraded" j) ~default:false;
                 trace = trace_of_json j;
               })
      | _ -> Error "ok response: missing op / cache / result")
  | Some _, Some other -> Error (Printf.sprintf "unknown status %S" other)

let response_of_string line =
  match J.parse line with
  | exception J.Bad msg -> Error ("malformed JSON: " ^ msg)
  | j -> response_of_json j
