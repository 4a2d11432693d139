(* The JSONL wire schema of `bg serve`.

   One request per line in, one response per line out.  Requests carry
   the decay space inline or by file path, so the daemon never needs
   shared state with its clients beyond the stream itself.  An inline
   space is written as its n·n cells in base64 little-endian float64
   ("f64"); the decimal "matrix" rows and CSV text are still read.
   Responses are typed: a request always gets exactly one of ok /
   rejected / error back, and overload is a first-class answer (status
   "rejected"), never a hung connection.

   Ping is the one op with no space: a health probe answered at
   admission (never queued), whose result reports uptime, queue depth,
   hit rate and degraded-mode status.

   A Done response may additionally carry degraded:true — the answer
   came from the estimator tier (with its confidence interval in the
   result) rather than an exact sweep, because the server was above its
   load watermark.  The flag is omitted when false, so pre-resilience
   response lines parse identically.

   All parsing goes through Core.Prelude.Jsonl.  An f64 space carries
   its cells' bits themselves, so a workload generated from a seed
   produces bit-identical request lines — and therefore identical space
   digests — on every run, which is what makes the persistent cache hit
   across restarts.  Only the decimal form relies on %.17g to round-trip
   a double. *)

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

(* The f64 payload of a square matrix: its n·n cells, row-major, as
   little-endian float64 bytes.  [None] for ragged rows, which go out in
   decimal so that the server's shape check names what is wrong. *)
let f64_cells rows =
  let n = Array.length rows in
  if Array.exists (fun row -> Array.length row <> n) rows then None
  else begin
    let b = Bytes.create (8 * n * n) in
    for i = 0 to n - 1 do
      let row = rows.(i) in
      for k = 0 to n - 1 do
        Bytes.set_int64_le b (8 * ((i * n) + k)) (Int64.bits_of_float row.(k))
      done
    done;
    Some (Bytes.unsafe_to_string b)
  end

let space_to_json = function
  | Inline (name, rows) -> (
      match f64_cells rows with
      | Some cells ->
          J.Obj
            [ ("name", J.Str name);
              ("n", J.Num (float_of_int (Array.length rows)));
              ("f64", J.Str (J.base64_encode cells)) ]
      | None ->
          J.Obj
            [ ("name", J.Str name);
              ( "matrix",
                J.Arr
                  (Array.to_list rows
                  |> List.map (fun row ->
                         J.Arr
                           (Array.to_list row |> List.map (fun v -> J.Num v))))
              ) ])
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

(* f64 payloads are decoded into one reused buffer per domain, so a
   request allocates only its rows. *)
let f64_scratch = Core.Prelude.Scratch.create ()

(* The rows of an f64 space whose base64 text is the [len] bytes of
   [text] from [pos].  [n] must be a whole number a double holds
   exactly, and the payload exactly 8·n·n bytes, checked by division so
   that no n can overflow the product. *)
let f64_rows j (text, pos, len) =
  match J.member "n" j with
  | Some (J.Num v) when Float.is_integer v && v >= 0. && v < 0x1p53 -> (
      let n = int_of_float v in
      let buf = Core.Prelude.Scratch.bytes f64_scratch (len / 4 * 3) in
      match J.base64_decode_into text pos len buf with
      | exception J.Bad e -> Error ("space.f64: " ^ e)
      | got ->
          let cells = got / 8 in
          if
            got mod 8 <> 0
            || not (if n = 0 then cells = 0 else cells mod n = 0 && cells / n = n)
          then Error (Printf.sprintf "space.f64: %d bytes for n = %d" got n)
          else
            Ok
              (Array.init n (fun i ->
                   let row = Array.create_float n in
                   for k = 0 to n - 1 do
                     row.(k) <-
                       Int64.float_of_bits
                         (Bytes.get_int64_le buf (8 * ((i * n) + k)))
                   done;
                   row)))
  | Some _ -> Error "space.n: not a whole number >= 0"
  | None -> Error "space.f64: missing n"

(* [left] locates the f64 text when [Jsonl.parse_in_place] left it in
   the request line; the member then reads [Str ""]. *)
let space_of_json ?left j =
  let name () = Option.value (J.mem_str "name" j) ~default:"inline" in
  match
    (J.member "f64" j, J.member "matrix" j, J.mem_str "csv" j, J.mem_str "file" j)
  with
  | Some (J.Str text), _, _, _ ->
      let src =
        match left with
        | Some src -> src
        | None -> (text, 0, String.length text)
      in
      Result.map (fun rows -> Inline (name (), rows)) (f64_rows j src)
  | Some _, _, _, _ -> Error "space.f64: not a string"
  | None, Some (J.Arr rows), _, _ ->
      let row_of = function
        | J.Arr cells ->
            cells
            |> List.map (function
                 | J.Num v -> v
                 | _ -> failwith "space.matrix: non-numeric cell")
            |> Array.of_list
        | _ -> failwith "space.matrix: row is not an array"
      in
      Ok (Inline (name (), Array.of_list (List.map row_of rows)))
  | None, _, Some text, _ -> Ok (Csv text)
  | None, _, _, Some path -> Ok (File path)
  | _ -> Error "space: need one of f64 / matrix / csv / file"

let int_field name j ~default =
  match J.mem_num name j with
  | None -> default
  | Some v -> int_of_float v

let request_of_json_at ?left j =
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
              match space_of_json ?left space_j with
              | Error e -> Error e
              | exception Failure e -> Error e
              | Ok space -> Ok { id; op; space = Some space; trace })))

(* The f64 text, most of a request line's bytes, is decoded where it
   lies in the line rather than copied out first. *)
let request_of_string line =
  match J.parse_in_place ~path:[ "space"; "f64" ] line with
  | exception J.Bad msg -> Error ("malformed JSON: " ^ msg)
  | j, left ->
      request_of_json_at
        ?left:(Option.map (fun (pos, len) -> (line, pos, len)) left)
        j

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
