(* The serving layer: wire protocol round-trips, the zipf workload
   generator (skew, bit-reproducibility, analytic cache floor), the
   batching engine (coalescing, overload shedding, error isolation,
   serve-vs-direct result identity), the persistent store (LRU cap,
   corruption tolerance, warm-restart hit rate) and the end-to-end pipe
   driver against a real spawned daemon. *)

module P = Bg_serve.Protocol
module Server = Bg_serve.Server
module Store = Bg_serve.Store
module L = Bg_serve.Loadgen
module J = Core.Prelude.Jsonl
module D = Core.Decay.Decay_space
module Met = Core.Decay.Metricity
module Fad = Core.Decay.Fading
module Ctx = Core.Decay.Ctx
module Memo = Core.Prelude.Memo
module Rng = Core.Prelude.Rng
module Obs = Core.Prelude.Obs
open Testutil

let check_exact_float msg a b = check_true msg (Float.equal a b)

let tiny_matrix = [| [| 0.; 1.5; 2. |]; [| 1.2; 0.; 3. |]; [| 2.; 1.; 0. |] |]

let req ?(id = "r1") op =
  { P.id; op; space = Some (P.Inline ("tiny", tiny_matrix)); trace = None }

let engine ?(batch_size = 32) ?(max_queue = 256) ?request_timeout_s ?store
    ?degrade ?chaos ?slo ?lineage () =
  Server.create
    {
      Server.ctx = Ctx.make ~jobs:1 ();
      batch_size;
      max_queue;
      request_timeout_s;
      store;
      degrade;
      chaos;
      slo;
      telemetry = None;
      lineage;
    }

(* Feed requests through the engine one batch at a time (no windowing);
   returns responses in order. *)
let serve_all ?store reqs =
  let t = engine ?store () in
  let now = Obs.now_s () in
  List.concat_map
    (fun batch -> Server.process_batch t (List.map (fun r -> (r, now)) batch))
    [ reqs ]

(* Every response line [run_loop] writes for [lines], in order. *)
let run_lines t lines =
  let remaining = ref lines and got = ref [] in
  let read ~block:_ =
    match !remaining with
    | [] -> `Eof
    | line :: rest ->
        remaining := rest;
        `Req (line, fun resp -> got := resp :: !got)
  in
  ignore (Server.run_loop t { Server.read; flush = (fun () -> ()) });
  List.rev !got

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Every loadgen report counts each request once: none resolves twice,
   none resolves unsent, and each resolution leaves one SLO sample. *)
let counted_once (r : L.report) =
  r.L.answered + r.L.gave_up <= r.L.sent
  && List.length r.L.slo_samples = r.L.answered + r.L.gave_up

let checked (r : L.report) =
  check_true
    (Printf.sprintf "sent %d, answered %d, gave up %d, %d SLO samples"
       r.L.sent r.L.answered r.L.gave_up (List.length r.L.slo_samples))
    (counted_once r);
  r

(* ------------------------------------------------------------ protocol *)

let test_request_round_trip () =
  let reqs =
    [
      req P.Zeta;
      req ~id:"p" P.Phi;
      req ~id:"g" (P.Gamma 4.);
      req ~id:"s" P.Summarize;
      req ~id:"e" (P.Estimate { nodes = 8; replicates = 3; seed = 9 });
      { P.id = "c"; op = P.Zeta; space = Some (P.Csv "0,2\n2,0"); trace = None };
      { P.id = "f"; op = P.Phi; space = Some (P.File "/tmp/x.csv"); trace = None };
      { P.id = "hp"; op = P.Ping; space = None; trace = None };
    ]
  in
  List.iter
    (fun r ->
      match P.request_of_string (P.request_to_string r) with
      | Error e -> Alcotest.failf "round-trip failed: %s" e
      | Ok r' ->
          check_true "round-trip preserves the request" (r = r'))
    reqs

let test_request_rejects_garbage () =
  let bad line =
    match P.request_of_string line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" line
  in
  bad "not json";
  bad {|{"op":"zeta","space":{"csv":"0"}}|};
  (* no id *)
  bad {|{"id":"x","space":{"csv":"0"}}|};
  (* no op *)
  bad {|{"id":"x","op":"zeta"}|};
  (* no space *)
  bad {|{"id":"x","op":"warp","space":{"csv":"0"}}|};
  bad {|{"id":"x","op":"gamma","space":{"csv":"0"}}|};
  (* gamma needs r *)
  bad {|{"id":"x","op":"gamma","r":-1,"space":{"csv":"0"}}|};
  bad {|{"id":"x","op":"zeta","space":{}}|}

let test_response_round_trip () =
  let resps =
    [
      P.Done
        {
          id = "a";
          op_name = "zeta";
          result = J.Obj [ ("zeta", J.Num 1.5) ];
          cache = P.Coalesced;
          queue_wait_s = 0.25;
          batch = 7;
          elapsed_s = 0.5;
          degraded = false;
          trace = Some { P.trace_id = "t1-r000001"; parent_span = 12 };
        };
      P.Done
        {
          id = "d";
          op_name = "zeta";
          result = J.Obj [ ("zeta_lower", J.Num 1.2) ];
          cache = P.Miss;
          queue_wait_s = 0.;
          batch = 9;
          elapsed_s = 0.01;
          degraded = true;
          trace = None;
        };
      P.Rejected { id = "b"; reason = "queue full (8 pending)"; trace = None };
      P.Failed { id = "c"; reason = "boom"; trace = None };
    ]
  in
  List.iter
    (fun r ->
      match P.response_of_string (P.response_to_string r) with
      | Error e -> Alcotest.failf "round-trip failed: %s" e
      | Ok r' -> check_true "round-trip preserves the response" (r = r'))
    resps

(* ------------------------------------------------------ f64 wire form *)

(* [r] with its space in the decimal [matrix] form, which the wire still
   accepts but no longer writes for square matrices. *)
let decimal_line (r : P.request) =
  match (P.request_to_json r, r.P.space) with
  | J.Obj fields, Some (P.Inline (name, rows)) ->
      let matrix =
        J.Arr
          (Array.to_list rows
          |> List.map (fun row ->
                 J.Arr (Array.to_list row |> List.map (fun v -> J.Num v))))
      in
      J.to_string
        (J.Obj
           (List.map
              (fun (k, v) ->
                if k = "space" then
                  (k, J.Obj [ ("name", J.Str name); ("matrix", matrix) ])
                else (k, v))
              fields))
  | _ -> invalid_arg "decimal_line: inline requests only"

(* The base64 is Python's
   base64.b64encode(struct.pack('<9d', 0, 1.5, 2, 1.2, 0, 3, 2, 1, 0)). *)
let tiny_f64_line =
  {|{"id":"r1","op":"zeta","space":{"name":"tiny","n":3,"f64":"AAAAAAAAAAAAAAAAAAD4PwAAAAAAAABAMzMzMzMz8z8AAAAAAAAAAAAAAAAAAAhAAAAAAAAAAEAAAAAAAADwPwAAAAAAAAAA"}}|}

let test_f64_bytes_pinned () =
  Alcotest.(check string) "tiny zeta request" tiny_f64_line
    (P.request_to_string (req P.Zeta));
  check_true "the pinned line parses back"
    (P.request_of_string tiny_f64_line = Ok (req P.Zeta));
  check_true "the decimal form still parses to the same request"
    (P.request_of_string
       {|{"id":"r1","op":"zeta","space":{"name":"tiny","matrix":[[0,1.5,2],[1.2,0,3],[2,1,0]]}}|}
    = Ok (req P.Zeta))

(* Cells a decimal writer loses or that a codec could mangle: signed
   zeros, subnormals, the extremes, infinities and NaN payloads. *)
let special_cells =
  [| 0.; -0.; 5e-324; -5e-324; 2.2250738585072009e-308; Float.min_float;
     Float.max_float; -.Float.max_float; infinity; neg_infinity; Float.nan;
     Int64.float_of_bits 0x7ff0_0000_0000_0001L;
     Int64.float_of_bits 0xfff8_dead_beef_0001L |]

let test_f64_round_trip =
  qcheck ~count:100 "f64 cells round-trip bit for bit"
    QCheck.(pair (int_bound 40) small_int)
    (fun (n, seed) ->
      let g = rng seed in
      let cell () =
        match Rng.int g 3 with
        | 0 -> Rng.choice g special_cells
        | 1 -> Int64.float_of_bits (Rng.int64 g)
        | _ -> Rng.float g 100.
      in
      let rows = Array.init n (fun _ -> Array.init n (fun _ -> cell ())) in
      let r =
        { P.id = "q"; op = P.Zeta; space = Some (P.Inline ("q", rows));
          trace = None }
      in
      let same_bits x y =
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      in
      match P.request_of_string (P.request_to_string r) with
      | Ok { P.space = Some (P.Inline ("q", back)); _ } ->
          Array.length back = n
          && Array.for_all2
               (fun a b -> Array.length b = n && Array.for_all2 same_bits a b)
               rows back
      | _ -> false)

(* One space sent once as a decimal line and once as an f64 line: one
   store key, so the second is a hit, and the same result JSON. *)
let test_decimal_and_f64_share_key_and_answer () =
  let r =
    List.hd
      (L.generate
         { L.seed = 3; requests = 1; spaces = 1; nodes = 12; zipf_s = 1.1 })
  in
  let f64 = P.request_to_string r and decimal = decimal_line r in
  check_true "the f64 line is the shorter"
    (String.length f64 < String.length decimal);
  let parsed line =
    match P.request_of_string line with
    | Ok x -> x
    | Error e -> Alcotest.failf "refused: %s" e
  in
  check_true "both lines parse to the request"
    (parsed f64 = r && parsed decimal = r);
  let key line =
    match (parsed line).P.space with
    | Some (P.Inline (name, rows)) ->
        Digest.to_hex (D.digest (D.of_matrix ~name rows))
        ^ "/" ^ P.op_key r.P.op
    | _ -> Alcotest.fail "not inline"
  in
  Alcotest.(check string) "one store key" (key decimal) (key f64);
  let store = Store.open_ () in
  let t = engine ~store () in
  let answer line =
    match run_lines t [ line ] with
    | [ resp ] -> (
        match P.response_of_string resp with
        | Ok (P.Done { cache; result; _ }) -> (cache, J.to_string result)
        | _ -> Alcotest.failf "not an ok answer: %s" resp)
    | l -> Alcotest.failf "%d answers to one line" (List.length l)
  in
  let cache_d, result_d = answer decimal in
  let cache_f, result_f = answer f64 in
  check_true "the decimal line computes" (cache_d = P.Miss);
  check_true "the f64 line hits its entry" (cache_f = P.Hit);
  Alcotest.(check string) "same result JSON" result_d result_f;
  check_int "one store entry" 1 (Store.length store)

(* Ragged rows have no f64 form: they go out in decimal, and the
   server's shape check answers them. *)
let test_ragged_rows_go_decimal () =
  let ragged =
    { P.id = "rg"; op = P.Zeta;
      space = Some (P.Inline ("rg", [| [| 0.; 1. |]; [| 1. |] |]));
      trace = None }
  in
  let line = P.request_to_string ragged in
  check_true "decimal form" (contains ~sub:{|"matrix"|} line);
  check_false "no f64 field" (contains ~sub:{|"f64"|} line);
  match run_lines (engine ()) [ line ] with
  | [ resp ] -> (
      match P.response_of_string resp with
      | Ok (P.Failed { id = "rg"; reason; _ }) ->
          check_true
            (Printf.sprintf "reason %S names the short row" reason)
            (contains ~sub:"row 1 has 1 cells" reason)
      | _ -> Alcotest.failf "expected an error, got %s" resp)
  | l -> Alcotest.failf "%d answers to one line" (List.length l)

(* ---------------------------------------------------------------- fuzz *)

(* Each line must be refused by the parser, typed and without raising,
   and answered by [run_loop] with exactly one error. *)
let check_refused what lines =
  List.iter
    (fun line ->
      match P.request_of_string line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: accepted %S" what line
      | exception e ->
          Alcotest.failf "%s: %S raised %s" what line (Printexc.to_string e))
    lines;
  let answers = run_lines (engine ()) lines in
  check_int (what ^ ": one answer per line") (List.length lines)
    (List.length answers);
  List.iter
    (fun resp ->
      match P.response_of_string resp with
      | Ok (P.Failed _) -> ()
      | _ -> Alcotest.failf "%s: expected an error, got %s" what resp)
    answers

let test_f64_truncated_at_every_byte () =
  check_refused "truncated"
    (List.init (String.length tiny_f64_line) (fun k ->
         String.sub tiny_f64_line 0 k))

let test_f64_mangled_fields () =
  let text = J.base64_encode (String.make 72 '\000') in
  let line ?(name = "m") fields =
    J.to_string
      (J.Obj
         [ ("id", J.Str name); ("op", J.Str "zeta");
           ("space", J.Obj fields) ])
  in
  let f64 n t = [ ("n", n); ("f64", J.Str t) ] in
  let three = J.Num 3. in
  let set k c = String.mapi (fun i x -> if i = k then c else x) text in
  check_refused "mangled"
    [ (* bytes outside the alphabet, URL-safe ones included *)
      line (f64 three (set 10 '!'));
      line (f64 three (set 10 '-'));
      line (f64 three (set 10 '_'));
      line (f64 three (set 95 '\255'));
      (* padding where none may be *)
      line (f64 three (set 10 '='));
      line (f64 three (set 0 '='));
      (* lengths that are not a multiple of 4 *)
      line (f64 three (String.sub text 0 95));
      line (f64 three (text ^ "A"));
      (* decoded lengths other than 8·n·n *)
      line (f64 (J.Num 2.) text);
      line (f64 (J.Num 4.) text);
      line (f64 (J.Num 0.) text);
      line (f64 three (String.sub text 0 92 ^ "AAA="));
      line (f64 three "");
      (* n whose 8·n·n overflows to 0: the empty payload must not pass *)
      line (f64 (J.Num 2147483648.) "");
      line (f64 (J.Num 4294967296.) "");
      (* n that is not a whole number >= 0 *)
      line (f64 (J.Num (-3.)) text);
      line (f64 (J.Num 2.5) text);
      line (f64 (J.Num 1e300) text);
      line (f64 (J.Str "3") text);
      line (f64 J.Null text);
      line [ ("f64", J.Str text) ];
      (* an f64 that is not a string *)
      line [ ("n", three); ("f64", J.Num 12.) ];
      line [ ("n", three); ("f64", J.Null) ];
      line [ ("n", three); ("f64", J.Arr [ J.Str text ]) ] ]

(* The op key must separate different questions about the same space. *)
let test_op_key_separates_params () =
  check_true "gamma keys differ by r" (P.op_key (P.Gamma 2.) <> P.op_key (P.Gamma 4.));
  check_true "estimate keys differ by design"
    (P.op_key (P.Estimate { nodes = 8; replicates = 3; seed = 0 })
    <> P.op_key (P.Estimate { nodes = 8; replicates = 4; seed = 0 }));
  check_true "ops key apart" (P.op_key P.Zeta <> P.op_key P.Phi)

(* ---------------------------------------------------------------- zipf *)

let test_zipf_cdf_shape () =
  let cdf = L.zipf_cdf ~s:1.1 ~n:50 in
  check_int "cdf length" 50 (Array.length cdf);
  check_float ~eps:1e-12 "cdf ends at 1" 1. cdf.(49);
  for i = 1 to 49 do
    check_true "cdf is increasing" (cdf.(i) > cdf.(i - 1))
  done;
  (* Uniform special case: s = 0 gives equal mass. *)
  let u = L.zipf_cdf ~s:0. ~n:4 in
  check_float ~eps:1e-12 "s=0 is uniform" 0.25 u.(0)

(* Empirical skew matches the nominal exponent: regress log(count) on
   log(rank) over the well-populated head and compare the slope. *)
let test_zipf_skew_matches_exponent () =
  let s = 1.2 and n = 50 and draws = 200_000 in
  let cdf = L.zipf_cdf ~s ~n in
  let g = rng 42 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = L.zipf_pick g cdf in
    counts.(k) <- counts.(k) + 1
  done;
  let head = 15 in
  let xs = Array.init head (fun k -> log (float_of_int (k + 1))) in
  let ys = Array.init head (fun k -> log (float_of_int counts.(k))) in
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int head in
  let mx = mean xs and my = mean ys in
  let num = ref 0. and den = ref 0. in
  for i = 0 to head - 1 do
    num := !num +. ((xs.(i) -. mx) *. (ys.(i) -. my));
    den := !den +. ((xs.(i) -. mx) *. (xs.(i) -. mx))
  done;
  let slope = !num /. !den in
  check_true
    (Printf.sprintf "fitted slope %.3f within 0.1 of -%.1f" slope s)
    (Float.abs (slope +. s) < 0.1)

let test_zipf_pick_is_deterministic () =
  let cdf = L.zipf_cdf ~s:1.1 ~n:20 in
  let draw seed = List.init 100 (fun _ -> L.zipf_pick (rng seed) cdf) in
  check_true "same seed, same picks" (draw 5 = draw 5);
  check_true "picks in range"
    (List.for_all (fun k -> k >= 0 && k < 20) (draw 5))

(* ------------------------------------------------------------ workload *)

let small_workload =
  { L.seed = 3; requests = 120; spaces = 15; nodes = 8; zipf_s = 1.1 }

let test_generate_is_bit_reproducible () =
  let lines w = List.map P.request_to_string (L.generate w) in
  let a = lines small_workload and b = lines small_workload in
  check_true "identical request lines from one seed" (a = b);
  let c = lines { small_workload with seed = 4 } in
  check_true "different seed, different trace" (a <> c)

let test_generate_validates () =
  let bad w =
    match L.generate w with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "accepted a bad workload"
  in
  bad { small_workload with requests = 0 };
  bad { small_workload with spaces = 0 };
  bad { small_workload with nodes = 2 };
  bad { small_workload with zipf_s = -1. }

(* Replay is reproducible at any concurrency: the same trace driven at
   window 1 and window 16 yields the same id -> result mapping. *)
let test_replay_reproducible_at_any_concurrency () =
  let reqs = L.generate small_workload in
  let run window =
    let t = engine ~store:(Store.open_ ()) () in
    let tbl = Hashtbl.create 64 in
    let lines = List.map P.request_to_string reqs in
    let remaining = ref lines in
    let inflight = ref 0 in
    let read ~block:_ =
      match !remaining with
      | [] -> `Eof
      | line :: rest ->
          if !inflight >= window then `Nothing
          else begin
            remaining := rest;
            incr inflight;
            `Req
              ( line,
                fun resp ->
                  decr inflight;
                  match P.response_of_string resp with
                  | Ok (P.Done { id; result; _ }) ->
                      Hashtbl.replace tbl id (J.to_string result)
                  | _ -> () )
          end
    in
    ignore (Server.run_loop t { Server.read; flush = (fun () -> ()) });
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  check_true "window 1 and window 16 give identical results"
    (run 1 = run 16)

(* Duplicate-heavy trace: misses = distinct cache keys, everything else
   answered from the store or coalesced — so the hit floor is exactly
   1 - distinct/requests, minus what coalescing absorbed. *)
let test_hit_rate_meets_analytic_floor () =
  let w = { small_workload with requests = 200 } in
  let reqs = L.generate w in
  let distinct =
    List.sort_uniq compare
      (List.map
         (fun r ->
           match r.P.space with
           | Some (P.Inline (name, _)) -> name ^ "/" ^ P.op_key r.P.op
           | _ -> assert false)
         reqs)
    |> List.length
  in
  let t = engine ~store:(Store.open_ ()) () in
  let report = checked (L.drive_inproc ~window:16 t reqs) in
  check_int "all answered" report.L.sent report.L.answered;
  check_int "all ok" report.L.sent report.L.ok;
  check_int "misses = distinct keys" distinct report.L.misses;
  check_int "hits + coalesced cover every repeat"
    (report.L.sent - distinct)
    (report.L.hits + report.L.coalesced);
  let floor =
    float_of_int (report.L.sent - distinct - report.L.coalesced)
    /. float_of_int report.L.sent
  in
  check_true
    (Printf.sprintf "hit rate %.3f >= analytic floor %.3f"
       (L.hit_rate report) floor)
    (L.hit_rate report >= floor -. 1e-9)

(* -------------------------------------------------------------- engine *)

let test_serve_matches_direct_computation () =
  let space = D.of_matrix ~name:"tiny" tiny_matrix in
  let ctx = Ctx.make ~jobs:1 () in
  let get_num field = function
    | P.Done { result; _ } -> Option.get (J.mem_num field result)
    | _ -> Alcotest.fail "expected an ok response"
  in
  match serve_all [ req P.Zeta; req ~id:"g" (P.Gamma 4.) ] with
  | [ zeta_resp; gamma_resp ] ->
      check_exact_float "zeta equals the direct sweep"
        (Met.zeta_witness ~ctx space).value
        (get_num "zeta" zeta_resp);
      check_exact_float "gamma equals the direct kernel"
        (Fad.gamma ~ctx space ~r:4.)
        (get_num "gamma" gamma_resp)
  | other -> Alcotest.failf "expected 2 responses, got %d" (List.length other)

let test_batch_coalesces_duplicates () =
  let reqs = List.init 5 (fun i -> req ~id:(Printf.sprintf "d%d" i) P.Zeta) in
  let responses = serve_all reqs in
  let outcomes =
    List.filter_map
      (function P.Done { cache; _ } -> Some cache | _ -> None)
      responses
  in
  check_int "five answers" 5 (List.length outcomes);
  check_int "exactly one miss" 1
    (List.length (List.filter (( = ) P.Miss) outcomes));
  check_int "four coalesced" 4
    (List.length (List.filter (( = ) P.Coalesced) outcomes))

(* One poisoned request (estimate on a space smaller than its design)
   answers a typed error; its batch-mates are unaffected. *)
let test_error_isolated_to_its_request () =
  let poisoned =
    req ~id:"bad" (P.Estimate { nodes = 64; replicates = 2; seed = 0 })
  in
  match serve_all [ req P.Zeta; poisoned; req ~id:"z2" P.Phi ] with
  | [ P.Done _; P.Failed { id = "bad"; _ }; P.Done _ ] -> ()
  | other ->
      Alcotest.failf "unexpected shapes: %s"
        (String.concat " | " (List.map P.response_to_string other))

(* Unresolvable spaces (bad matrix, missing file) answer errors too. *)
let test_bad_space_answers_error () =
  let bad_matrix =
    { P.id = "m"; op = P.Zeta;
      space = Some (P.Inline ("bad", [| [| 0.; -1. |]; [| 1.; 0. |] |]));
      trace = None }
  in
  let bad_file =
    { P.id = "f"; op = P.Zeta; space = Some (P.File "/nonexistent/nope.csv");
      trace = None }
  in
  match serve_all [ bad_matrix; bad_file; req P.Zeta ] with
  | [ P.Failed { id = "m"; _ }; P.Failed { id = "f"; _ }; P.Done _ ] -> ()
  | other ->
      Alcotest.failf "unexpected shapes: %s"
        (String.concat " | " (List.map P.response_to_string other))

(* Overload: with a tiny queue and an eager client, surplus requests are
   shed with typed rejections, every id is answered exactly once, and
   the queue never exceeds its bound. *)
let test_overload_sheds_with_typed_rejections () =
  let max_queue = 8 in
  let t = engine ~batch_size:4 ~max_queue () in
  let total = 100 in
  let lines =
    List.init total (fun i ->
        P.request_to_string (req ~id:(Printf.sprintf "o%d" i) P.Zeta))
  in
  let remaining = ref lines in
  let answered : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let read ~block:_ =
    match !remaining with
    | [] -> `Eof
    | line :: rest ->
        remaining := rest;
        `Req
          ( line,
            fun resp ->
              match P.response_of_string resp with
              | Ok r ->
                  let id = P.response_id r in
                  if Hashtbl.mem answered id then
                    Alcotest.failf "id %s answered twice" id;
                  Hashtbl.replace answered id
                    (match r with
                    | P.Done _ -> "ok"
                    | P.Rejected _ -> "rejected"
                    | P.Failed _ -> "error")
              | Error e -> Alcotest.failf "bad response line: %s" e )
  in
  let stats = Server.run_loop t { Server.read; flush = (fun () -> ()) } in
  check_int "every id answered exactly once" total (Hashtbl.length answered);
  check_true "some requests were shed" (stats.Server.rejected > 0);
  check_int "accepted + rejected = sent" total
    (stats.Server.accepted + stats.Server.rejected);
  check_true
    (Printf.sprintf "peak queue %d within bound %d" stats.Server.peak_queue
       max_queue)
    (stats.Server.peak_queue <= max_queue);
  check_int "rejections are typed"
    stats.Server.rejected
    (Hashtbl.fold
       (fun _ v acc -> if v = "rejected" then acc + 1 else acc)
       answered 0)

(* Malformed lines answer an error and the stream keeps flowing. *)
let test_malformed_line_does_not_stop_the_stream () =
  let got =
    run_lines (engine ())
      [ "this is not json"; P.request_to_string (req P.Zeta);
        {|{"id":"q","op":"warp","space":{"csv":"0"}}|} ]
  in
  (* Parse errors are answered at admission, before batch-mates compute,
     so only the multiset of outcomes is specified — not their order. *)
  let statuses =
    List.map
      (fun line ->
        match P.response_of_string line with
        | Ok (P.Done _) -> "ok"
        | Ok (P.Failed _) -> "error"
        | Ok (P.Rejected _) -> "rejected"
        | Error _ -> "unparseable")
      got
    |> List.sort compare
  in
  check_true "two errors and one ok" (statuses = [ "error"; "error"; "ok" ])

(* A request that overruns the per-request budget answers a typed error
   while the rest of its batch completes. *)
let test_request_timeout_answers_error () =
  let t = engine ~request_timeout_s:1e-9 () in
  let big =
    let g = rng 11 in
    Array.init 48 (fun i ->
        Array.init 48 (fun j ->
            if i = j then 0. else 0.5 +. Rng.float g 10.))
  in
  let reqs =
    [ { P.id = "slow"; op = P.Zeta; space = Some (P.Inline ("big", big));
        trace = None } ]
  in
  let now = Obs.now_s () in
  match Server.process_batch t (List.map (fun r -> (r, now)) reqs) with
  | [ P.Failed { id = "slow"; reason; _ } ] ->
      check_true "reason mentions the budget"
        (String.length reason > 0)
  | other ->
      Alcotest.failf "unexpected: %s"
        (String.concat " | " (List.map P.response_to_string other))

(* --------------------------------------------------------------- store *)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bg_serve_test_%d_%s" (Unix.getpid ()) name)

let with_tmp name f =
  let path = tmp_path name in
  let rm p = try Sys.remove p with Sys_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      rm path;
      rm (path ^ ".wal"))
    (fun () -> f path)

(* A raw (BGDECAY1) file space is validated like a CSV one: a NaN, inf
   or 0 cell is a typed error naming the cell for every op, and nothing
   reaches the store. *)
let test_raw_file_spaces_are_validated () =
  List.iter
    (fun (bad, shown) ->
      with_tmp "bad.bgdecay" @@ fun path ->
      Core.Decay.Decay_io.save_raw_fn ~n:4
        (fun i j ->
          if i = j then 0.
          else if (i, j) = (0, 1) then bad
          else 2. +. float (i + j))
        path;
      let store = Store.open_ () in
      let t = engine ~store () in
      let lines =
        List.mapi
          (fun k op ->
            P.request_to_string
              { P.id = Printf.sprintf "f%d" k; op; space = Some (P.File path);
                trace = None })
          [ P.Zeta; P.Phi; P.Gamma 1.; P.Summarize ]
      in
      List.iter
        (fun line ->
          match P.response_of_string line with
          | Ok (P.Failed { reason; _ }) ->
              check_true
                (Printf.sprintf "%s cell named: %s" shown reason)
                (contains ~sub:(shown ^ " at (0,1)") reason)
          | _ -> Alcotest.failf "%s raw file answered: %s" shown line)
        (run_lines t lines);
      check_int (shown ^ ": the store gains nothing") 0 (Store.length store))
    [ (Float.nan, "nan"); (Float.infinity, "inf"); (0., "0") ]

let test_store_persists_across_reopen () =
  with_tmp "persist.jsonl" (fun path ->
      let s = Store.open_ ~path () in
      Store.add s "k1" (J.Num 1.);
      Store.add s "k2" (J.Obj [ ("v", J.Str "two") ]);
      Store.flush s;
      let s' = Store.open_ ~path () in
      check_int "both entries restored" 2 (Store.loaded s');
      check_true "k1 round-trips" (Store.find s' "k1" = Some (J.Num 1.));
      check_true "k2 round-trips"
        (Store.find s' "k2" = Some (J.Obj [ ("v", J.Str "two") ])))

let test_store_tolerates_corruption () =
  with_tmp "corrupt.jsonl" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            ("{\"type\":\"bg-serve-store\",\"version\":1}\n"
           ^ "{\"key\":\"good\",\"result\":{\"zeta\":2}}\n"
           ^ "this line is garbage\n" ^ "{\"key\":\"truncated\"\n"
           ^ "{\"no_key\":true}\n"
           ^ "{\"key\":\"also-good\",\"result\":3}\n"));
      let s = Store.open_ ~path () in
      check_int "good entries loaded" 2 (Store.loaded s);
      check_int "damaged lines counted" 3 (Store.corrupt_dropped s);
      check_true "good entry readable"
        (Store.find s "good" = Some (J.Obj [ ("zeta", J.Num 2.) ]));
      (* Missing file is an empty store, not a crash. *)
      let s2 = Store.open_ ~path:(tmp_path "never-written.jsonl") () in
      check_int "missing file loads empty" 0 (Store.loaded s2))

let test_store_lru_cap_and_snapshot_order () =
  with_tmp "lru.jsonl" (fun path ->
      let s = Store.open_ ~max_entries:3 ~path () in
      List.iter
        (fun k -> Store.add s k (J.Str k))
        [ "a"; "b"; "c" ];
      (* Touch a so b is now the least recently used. *)
      ignore (Store.find s "a");
      Store.add s "d" (J.Str "d");
      check_int "capped at 3" 3 (Store.length s);
      check_true "b was evicted (LRU)" (Store.find s "b" = None);
      check_true "a survived (recently used)" (Store.find s "a" <> None);
      check_true "evictions counted" (Store.evictions s >= 1);
      Store.flush s;
      (* The snapshot reproduces both content and LRU order. *)
      let s' = Store.open_ ~max_entries:3 ~path () in
      check_int "reloaded the capped set" 3 (Store.loaded s');
      check_true "d present after reload" (Store.find s' "d" <> None))

(* Per-entry LRU in the underlying Memo: recently used entries survive
   an overflowing insert; only the stalest is dropped. *)
let test_memo_per_entry_lru () =
  let m = Memo.create ~max_size:3 () in
  Memo.set m "a" 1;
  Memo.set m "b" 2;
  Memo.set m "c" 3;
  ignore (Memo.find_opt m "a");
  Memo.set m "d" 4;
  check_int "still 3 entries" 3 (Memo.length m);
  check_true "b (least recently used) evicted" (Memo.find_opt m "b" = None);
  check_true "a survived" (Memo.find_opt m "a" = Some 1);
  check_true "d inserted" (Memo.find_opt m "d" = Some 4);
  check_int "one eviction" 1 (Memo.evictions m);
  (* to_alist is LRU-first: the next victim leads. *)
  let order = List.map fst (Memo.to_alist m) in
  check_int "alist covers the table" 3 (List.length order)

(* -------------------------------------------------------- warm restart *)

let test_warm_restart_hits_persisted_cache () =
  with_tmp "warm.jsonl" (fun path ->
      let reqs = L.generate small_workload in
      let cold =
        checked
          (L.drive_inproc ~window:8
             (engine ~store:(Store.open_ ~path ()) ())
             reqs)
      in
      check_int "cold run all ok" cold.L.sent cold.L.ok;
      check_true "cold run computed something" (cold.L.misses > 0);
      (* "Restart": a fresh engine + store loaded from the snapshot. *)
      let warm =
        checked
          (L.drive_inproc ~window:8
             (engine ~store:(Store.open_ ~path ()) ())
             reqs)
      in
      check_int "warm run all ok" warm.L.sent warm.L.ok;
      check_int "warm run recomputes nothing" 0 warm.L.misses;
      check_true
        (Printf.sprintf "warm hit rate %.3f >= 0.9" (L.hit_rate warm))
        (L.hit_rate warm >= 0.9))

(* --------------------------------------------------------------- chaos *)

module Chaos = Bg_serve.Chaos
module Client = Bg_serve.Client

let test_chaos_spec_parse_round_trip () =
  let ok s =
    match Chaos.parse s with
    | Ok sp -> sp
    | Error e -> Alcotest.failf "rejected %s: %s" s e
  in
  let sp =
    ok "torn=0.1,drop=0.05,corrupt=0.2,stall=0.5:0.001,crash=mid-batch:3"
  in
  check_true "crash clause parsed" (sp.Chaos.crash = Some (Chaos.Mid_batch, 3));
  check_exact_float "torn parsed" 0.1 sp.Chaos.torn;
  check_true "canonical form round-trips" (ok (Chaos.spec_to_string sp) = sp);
  check_true "none renders as none" (Chaos.spec_to_string Chaos.none = "none");
  let bad s =
    match Chaos.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" s
  in
  bad "torn=1.5";
  bad "drop=-0.1";
  bad "warp=1";
  bad "crash=nowhere:1";
  bad "crash=mid-batch:0";
  bad "stall=0.5";
  bad "torn=abc";
  bad "torn"

let test_chaos_mangle_is_seeded () =
  let spec = { Chaos.none with Chaos.torn = 0.3; drop = 0.2; corrupt = 0.3 } in
  let run seed =
    let c = Chaos.create ~action:Chaos.Raise ~seed spec in
    List.init 200 (fun i ->
        match Chaos.mangle c (Printf.sprintf {|{"id":"x%d","v":12345}|} i) with
        | `Deliver s -> "d:" ^ s
        | `Drop -> "drop"
        | `Drop_keep_carry -> "torn")
  in
  check_true "same seed, same fault schedule" (run 9 = run 9);
  check_true "different seed, different schedule" (run 9 <> run 10);
  let faults = run 9 in
  check_true "some lines dropped" (List.mem "drop" faults);
  check_true "some lines torn" (List.mem "torn" faults);
  (* Corruption / torn carry must change some delivered payloads. *)
  let originals =
    List.init 200 (fun i -> "d:" ^ Printf.sprintf {|{"id":"x%d","v":12345}|} i)
  in
  check_true "some deliveries mangled"
    (List.exists
       (fun s -> String.starts_with ~prefix:"d:" s && not (List.mem s originals))
       faults)

let test_chaos_crash_at_nth_arrival () =
  let spec = { Chaos.none with Chaos.crash = Some (Chaos.Pre_snapshot, 3) } in
  let c = Chaos.create ~action:Chaos.Raise ~seed:1 spec in
  Chaos.at c Chaos.Pre_snapshot;
  Chaos.at c Chaos.Mid_batch;
  (* other points don't advance the count *)
  Chaos.at c Chaos.Pre_snapshot;
  match Chaos.at c Chaos.Pre_snapshot with
  | exception Chaos.Injected_crash p ->
      check_true "crash names its point" (p = "pre-snapshot")
  | () -> Alcotest.fail "no crash at the 3rd arrival"

(* ----------------------------------------------------------------- wal *)

let test_wal_survives_power_cut () =
  with_tmp "wal.jsonl" (fun path ->
      let s = Store.open_ ~path ~flush_every:1_000_000 () in
      Store.add s "k1" (J.Num 1.);
      Store.add s "k2" (J.Str "two");
      Store.sync s;
      (* No flush, no close: a power cut.  Only the journal survives. *)
      let s' = Store.open_ ~path () in
      check_int "journal replayed" 2 (Store.wal_recovered s');
      check_true "k1 recovered" (Store.find s' "k1" = Some (J.Num 1.));
      check_true "k2 recovered" (Store.find s' "k2" = Some (J.Str "two"));
      (* Compaction moves entries into the snapshot and empties the
         journal. *)
      Store.flush s';
      let s'' = Store.open_ ~path () in
      check_int "journal empty after compaction" 0 (Store.wal_recovered s'');
      check_int "snapshot holds them" 2 (Store.loaded s''))

let test_wal_recovers_longest_valid_prefix () =
  with_tmp "torn.jsonl" (fun path ->
      let s = Store.open_ ~path ~flush_every:1_000_000 () in
      List.iter (fun k -> Store.add s k (J.Str k)) [ "a"; "b"; "c" ];
      Store.sync s;
      (* A torn append: half a record, no newline, bad checksum. *)
      let oc = open_out_gen [ Open_append ] 0o644 (path ^ ".wal") in
      output_string oc {|{"key":"d","result":"d","md5":"dead|};
      close_out oc;
      let s' = Store.open_ ~path () in
      check_int "valid prefix recovered" 3 (Store.wal_recovered s');
      check_int "torn tail counted" 1 (Store.wal_torn s');
      check_true "last good entry present" (Store.find s' "c" = Some (J.Str "c"));
      check_true "torn entry absent" (Store.find s' "d" = None))

(* The crash-safety property, exhaustively: truncate the journal at
   EVERY byte offset (every possible kill point of an append) and
   reopen.  Recovery must always yield exactly the fully-written records
   before the cut — never a crash, never a torn record surfacing. *)
let test_wal_recovery_at_every_byte_prefix () =
  let keys = [| "a"; "b"; "c"; "d"; "e" |] in
  let full =
    with_tmp "prefix_src.jsonl" (fun path ->
        let s = Store.open_ ~path ~flush_every:1_000_000 () in
        Array.iteri (fun i k -> Store.add s k (J.Num (float_of_int i))) keys;
        Store.sync s;
        In_channel.with_open_bin (path ^ ".wal") In_channel.input_all)
  in
  let len = String.length full in
  check_true "journal has content" (len > 0);
  for cut = 0 to len do
    with_tmp (Printf.sprintf "prefix_%d.jsonl" cut) (fun path ->
        Out_channel.with_open_bin (path ^ ".wal") (fun oc ->
            Out_channel.output_string oc (String.sub full 0 cut));
        let s = Store.open_ ~path () in
        (* Every fully-terminated record before the cut must recover; a
           complete record merely missing its newline may also recover
           (its checksum proves it intact); a genuinely torn record must
           vanish — never a crash, never a damaged entry surfacing. *)
        let terminated =
          String.fold_left
            (fun acc ch -> if ch = '\n' then acc + 1 else acc)
            0 (String.sub full 0 cut)
        in
        let r = Store.wal_recovered s in
        check_true
          (Printf.sprintf
             "cut at byte %d: recovered %d in [%d, %d]" cut r terminated
             (terminated + 1))
          (r >= terminated && r <= terminated + 1);
        for i = 0 to r - 1 do
          check_true "recovered entry intact"
            (Store.find s keys.(i) = Some (J.Num (float_of_int i)))
        done;
        if r < Array.length keys then
          check_true "entry after the cut absent" (Store.find s keys.(r) = None);
        Store.close s)
  done

(* ------------------------------------------------------------- degrade *)

let test_degraded_answers_under_load () =
  let d =
    { Server.default_degrade with
      Server.queue_watermark = 1; nodes = 3; replicates = 2 }
  in
  let t = engine ~store:(Store.open_ ()) ~degrade:d () in
  let now = Obs.now_s () in
  (match Server.process_batch ~queue_depth:5 t [ (req P.Zeta, now) ] with
  | [ P.Done { degraded = true; result; _ } ] ->
      let num f = Option.get (J.mem_num f result) in
      check_true "interval ordered"
        (num "lo" <= num "zeta_lower" && num "zeta_lower" <= num "hi");
      check_true "confidence present" (num "confidence" > 0.)
  | other ->
      Alcotest.failf "expected a degraded answer: %s"
        (String.concat " | " (List.map P.response_to_string other)));
  (* Degraded answers are never cached: the next calm request computes
     the exact value as a fresh miss. *)
  (match Server.process_batch ~queue_depth:0 t [ (req P.Zeta, now) ] with
  | [ P.Done { degraded = false; cache = P.Miss; result; _ } ] ->
      check_true "exact zeta" (J.mem_num "zeta" result <> None)
  | _ -> Alcotest.fail "expected an exact recompute");
  (* A cached key stays exact even over the watermark. *)
  match Server.process_batch ~queue_depth:5 t [ (req P.Zeta, now) ] with
  | [ P.Done { degraded = false; cache = P.Hit; _ } ] -> ()
  | _ -> Alcotest.fail "expected an exact cache hit under load"

let test_degraded_big_space_without_backlog () =
  let d = { Server.default_degrade with Server.big_n = 3; nodes = 3 } in
  let t = engine ~store:(Store.open_ ()) ~degrade:d () in
  match Server.process_batch t [ (req P.Phi, Obs.now_s ()) ] with
  | [ P.Done { degraded = true; result; _ } ] ->
      check_true "phi lower bound" (J.mem_num "phi_lower" result <> None)
  | _ -> Alcotest.fail "n >= big_n should degrade even with an empty queue"

let test_ping_health_op () =
  let t = engine () in
  let ping = { P.id = "hp"; op = P.Ping; space = None; trace = None } in
  match Server.process_batch t [ (ping, Obs.now_s ()) ] with
  | [ P.Done { op_name = "ping"; degraded = false; result; _ } ] ->
      check_true "uptime reported"
        (Option.get (J.mem_num "uptime_s" result) >= 0.);
      check_true "queue depth reported" (J.mem_num "queue_depth" result <> None);
      check_true "hit rate reported" (J.mem_num "hit_rate" result <> None);
      check_true "degrade status reported"
        (J.mem_bool "degrade_enabled" result = Some false)
  | other ->
      Alcotest.failf "unexpected ping answer: %s"
        (String.concat " | " (List.map P.response_to_string other))

(* -------------------------------------------------------------- client *)

let test_client_breaker_lifecycle () =
  let cfg =
    { Client.default_config with
      Client.breaker_threshold = 3; breaker_cooldown_s = 0.05 }
  in
  let c = Client.create ~config:cfg ~seed:5 () in
  check_true "starts closed" (Client.breaker_state c = Client.Closed);
  let now = 1000. in
  Client.record_failure c ~now;
  Client.record_failure c ~now;
  check_true "under threshold stays closed"
    (Client.breaker_state c = Client.Closed);
  check_true "closed admits" (Client.admit c ~now);
  Client.record_failure c ~now;
  check_true "opens at the threshold" (Client.breaker_state c = Client.Open);
  check_int "opens counted" 1 (Client.breaker_opens c);
  check_false "open rejects inside the cooldown"
    (Client.admit c ~now:(now +. 0.01));
  check_true "half-open probe after the cooldown"
    (Client.admit c ~now:(now +. 0.1));
  check_true "probing is half-open"
    (Client.breaker_state c = Client.Half_open);
  Client.record_failure c ~now:(now +. 0.1);
  check_true "failed probe re-opens" (Client.breaker_state c = Client.Open);
  check_false "cooldown restarts" (Client.admit c ~now:(now +. 0.12));
  check_true "second probe" (Client.admit c ~now:(now +. 0.2));
  Client.record_success c;
  check_true "success closes" (Client.breaker_state c = Client.Closed);
  check_true "closed again admits" (Client.admit c ~now:(now +. 0.2))

let test_client_backoff_schedule () =
  let cfg =
    { Client.default_config with
      Client.backoff_base_s = 0.1; backoff_cap_s = 0.4 }
  in
  let schedule seed =
    let c = Client.create ~config:cfg ~seed () in
    List.init 6 (fun attempt -> Client.backoff_s c ~attempt)
  in
  check_true "seeded schedule replays" (schedule 3 = schedule 3);
  check_true "distinct seeds de-synchronize" (schedule 3 <> schedule 4);
  List.iteri
    (fun attempt d ->
      let nominal = Float.min 0.4 (0.1 *. (2. ** float_of_int attempt)) in
      check_true
        (Printf.sprintf "attempt %d delay %.4f inside equal-jitter bounds"
           attempt d)
        (d >= (nominal /. 2.) -. 1e-12 && d < nominal))
    (schedule 3)

(* Chaotic wire, retrying driver: every id answered exactly once, no
   corrupt line ever scored as an answer. *)
let test_chaotic_replies_recovered_by_retries () =
  let spec = { Chaos.none with Chaos.drop = 0.15; torn = 0.1; corrupt = 0.1 } in
  let chaos = Chaos.create ~action:Chaos.Raise ~seed:41 spec in
  let client =
    Client.create
      ~config:
        { Client.default_config with
          Client.deadline_s = None; max_retries = 10 }
      ~seed:6 ()
  in
  let w = { L.seed = 8; requests = 80; spaces = 12; nodes = 8; zipf_s = 1.1 } in
  let t = engine ~batch_size:16 ~store:(Store.open_ ()) ~chaos () in
  let r = checked (L.drive_inproc ~window:16 ~client t (L.generate w)) in
  check_int "every id answered exactly once" r.L.sent r.L.answered;
  check_int "all ok" r.L.sent r.L.ok;
  check_int "nothing abandoned" 0 r.L.gave_up;
  check_true "faults actually fired" (r.L.retries > 0)

(* The [client.request] root spans a traced run of [f] emits: the ids
   they name, sorted. *)
let client_roots f =
  with_tmp "roots.jsonl" @@ fun path ->
  Obs.set_trace_file path;
  let v = Fun.protect ~finally:Obs.close_trace f in
  let ids =
    List.filter_map
      (fun e ->
        match (J.mem_str "name" e, J.member "attrs" e) with
        | Some "client.request", Some attrs -> J.mem_str "id" attrs
        | _ -> None)
      (J.parse_lines (J.read_file path))
  in
  (v, List.sort compare ids)

(* In-process chaos runs (drop, torn, corrupt) over several seeds: every
   report counts each request once, and with a retrying client each id
   is answered exactly once (one root span per id). *)
let prop_chaos_runs_count_each_request_once =
  qcheck ~count:6 "chaos runs count each request once"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let spec =
        { Chaos.none with Chaos.drop = 0.08; torn = 0.05; corrupt = 0.05 }
      in
      let w = { L.seed; requests = 60; spaces = 10; nodes = 6; zipf_s = 1.1 } in
      let reqs = L.generate w in
      let run client =
        let chaos = Chaos.create ~action:Chaos.Raise ~seed spec in
        L.drive_inproc ~window:8 ?client
          (engine ~batch_size:8 ~store:(Store.open_ ()) ~chaos ())
          reqs
      in
      let bare = run None in
      let retrying, roots =
        client_roots (fun () ->
            run
              (Some
                 (Client.create
                    ~config:
                      { Client.default_config with
                        Client.deadline_s = None; max_retries = 20 }
                    ~seed ())))
      in
      counted_once bare && counted_once retrying
      && retrying.L.answered = retrying.L.sent
      && retrying.L.gave_up = 0
      && roots = List.sort compare (List.map (fun r -> r.P.id) reqs))

(* A lost attempt leaves the window: at window 1, every dropped reply is
   re-sent, not left holding the only slot. *)
let test_window_one_resends_lost_replies () =
  let chaos =
    Chaos.create ~action:Chaos.Raise ~seed:1
      { Chaos.none with Chaos.drop = 0.5 }
  in
  let client =
    Client.create
      ~config:
        { Client.default_config with
          Client.deadline_s = None; max_retries = 30 }
      ~seed:2 ()
  in
  let w = { L.seed = 8; requests = 20; spaces = 5; nodes = 6; zipf_s = 1.1 } in
  let r =
    checked
      (L.drive_inproc ~window:1 ~client
         (engine ~batch_size:4 ~chaos ())
         (L.generate w))
  in
  check_int "every id answered" r.L.sent r.L.answered;
  check_true "drops cost re-sends" (r.L.retries > 0)

(* Drive [reqs] through a /bin/sh stand-in for the daemon: [script] runs
   with [args] as $1, $2, ...  *)
let drive_fake ?client ~window script args reqs =
  checked
    (L.drive_subprocess ~window ?client
       (Array.of_list ("/bin/sh" :: "-c" :: script :: "fake-daemon" :: args))
       reqs)

let failed_reply id =
  P.response_to_string (P.Failed { id; reason = "fake"; trace = None })

(* A reply that comes after its request gave up is a duplicate, not a
   second outcome: the stand-in answers 0.5 s after a 0.1 s deadline,
   with no retries left. *)
let test_late_answer_after_give_up_is_a_duplicate () =
  let client =
    Client.create
      ~config:
        { Client.default_config with
          Client.deadline_s = Some 0.1; max_retries = 0 }
      ~seed:1 ()
  in
  let r =
    drive_fake ~client ~window:1
      "read -r line; sleep 0.5; printf '%s\\n' \"$1\""
      [ failed_reply "late" ]
      [ req ~id:"late" P.Zeta ]
  in
  check_int "sent" 1 r.L.sent;
  check_int "gave up" 1 r.L.gave_up;
  check_int "not answered" 0 r.L.answered;
  check_int "the late reply is a duplicate" 1 r.L.duplicates;
  check_int "one SLO sample" 1 (List.length r.L.slo_samples)

(* Replies naming an id that was never sent, whether outside the trace
   or not yet sent (window 1 holds "b" back until "a" is answered), are
   corrupt and answer nothing. *)
let test_replies_for_unsent_ids_are_corrupt () =
  let r =
    drive_fake ~window:1
      "read -r a; printf '%s\\n%s\\n%s\\n' \"$1\" \"$2\" \"$3\"; \
       read -r b; printf '%s\\n' \"$2\""
      [ failed_reply "nobody"; failed_reply "b"; failed_reply "a" ]
      [ req ~id:"a" P.Zeta; req ~id:"b" P.Zeta ]
  in
  check_int "both sent" 2 r.L.sent;
  check_int "both answered once" 2 r.L.answered;
  check_int "two corrupt replies" 2 r.L.corrupt_lines;
  check_int "no duplicates" 0 r.L.duplicates

(* ------------------------------------------------- end-to-end daemon *)

let test_pipe_driver_against_real_daemon () =
  if not (Sys.file_exists bg_exe) then
    Alcotest.skip ()
  else begin
    let w = { L.seed = 5; requests = 60; spaces = 10; nodes = 8; zipf_s = 1.1 } in
    let reqs = L.generate w in
    let report =
      checked
        (L.drive_subprocess ~window:8
           [| bg_exe; "serve"; "--batch-size"; "8"; "--jobs"; "2" |]
           reqs)
    in
    check_int "every request answered" report.L.sent report.L.answered;
    check_int "all ok" report.L.sent report.L.ok;
    check_true "throughput measured" (report.L.throughput_rps > 0.);
    check_true "p99 covers p50" (report.L.p99_s >= report.L.p50_s)
  end

(* Run [bg args] to completion with [input] on stdin; returns the exit
   status, stdout and stderr. *)
let run_bg ~input args =
  with_tmp "cli.in" @@ fun inp ->
  with_tmp "cli.out" @@ fun out ->
  with_tmp "cli.err" @@ fun err ->
  Out_channel.with_open_bin inp (fun oc -> output_string oc input);
  let status =
    Unix.system
      (Filename.quote_command bg_exe args ~stdin:inp ~stdout:out ~stderr:err)
  in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  (status, read out, read err)

(* The distributed-tracing contract over a client and a server span
   file: one [client.request] root (parent 0) per resolved request and
   trace id, and every wire-tagged server span under a client span of
   its own trace, so the merge is one tree per request. *)
let check_causal_trees ~client ~server ~resolved =
  let spans path =
    List.filter_map
      (fun e ->
        match (J.mem_str "type" e, J.member "attrs" e) with
        | Some "span", Some attrs -> Some (e, attrs)
        | _ -> None)
      (J.parse_lines (J.read_file path))
  in
  let num k e = Option.get (J.mem_num k e) in
  let roots = Hashtbl.create 64 and client_spans = Hashtbl.create 256 in
  List.iter
    (fun (e, attrs) ->
      Option.iter
        (fun tid ->
          Hashtbl.replace client_spans (tid, num "id" e) ();
          if J.mem_str "name" e = Some "client.request" then begin
            check_true (tid ^ ": the root has no parent") (num "parent" e = 0.);
            check_false (tid ^ ": one root") (Hashtbl.mem roots tid);
            Hashtbl.replace roots tid ()
          end)
        (J.mem_str "trace_id" attrs))
    (spans client);
  check_int "one client.request root per resolved request" resolved
    (Hashtbl.length roots);
  let linked, strays =
    List.fold_left
      (fun (linked, strays) (_, attrs) ->
        match (J.mem_str "trace_id" attrs, J.mem_num "parent_span" attrs) with
        | Some tid, Some parent ->
            if Hashtbl.mem roots tid && Hashtbl.mem client_spans (tid, parent)
            then (linked + 1, strays)
            else (linked, tid :: strays)
        | _ -> (linked, strays))
      (0, []) (spans server)
  in
  check_true
    (Printf.sprintf "server spans under no client span of their trace: %s"
       (String.concat " " strays))
    (strays = []);
  check_true "some server span is linked to its client" (linked > 0)

(* Two `bg loadgen` bursts over one --cache file: a cold daemon, then a
   restarted one replaying the same seeded trace.  Loadgen sends f64
   lines, so the warm run answering everything from disk shows their
   store keys survive a restart.  The cold burst also records client and
   server traces, which must merge into one causal tree per request. *)
let test_loadgen_bursts_share_the_cache () =
  if not (Sys.file_exists bg_exe) then Alcotest.skip ()
  else
    with_tmp "bursts-cache.jsonl" @@ fun cache ->
    with_tmp "bursts-cold.json" @@ fun cold_json ->
    with_tmp "bursts-warm.json" @@ fun warm_json ->
    with_tmp "bursts-client.jsonl" @@ fun client ->
    with_tmp "bursts-server.jsonl" @@ fun server ->
    let burst json traces =
      let code =
        Unix.system
          (Filename.quote_command bg_exe
             ([ "loadgen"; "--requests"; "600"; "--spaces"; "80"; "--nodes";
                "12"; "--seed"; "11"; "--window"; "24"; "--cache"; cache;
                "--json"; json; "--slo"; "p99<=5,err<=1%" ]
             @ traces)
             ~stdin:"/dev/null" ~stdout:"/dev/null" ~stderr:"/dev/null")
      in
      check_true "loadgen exits 0" (code = Unix.WEXITED 0);
      match J.member "report" (J.parse (J.read_file json)) with
      | Some r -> r
      | None -> Alcotest.fail "no report in the loadgen JSON"
    in
    let cold_report =
      burst cold_json [ "--trace"; client; "--serve-trace"; server ]
    in
    let warm_report = burst warm_json [] in
    let cold k = Option.get (J.mem_num k cold_report)
    and warm k = Option.get (J.mem_num k warm_report) in
    List.iter
      (fun (name, r) ->
        check_true (name ^ ": answered = sent") (r "answered" = r "sent");
        check_true (name ^ ": no errors") (r "errors" = 0.);
        check_true (name ^ ": p99 reported") (r "p99_s" > 0.))
      [ ("cold", cold); ("warm", warm) ];
    check_true "the cold burst computes" (cold "misses" > 0.);
    check_true "the warm burst recomputes nothing" (warm "misses" = 0.);
    check_true
      (Printf.sprintf "warm hit rate %.3f > 0.9" (warm "hit_rate"))
      (warm "hit_rate" > 0.9);
    check_causal_trees ~client ~server
      ~resolved:(int_of_float (cold "answered" +. cold "gave_up"));
    (* The CLI view of the same contract: the report's slowest exemplar
       opens its merged tree, and client and server files share no span
       kinds, so diffing them is a one-line exit-2 refusal. *)
    let exemplar =
      match J.member "exemplars" cold_report with
      | Some (J.Arr (first :: _)) -> Option.get (J.mem_str "trace_id" first)
      | _ -> Alcotest.fail "no exemplar in the cold report"
    in
    let status, _, _ =
      run_bg ~input:"" [ "trace"; "report"; client; server; "--id"; exemplar ]
    in
    check_true "trace report --id on the exemplar" (status = Unix.WEXITED 0);
    let status, _, err = run_bg ~input:"" [ "trace"; "diff"; client; server ] in
    check_true "trace diff of client vs server exits 2"
      (status = Unix.WEXITED 2);
    check_true "and says they share no span kinds"
      (contains ~sub:"no span kinds" err)

(* CLI validation (satellite): nonsense resource flags are one-line
   exit-2 answers, before any work starts. *)
let test_cli_rejects_bad_resource_flags () =
  if not (Sys.file_exists bg_exe) then Alcotest.skip ()
  else begin
    let exit_of args =
      match
        Unix.system
          (Filename.quote_command bg_exe args ~stdin:"/dev/null"
             ~stdout:"/dev/null" ~stderr:"/dev/null")
      with
      | Unix.WEXITED c -> c
      | _ -> -1
    in
    check_int "--jobs 0 rejected" 2 (exit_of [ "bench"; "--jobs"; "0" ]);
    check_int "--jobs -3 rejected" 2 (exit_of [ "bench"; "--jobs=-3" ]);
    check_int "negative timeout rejected" 2
      (exit_of [ "experiment"; "E1"; "--timeout=-1" ]);
    check_int "negative retries rejected" 2
      (exit_of [ "experiment"; "E1"; "--retries=-2" ]);
    check_int "serve --batch-size 0 rejected" 2
      (exit_of [ "serve"; "--batch-size"; "0" ]);
    check_int "serve --max-queue 0 rejected" 2
      (exit_of [ "serve"; "--max-queue"; "0" ]);
    check_int "serve bad --chaos rejected" 2
      (exit_of [ "serve"; "--chaos"; "torn=2" ]);
    check_int "serve --degrade-watermark 0 rejected" 2
      (exit_of [ "serve"; "--degrade-watermark"; "0" ]);
    check_int "loadgen --window 0 rejected" 2
      (exit_of [ "loadgen"; "--window"; "0" ]);
    check_int "loadgen --requests 0 rejected" 2
      (exit_of [ "loadgen"; "--requests"; "0" ]);
    check_int "loadgen --spaces -1 rejected" 2
      (exit_of [ "loadgen"; "--spaces=-1" ]);
    check_int "loadgen --nodes 0 rejected" 2
      (exit_of [ "loadgen"; "--nodes"; "0" ]);
    check_int "loadgen --deadline 0 rejected" 2
      (exit_of [ "loadgen"; "--deadline"; "0" ]);
    check_int "loadgen --client-retries -1 rejected" 2
      (exit_of [ "loadgen"; "--client-retries=-1" ])
  end

(* A [bg serve --socket] daemon answering [max_requests] requests, its
   stderr in [errf]; returns once the socket exists. *)
let spawn_socket_daemon ~sock ~errf ~max_requests =
  let errfd =
    Unix.openfile errf [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process bg_exe
      [| bg_exe; "serve"; "--socket"; sock; "--max-requests";
         string_of_int max_requests |]
      Unix.stdin Unix.stdout errfd
  in
  Unix.close errfd;
  let rec await n =
    if n = 0 then Alcotest.fail "daemon socket never appeared"
    else if Sys.file_exists sock then ()
    else begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 100;
  pid

let socket_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let socket_send fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let socket_recv_line fd =
  let buf = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
        if Bytes.get one 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf (Bytes.get one 0);
          go ()
        end
  in
  go ()

let check_daemon_exit_0 pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, st ->
      Alcotest.failf "daemon exit: %s"
        (match st with
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)

(* Regression: a socket client vanishing mid-request must be logged and
   dropped while a second client is served normally. *)
let test_socket_disconnect_mid_request () =
  if not (Sys.file_exists bg_exe) then Alcotest.skip ()
  else begin
    let sock = tmp_path "disc.sock" in
    let errf = tmp_path "disc.err" in
    let cleanup () =
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ sock; errf ]
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    let pid = spawn_socket_daemon ~sock ~errf ~max_requests:1 in
    (* Client A: half a request line, then gone. *)
    let a = socket_connect sock in
    socket_send a {|{"id":"half","op":"zeta|};
    Unix.close a;
    (* Client B: a full request; must be answered normally. *)
    let b = socket_connect sock in
    socket_send b (P.request_to_string (req ~id:"whole" P.Zeta) ^ "\n");
    let line = socket_recv_line b in
    (match P.response_of_string line with
    | Ok (P.Done { id = "whole"; _ }) -> ()
    | _ -> Alcotest.failf "client B got %S" line);
    Unix.close b;
    check_daemon_exit_0 pid;
    let log = In_channel.with_open_text errf In_channel.input_all in
    check_true "partial line logged as a disconnect"
      (contains ~sub:"disconnected mid-request" log)
  end

(* Three hand-written lines in one write over the Unix socket: a decimal
   matrix [zeta], a [gamma] at r = 4 and an unknown op on a [csv] space.
   Each gets its line back with the expected status, and the daemon exits
   0 after its three requests. *)
let test_socket_round_trip () =
  if not (Sys.file_exists bg_exe) then Alcotest.skip ()
  else begin
    let sock = tmp_path "rt.sock" in
    let errf = tmp_path "rt.err" in
    let cleanup () =
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ sock; errf ]
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    let pid = spawn_socket_daemon ~sock ~errf ~max_requests:3 in
    let c = socket_connect sock in
    let m = {|{"matrix": [[0, 1.5, 2], [1.2, 0, 3], [2, 1, 0]]}|} in
    socket_send c
      (String.concat "\n"
         [ {|{"id": "a", "op": "zeta", "space": |} ^ m ^ "}";
           {|{"id": "b", "op": "gamma", "r": 4, "space": |} ^ m ^ "}";
           {|{"id": "c", "op": "warp", "space": {"csv": "0,2\n2,0"}}|} ]
      ^ "\n");
    let got =
      List.init 3 (fun _ ->
          let r = J.parse (socket_recv_line c) in
          (J.mem_str "id" r, J.mem_str "status" r))
      |> List.sort compare
    in
    Unix.close c;
    check_true "a ok, b ok, c error"
      (got
      = [ (Some "a", Some "ok"); (Some "b", Some "ok"); (Some "c", Some "error") ]);
    check_daemon_exit_0 pid
  end

(* A supervised daemon that chaos-SIGKILLs itself mid-batch and drops
   or tears 2% of its replies: the supervisor restarts it on the same
   pipes, the client's deadline retries recover the lost answers, and
   the WAL-backed cache carries answers across incarnations.  Every
   request is still answered once.  Then the same trace is replayed
   with chaos off over the recovered cache, which must have kept most
   answers: CI's chaos-smoke checks, with its thresholds. *)
let test_supervised_restart_rides_out_crashes () =
  if not (Sys.file_exists bg_exe) then Alcotest.skip ()
  else
    with_tmp "sup_cache.jsonl" (fun cache ->
        let w =
          { L.seed = 9; requests = 60; spaces = 10; nodes = 8; zipf_s = 1.1 }
        in
        let client =
          Client.create
            ~config:
              { Client.default_config with
                Client.deadline_s = Some 1.0;
                max_retries = 8;
                backoff_base_s = 0.05;
                backoff_cap_s = 0.2;
                breaker_threshold = 1000 }
            ~seed:4 ()
        in
        let r =
          checked
            (L.drive_subprocess ~window:8 ~client
               [| bg_exe; "serve"; "--supervise"; "--batch-size"; "8";
                  "--cache"; cache; "--chaos";
                  "drop=0.02,torn=0.02,crash=mid-batch:3"; "--chaos-seed";
                  "11"; "--jobs"; "1" |]
               (L.generate w))
        in
        check_int "every request answered" r.L.sent r.L.answered;
        check_int "all ok" r.L.sent r.L.ok;
        check_int "nothing abandoned" 0 r.L.gave_up;
        check_true "the crash actually cost retries" (r.L.retries > 0);
        let warm =
          checked
            (L.drive_subprocess ~window:8
               [| bg_exe; "serve"; "--batch-size"; "8"; "--cache"; cache;
                  "--jobs"; "1" |]
               (L.generate w))
        in
        check_int "warm: every request answered" warm.L.sent warm.L.answered;
        check_int "warm: nothing abandoned" 0 warm.L.gave_up;
        check_true
          (Printf.sprintf "warm hit rate %.3f > 0.5" (L.hit_rate warm))
          (L.hit_rate warm > 0.5))

let two_requests =
  String.concat ""
    (List.map
       (fun id -> P.request_to_string (req ~id P.Zeta) ^ "\n")
       [ "m1"; "m2" ])

(* The worker is the supervisor's own command line re-run, so --metrics
   reaches it: the one table printed is the worker's registry. *)
let test_supervised_metrics_are_the_workers () =
  if not (Sys.file_exists bg_exe) then Alcotest.skip ()
  else begin
    let status, out, _ =
      run_bg ~input:two_requests [ "serve"; "--supervise"; "--metrics" ]
    in
    check_true "supervised serve exits 0" (status = Unix.WEXITED 0);
    let accepted =
      List.filter_map
        (fun line ->
          match List.map String.trim (String.split_on_char '|' line) with
          | _ :: "serve.accepted" :: _ :: v :: _ -> Some v
          | _ -> None)
        (String.split_on_char '\n' out)
    in
    Alcotest.(check (list string)) "one table, serve.accepted 2" [ "2" ]
      accepted
  end

(* A process that finds the lineage variable set is the worker, even
   with --supervise on its command line: it supervises nothing and
   appends to the trace file instead of truncating it. *)
let test_lineage_makes_a_worker () =
  if not (Sys.file_exists bg_exe) then Alcotest.skip ()
  else
    with_tmp "worker-trace.jsonl" @@ fun trace ->
    let marker = {|{"type":"marker"}|} in
    Out_channel.with_open_bin trace (fun oc ->
        output_string oc (marker ^ "\n"));
    (* Set while the child runs; an empty value counts as unset. *)
    let lineage v = Unix.putenv Bg_serve.Supervisor.lineage_env v in
    lineage "1";
    let status, _, err =
      Fun.protect
        ~finally:(fun () -> lineage "")
        (fun () ->
          run_bg ~input:two_requests
            [ "serve"; "--supervise"; "--trace"; trace ])
    in
    check_true "worker exits 0" (status = Unix.WEXITED 0);
    check_false "no supervisor ran" (contains ~sub:"supervisor exiting" err);
    let lines = String.split_on_char '\n' (J.read_file trace) in
    check_true "the earlier line survives" (List.hd lines = marker);
    check_true "the worker appended spans" (List.length lines > 2)

(* ------------------------------------------------------- observability *)

let test_trace_context_on_the_wire () =
  let r =
    { P.id = "w"; op = P.Ping; space = None;
      trace = Some { P.trace_id = "t9-r000042"; parent_span = 17 } }
  in
  let j = P.request_to_json r in
  check_true "trace_id is a top-level wire field"
    (J.mem_str "trace_id" j = Some "t9-r000042");
  check_true "parent_span is a top-level wire field"
    (J.mem_num "parent_span" j = Some 17.);
  (match P.request_of_string (P.request_to_string r) with
  | Ok r' -> check_true "request trace round-trips" (r = r')
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* parent_span = 0 means "no remote parent" and stays off the wire. *)
  let root =
    { r with trace = Some { P.trace_id = "t9-r000042"; parent_span = 0 } }
  in
  check_true "zero parent_span omitted"
    (J.mem_num "parent_span" (P.request_to_json root) = None);
  (match P.request_of_string (P.request_to_string root) with
  | Ok r' -> check_true "omitted parent reads back as 0" (root = r')
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* The server echoes the context; response_trace reads it back. *)
  let resp =
    P.Failed { id = "w"; reason = "x"; trace = r.P.trace }
  in
  (match P.response_of_string (P.response_to_string resp) with
  | Ok r' -> check_true "response echo read back" (P.response_trace r' = r.P.trace)
  | Error e -> Alcotest.failf "round-trip failed: %s" e)

let test_metrics_op_scrape () =
  let slo = Bg_serve.Slo.create [ Bg_serve.Slo.Error_rate 0.5 ] in
  let lineage =
    { Server.restarts = 2;
      supervisor_started_s = Obs.now_s () -. 10.;
      prior_uptime_s = 5. }
  in
  let t = engine ~store:(Store.open_ ()) ~slo ~lineage () in
  let now = Obs.now_s () in
  ignore (Server.process_batch t [ (req P.Zeta, now) ]);
  match Server.process_batch ~queue_depth:3 t
          [ ({ P.id = "m"; op = P.Metrics; space = None; trace = None }, now) ]
  with
  | [ P.Done { op_name = "metrics"; result; _ } ] ->
      check_true "queue depth echoed"
        (J.mem_num "queue_depth" result = Some 3.);
      let stats = Option.get (J.member "stats" result) in
      check_true "computed count present"
        (J.mem_num "computed" stats = Some 1.);
      (match J.member "counters" result with
      | Some (J.Obj kvs) ->
          check_true "registry counters scraped"
            (List.mem_assoc "serve.accepted" kvs)
      | _ -> Alcotest.fail "counters object missing");
      (match J.member "histograms" result with
      | Some (J.Obj kvs) -> (
          match List.assoc_opt "serve.latency_s" kvs with
          | Some h ->
              check_true "latency histogram has quantiles"
                (J.mem_num "p99" h <> None)
          | None -> Alcotest.fail "serve.latency_s missing")
      | _ -> Alcotest.fail "histograms object missing");
      check_true "supervisor lineage included"
        (J.mem_num "restarts" result = Some 2.);
      check_true "prior incarnations counted"
        (Option.get (J.mem_num "total_uptime_s" result) >= 5.);
      (match J.member "slo" result with
      | Some (J.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "slo statuses missing");
      check_true "slo verdict summarized"
        (J.mem_bool "slo_healthy" result = Some true)
  | other ->
      Alcotest.failf "unexpected metrics answer: %s"
        (String.concat " | " (List.map P.response_to_string other))

let test_lineage_in_ping () =
  let lineage =
    { Server.restarts = 3;
      supervisor_started_s = Obs.now_s () -. 60.;
      prior_uptime_s = 42. }
  in
  let t = engine ~lineage () in
  let ping = { P.id = "hp"; op = P.Ping; space = None; trace = None } in
  match Server.process_batch t [ (ping, Obs.now_s ()) ] with
  | [ P.Done { result; _ } ] ->
      check_true "restart count rides every ping"
        (J.mem_num "restarts" result = Some 3.);
      check_true "supervisor uptime reported"
        (Option.get (J.mem_num "supervisor_uptime_s" result) >= 59.);
      check_true "total uptime spans incarnations"
        (Option.get (J.mem_num "total_uptime_s" result) >= 42.)
  | _ -> Alcotest.fail "expected a ping answer"

let test_supervisor_lineage_env_round_trip () =
  Unix.putenv Bg_serve.Supervisor.lineage_env "4";
  Unix.putenv Bg_serve.Supervisor.started_env "123.5";
  Unix.putenv Bg_serve.Supervisor.prior_uptime_env "7.25";
  (match Bg_serve.Supervisor.read_lineage () with
  | Some (4, 123.5, 7.25) -> ()
  | Some (r, s, p) ->
      Alcotest.failf "lineage misread: %d %g %g" r s p
  | None -> Alcotest.fail "lineage env not read");
  (* Malformed values degrade to zero, never to an exception. *)
  Unix.putenv Bg_serve.Supervisor.started_env "not-a-float";
  (match Bg_serve.Supervisor.read_lineage () with
  | Some (4, 0., 7.25) -> ()
  | _ -> Alcotest.fail "malformed float should degrade to 0");
  Unix.putenv Bg_serve.Supervisor.lineage_env ""

let test_slo_spec_and_burn () =
  (* Grammar: quantile + threshold, error rate with % sugar. *)
  (match Bg_serve.Slo.parse_spec "p99<=0.05,err<=10%" with
  | Ok [ Bg_serve.Slo.Latency { quantile; threshold_s };
         Bg_serve.Slo.Error_rate e ] ->
      check_float ~eps:1e-9 "p99 quantile" 0.99 quantile;
      check_float ~eps:1e-9 "threshold seconds" 0.05 threshold_s;
      check_float ~eps:1e-9 "percent sugar" 0.1 e
  | Ok _ -> Alcotest.fail "wrong objectives"
  | Error e -> Alcotest.failf "spec rejected: %s" e);
  check_true "empty spec is an error"
    (match Bg_serve.Slo.parse_spec "" with Error _ -> true | Ok _ -> false);
  check_true "nonsense rejected"
    (match Bg_serve.Slo.parse_spec "p99<=fast" with
    | Error _ -> true
    | Ok _ -> false);
  (* 100 samples, 2 slow ones against a p99 objective: the 1% budget is
     being burned at exactly 2x. *)
  let samples =
    List.init 100 (fun i -> if i < 2 then (1., true) else (0.001, true))
  in
  (match Bg_serve.Slo.parse_spec "p99<=0.05" with
  | Ok spec -> (
      match Bg_serve.Slo.eval_samples spec samples with
      | [ st ] ->
          check_int "bad events" 2 st.Bg_serve.Slo.window_bad;
          check_float ~eps:1e-9 "burn rate 2x" 2. st.Bg_serve.Slo.window_burn;
          check_true "2x burn is a violation"
            (Bg_serve.Slo.violated [ st ]);
          (* A failed request is bad for latency objectives too. *)
          (match Bg_serve.Slo.eval_samples spec [ (0.001, false) ] with
          | [ st ] -> check_int "failure counts as bad" 1 st.Bg_serve.Slo.window_bad
          | _ -> Alcotest.fail "one objective expected")
      | _ -> Alcotest.fail "one objective expected")
  | Error e -> Alcotest.failf "spec rejected: %s" e);
  (* Bucket-resolution scoring for recorded telemetry. *)
  let b_slow = Obs.bucket_of 1.0 and b_fast = Obs.bucket_of 0.001 in
  check_int "buckets above the threshold count as bad" 3
    (Bg_serve.Slo.bad_latency_of_buckets ~threshold_s:0.05
       [ (b_fast, 97); (b_slow, 3) ]);
  check_int "threshold's own bucket counts as good" 0
    (Bg_serve.Slo.bad_latency_of_buckets ~threshold_s:1.5 [ (b_slow, 3) ])

let test_slo_scores_telemetry_ring () =
  (* What `bg slo` decides, in-process: two snapshot lines of a
     synthetic ring, 100 requests of which 1 failed and 10 were slow.
     A spec whose objectives all hold is healthy (exit 0); a p99
     objective burns its 1% budget 10x and is violated (exit 3). *)
  let fast = Obs.bucket_of 0.01 and slow = Obs.bucket_of 0.2 in
  let snapshot ~accepted ~failed ~buckets =
    Printf.sprintf
      {|{"type":"telemetry","seq":1,"counters":{"serve.accepted":{"value":0,"delta":%d},"serve.rejected":{"value":0,"delta":0},"serve.failed":{"value":0,"delta":%d}},"histograms":{"serve.latency_s":{"count":0,"count_delta":%d,"buckets_delta":{%s}}}}|}
      accepted failed
      (List.fold_left (fun n (_, c) -> n + c) 0 buckets)
      (String.concat ","
         (List.map (fun (b, c) -> Printf.sprintf {|"%d":%d|} b c) buckets))
  in
  let ring =
    J.parse_lines
      (snapshot ~accepted:90 ~failed:1 ~buckets:[ (fast, 80); (slow, 10) ]
      ^ "\n"
      ^ snapshot ~accepted:10 ~failed:0 ~buckets:[ (fast, 10) ])
  in
  let score text =
    match Bg_serve.Slo.parse_spec text with
    | Ok spec -> Bg_serve.Slo.eval_telemetry spec ring
    | Error e -> Alcotest.failf "spec rejected: %s" e
  in
  (match score "p50<=0.05,err<=5%" with
  | [ lat; err ] as statuses ->
      check_int "latency events" 100 lat.Bg_serve.Slo.window_total;
      check_int "slow requests" 10 lat.Bg_serve.Slo.window_bad;
      check_float ~eps:1e-12 "p50 burn" 0.2 lat.Bg_serve.Slo.window_burn;
      check_int "admitted requests" 100 err.Bg_serve.Slo.window_total;
      check_int "failed requests" 1 err.Bg_serve.Slo.window_bad;
      check_float ~eps:1e-12 "error burn" 0.2 err.Bg_serve.Slo.window_burn;
      check_false "healthy spec: exit 0" (Bg_serve.Slo.violated statuses)
  | _ -> Alcotest.fail "two objectives expected");
  match score "p99<=0.05,err<=5%" with
  | [ lat; err ] as statuses ->
      check_float ~eps:1e-9 "p99 burns 10x" 10. lat.Bg_serve.Slo.window_burn;
      check_false "p99 violated" lat.Bg_serve.Slo.healthy;
      check_true "error objective still holds" err.Bg_serve.Slo.healthy;
      check_true "violated spec: exit 3" (Bg_serve.Slo.violated statuses)
  | _ -> Alcotest.fail "two objectives expected"

let test_telemetry_ring_and_deltas () =
  check_int "monotonic counter delta" 5 (Bg_serve.Telemetry.delta ~prev:10 ~cur:15);
  check_int "reset counter yields the new count" 3
    (Bg_serve.Telemetry.delta ~prev:10 ~cur:3);
  check_float ~eps:1e-9 "float accumulator reset clamps" 0.5
    (Bg_serve.Telemetry.delta_f ~prev:2. ~cur:0.5);
  let path = Filename.temp_file "bg_telemetry_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let c = Obs.counter "test.serve.telemetry_ring" in
      let tel = Bg_serve.Telemetry.create ~interval_s:0.001 path in
      Obs.add c 2;
      Bg_serve.Telemetry.force_snapshot tel;
      Obs.add c 3;
      Bg_serve.Telemetry.force_snapshot tel;
      Bg_serve.Telemetry.close tel;
      let lines =
        J.parse_lines (J.read_file path)
        |> List.filter (fun l -> J.mem_str "type" l = Some "telemetry")
      in
      check_int "two snapshots recorded" 2 (List.length lines);
      let counter_of line =
        match J.member "counters" line with
        | Some (J.Obj kvs) -> List.assoc "test.serve.telemetry_ring" kvs
        | _ -> Alcotest.fail "counters missing"
      in
      match lines with
      | [ a; b ] ->
          check_true "seq increments"
            (J.mem_num "seq" b > J.mem_num "seq" a);
          check_true "first snapshot carries the full count as delta"
            (J.mem_num "delta" (counter_of a) = Some 2.);
          check_true "second snapshot carries only the new activity"
            (J.mem_num "delta" (counter_of b) = Some 3.);
          check_true "cumulative value rides along"
            (J.mem_num "value" (counter_of b) = Some 5.)
      | _ -> Alcotest.fail "expected two lines")

let test_prometheus_rendering () =
  let text =
    Bg_serve.Telemetry.prometheus
      [ ("serve.accepted", Obs.Counter_snapshot 7);
        ("serve.queue_depth", Obs.Gauge_snapshot 2.5);
        ( "serve.latency_s",
          Obs.Histogram_snapshot { count = 2; sum = 0.25; buckets = [] } ) ]
  in
  let has needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i =
      i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle -> check_true (needle ^ " present") (has needle))
    [ "# TYPE serve_accepted counter"; "serve_accepted 7";
      "serve_queue_depth 2.5"; "serve_latency_s_count 2";
      "serve_latency_s_sum 0.25"; "serve_latency_s_bucket{le=\"+Inf\"} 0" ]

let suite =
  [
    ( "serve.protocol",
      [
        case "request round-trip" test_request_round_trip;
        case "garbage rejected with reasons" test_request_rejects_garbage;
        case "response round-trip" test_response_round_trip;
        case "op keys separate parameters" test_op_key_separates_params;
        case "f64 request bytes pinned" test_f64_bytes_pinned;
        test_f64_round_trip;
        case "decimal and f64 lines share key and answer"
          test_decimal_and_f64_share_key_and_answer;
        case "ragged rows go decimal, the server names them"
          test_ragged_rows_go_decimal;
      ] );
    ( "serve.fuzz",
      [
        case "f64 line truncated at every byte"
          test_f64_truncated_at_every_byte;
        case "mangled f64 fields are typed errors" test_f64_mangled_fields;
      ] );
    ( "serve.zipf",
      [
        case "cdf shape" test_zipf_cdf_shape;
        case "empirical skew matches exponent" test_zipf_skew_matches_exponent;
        case "picks deterministic and in range" test_zipf_pick_is_deterministic;
      ] );
    ( "serve.workload",
      [
        case "bit-reproducible from seed" test_generate_is_bit_reproducible;
        case "bad workloads rejected" test_generate_validates;
        case "replay identical at any concurrency"
          test_replay_reproducible_at_any_concurrency;
        case "hit rate meets the analytic floor"
          test_hit_rate_meets_analytic_floor;
      ] );
    ( "serve.engine",
      [
        case "results equal direct computation"
          test_serve_matches_direct_computation;
        case "duplicates coalesce in a batch" test_batch_coalesces_duplicates;
        case "compute error isolated to its request"
          test_error_isolated_to_its_request;
        case "bad spaces answer typed errors" test_bad_space_answers_error;
        case "raw file spaces are validated" test_raw_file_spaces_are_validated;
        case "overload sheds with typed rejections"
          test_overload_sheds_with_typed_rejections;
        case "malformed line does not stop the stream"
          test_malformed_line_does_not_stop_the_stream;
        case "request timeout answers typed error"
          test_request_timeout_answers_error;
      ] );
    ( "serve.store",
      [
        case "persists across reopen" test_store_persists_across_reopen;
        case "tolerates snapshot corruption" test_store_tolerates_corruption;
        case "LRU cap and snapshot order" test_store_lru_cap_and_snapshot_order;
        case "memo evicts per entry, LRU first" test_memo_per_entry_lru;
      ] );
    ( "serve.chaos",
      [
        case "spec parses and round-trips" test_chaos_spec_parse_round_trip;
        case "fault schedule is seeded" test_chaos_mangle_is_seeded;
        case "crash fires at the Nth arrival" test_chaos_crash_at_nth_arrival;
      ] );
    ( "serve.wal",
      [
        case "synced appends survive a power cut" test_wal_survives_power_cut;
        case "torn tail: longest valid prefix wins"
          test_wal_recovers_longest_valid_prefix;
        case "recovery clean at every byte prefix"
          test_wal_recovery_at_every_byte_prefix;
      ] );
    ( "serve.degrade",
      [
        case "backlog over the watermark degrades"
          test_degraded_answers_under_load;
        case "big spaces degrade without backlog"
          test_degraded_big_space_without_backlog;
        case "ping reports daemon health" test_ping_health_op;
      ] );
    ( "serve.client",
      [
        case "breaker lifecycle" test_client_breaker_lifecycle;
        case "backoff is seeded equal jitter" test_client_backoff_schedule;
        case "retries recover chaotic replies"
          test_chaotic_replies_recovered_by_retries;
        prop_chaos_runs_count_each_request_once;
        case "window 1 re-sends lost replies"
          test_window_one_resends_lost_replies;
        case "late answer after a give-up is a duplicate"
          test_late_answer_after_give_up_is_a_duplicate;
        case "replies for ids never sent are corrupt"
          test_replies_for_unsent_ids_are_corrupt;
      ] );
    ( "serve.restart",
      [
        case "warm restart hits the persisted cache"
          test_warm_restart_hits_persisted_cache;
      ] );
    ( "serve.observability",
      [
        case "trace context on the wire" test_trace_context_on_the_wire;
        case "metrics op scrapes the registry" test_metrics_op_scrape;
        case "lineage rides every ping" test_lineage_in_ping;
        case "supervisor lineage env round-trips"
          test_supervisor_lineage_env_round_trip;
        case "slo spec grammar and burn rates" test_slo_spec_and_burn;
        case "slo scores a telemetry ring" test_slo_scores_telemetry_ring;
        case "telemetry ring deltas, reset clamp"
          test_telemetry_ring_and_deltas;
        case "prometheus text rendering" test_prometheus_rendering;
      ] );
    ( "serve.e2e",
      [
        case "pipe driver against a spawned daemon"
          test_pipe_driver_against_real_daemon;
        case "loadgen cold and warm bursts share the cache"
          test_loadgen_bursts_share_the_cache;
        case "CLI rejects bad resource flags"
          test_cli_rejects_bad_resource_flags;
        case "mid-request disconnect is logged and isolated"
          test_socket_disconnect_mid_request;
        case "socket round trip: ok, ok, error" test_socket_round_trip;
        case "supervised restart rides out chaos crashes"
          test_supervised_restart_rides_out_crashes;
        case "supervised --metrics prints the worker's registry"
          test_supervised_metrics_are_the_workers;
        case "lineage in the environment makes a worker"
          test_lineage_makes_a_worker;
      ] );
  ]
