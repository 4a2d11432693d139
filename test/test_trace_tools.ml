(* The offline trace toolkit (lib/obs_tools) and the perf-regression
   gate (Benchkit.Regress), tested against a committed golden trace — a
   real `bg analyze --gamma-at 2,4 --trace --profile --jobs 2` run — so
   the parser, the aggregation invariants (self + child = total), the
   flame outputs and the diff all exercise genuine Obs output, not
   hand-built fixtures.  Regenerate the goldens after an intentional
   format change:

     bg analyze g24.csv --gamma-at 2,4 --jobs 2 \
        --trace test/golden_trace.jsonl --profile
     bg trace flame test/golden_trace.jsonl --format speedscope \
        -o test/golden_speedscope.json *)

module Trace = Obs_tools.Trace
module Jsonl = Core.Prelude.Jsonl
module Regress = Benchkit.Regress
open Testutil

(* cwd is _build/default/test under `dune runtest`, the project root
   under `dune exec test/test_main.exe`. *)
let fixture name =
  if Sys.file_exists name then name else Filename.concat "test" name

let golden_spans () = Trace.load (fixture "golden_trace.jsonl")

let mk ?(id = 1) ?(parent = 0) ?(domain = 0) ?(name = "k") ?(start = 0.)
    ?(dur = 1.) ?(ok = true) ?(attrs = []) () =
  {
    Trace.id;
    parent;
    domain;
    name;
    start_s = start;
    dur_s = dur;
    ok;
    attrs;
  }

(* ------------------------------------------------------------- loading *)

let test_load_golden () =
  let spans = golden_spans () in
  check_true "golden trace has spans" (List.length spans > 4);
  let names = List.map (fun s -> s.Trace.name) spans in
  List.iter
    (fun k -> check_true (k ^ " span present") (List.mem k names))
    [ "analyze"; "zeta_sweep"; "phi_sweep"; "gamma_sweep"; "parallel.task" ];
  (* Non-span lines (the metrics flush) parse but are filtered out. *)
  let events = Trace.load_events (fixture "golden_trace.jsonl") in
  check_true "trace carries metric events too"
    (List.length events > List.length spans);
  (* The profiled run recorded GC deltas on the root span. *)
  let analyze = List.find (fun s -> s.Trace.name = "analyze") spans in
  check_true "profiled span has alloc bytes"
    (match Trace.alloc_bytes analyze with Some b -> b > 0. | None -> false);
  check_true "cpu_s recorded"
    (match Trace.attr_num analyze "cpu_s" with
    | Some c -> c >= 0.
    | None -> false)

(* ------------------------------------------------- report conservation *)

let test_aggregate_conserves_time () =
  let spans = golden_spans () in
  let kinds = Trace.aggregate spans in
  check_true "one row per kind"
    (List.length kinds
    = List.length
        (List.sort_uniq compare (List.map (fun s -> s.Trace.name) spans)));
  (* Acceptance: self + child = total per kind, within 1% (exact by
     construction, so assert far tighter). *)
  List.iter
    (fun k ->
      let open Trace in
      check_true
        (Printf.sprintf "%s: self+child=total" k.kind)
        (Float.abs (k.kself_s +. k.kchild_s -. k.total_s)
        <= 1e-9 *. Float.max 1. k.total_s);
      check_true (k.kind ^ ": self >= 0") (k.kself_s >= 0.);
      check_true (k.kind ^ ": p50 <= p99") (k.p50_s <= k.p99_s);
      check_true (k.kind ^ ": max <= total") (k.max_s <= k.total_s +. 1e-12))
    kinds;
  (* Kind totals partition the span durations. *)
  let sum_spans =
    List.fold_left (fun a s -> a +. s.Trace.dur_s) 0. spans
  in
  let sum_kinds =
    List.fold_left (fun a k -> a +. k.Trace.total_s) 0. kinds
  in
  check_float ~eps:1e-9 "kind totals partition the trace" sum_spans sum_kinds;
  check_true "report table renders"
    (String.length
       (Core.Prelude.Table.render (Trace.report_table spans))
    > 0)

let test_quantile_estimates () =
  (* 98 spans of ~1us and two of 1s: p50 must sit in the microsecond
     bucket (log2 estimate is within a factor of two), p99 in the
     second-scale bucket. *)
  let spans =
    List.init 100 (fun i ->
        mk ~id:(i + 1) ~name:"q" ~start:(float_of_int i)
          ~dur:(if i >= 98 then 1.0 else 1e-6)
          ())
  in
  match Trace.aggregate spans with
  | [ k ] ->
      check_true "p50 ~ 1us" (k.Trace.p50_s >= 0.5e-6 && k.Trace.p50_s <= 2e-6);
      check_true "p99 ~ 1s" (k.Trace.p99_s >= 0.5 && k.Trace.p99_s <= 2.)
  | l -> Alcotest.failf "expected one kind, got %d" (List.length l)

(* -------------------------------------------------------- critical path *)

let test_critical_path () =
  let spans = golden_spans () in
  let path = Trace.critical_path spans in
  check_true "path non-empty" (path <> []);
  let top = List.hd path in
  (* The golden trace has no experiment span, so the top is the slowest
     root. *)
  let roots = List.filter (fun s -> s.Trace.parent = 0) spans in
  List.iter
    (fun r ->
      check_true "top is the slowest root" (r.Trace.dur_s <= top.Trace.dur_s))
    roots;
  (* Each step descends into a child of the previous span. *)
  let rec steps = function
    | a :: (b :: _ as rest) ->
        check_int
          (Printf.sprintf "%s is a child of %s" b.Trace.name a.Trace.name)
          a.Trace.id b.Trace.parent;
        steps rest
    | _ -> ()
  in
  steps path;
  check_true "critical path table renders"
    (String.length (Core.Prelude.Table.render (Trace.critical_path_table spans))
    > 0)

(* -------------------------------------------------------- folded stacks *)

let test_folded_round_trips_nesting () =
  let spans = golden_spans () in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Trace.id s) spans;
  let rec path s =
    match Hashtbl.find_opt by_id s.Trace.parent with
    | Some p when s.Trace.parent <> 0 -> path p ^ ";" ^ s.Trace.name
    | _ -> s.Trace.name
  in
  let expected = List.sort_uniq compare (List.map path spans) in
  let folded = Trace.folded spans in
  Alcotest.(check (list string))
    "folded keys are exactly the span name paths" expected
    (List.map fst folded);
  (* Prefix closure: a stack's parent prefix is itself a stack (every
     ancestor span gets its own folded entry). *)
  List.iter
    (fun (stack, _) ->
      match String.rindex_opt stack ';' with
      | None -> ()
      | Some i ->
          let prefix = String.sub stack 0 i in
          check_true
            (prefix ^ " present for " ^ stack)
            (List.mem_assoc prefix folded))
    folded;
  (* Values are self time: their sum matches the spans' self time total
     within rounding (1 us per span). *)
  let folded_total = List.fold_left (fun a (_, v) -> a + v) 0 folded in
  let kinds = Trace.aggregate spans in
  let self_total =
    List.fold_left (fun a k -> a +. k.Trace.kself_s) 0. kinds
  in
  check_true "folded values sum to total self time"
    (Float.abs (float_of_int folded_total -. (self_total *. 1e6))
    <= float_of_int (List.length spans));
  (* The serialized form is one "stack value" line per entry. *)
  let lines =
    String.split_on_char '\n' (Trace.folded_to_string spans)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per stack" (List.length folded) (List.length lines)

(* ----------------------------------------------------------- speedscope *)

let speedscope_check doc =
  let module J = Jsonl in
  check_true "schema url"
    (J.mem_str "$schema" doc
    = Some "https://www.speedscope.app/file-format-schema.json");
  let frames =
    match Option.bind (J.member "shared" doc) (J.member "frames") with
    | Some (J.Arr fs) -> fs
    | _ -> Alcotest.fail "shared.frames missing"
  in
  check_true "frames named"
    (List.for_all (fun f -> J.mem_str "name" f <> None) frames);
  let profiles =
    match J.member "profiles" doc with
    | Some (J.Arr ps) -> ps
    | _ -> Alcotest.fail "profiles missing"
  in
  check_true "at least one profile" (profiles <> []);
  List.iter
    (fun p ->
      check_true "evented profile" (J.mem_str "type" p = Some "evented");
      let end_value =
        match J.mem_num "endValue" p with
        | Some v -> v
        | None -> Alcotest.fail "endValue missing"
      in
      let events =
        match J.member "events" p with
        | Some (J.Arr es) -> es
        | _ -> Alcotest.fail "events missing"
      in
      (* Balanced, properly nested, nondecreasing timestamps, frame
         indices in range: exactly what speedscope validates on import. *)
      let depth = ref 0 and last = ref neg_infinity in
      List.iter
        (fun e ->
          let at =
            match J.mem_num "at" e with
            | Some a -> a
            | None -> Alcotest.fail "event without at"
          in
          check_true "timestamps nondecreasing" (at >= !last);
          last := at;
          check_true "at within [0, endValue]"
            (at >= 0. && at <= end_value +. 1e-12);
          (match J.mem_num "frame" e with
          | Some f ->
              check_true "frame index in range"
                (f >= 0. && f < float_of_int (List.length frames))
          | None -> Alcotest.fail "event without frame");
          match J.mem_str "type" e with
          | Some "O" -> incr depth
          | Some "C" ->
              decr depth;
              check_true "close matches an open" (!depth >= 0)
          | _ -> Alcotest.fail "event type not O/C")
        events;
      check_int "opens and closes balance" 0 !depth)
    profiles

let test_speedscope_valid_and_golden () =
  let spans = golden_spans () in
  let out = Trace.speedscope ~name:"golden_trace.jsonl" spans in
  let doc = Jsonl.parse out in
  speedscope_check doc;
  (* Pinned against the committed golden: a format change must be
     deliberate (regenerate with `bg trace flame --format speedscope`). *)
  let golden = Jsonl.parse (Jsonl.read_file (fixture "golden_speedscope.json")) in
  check_true "speedscope output matches the committed golden" (doc = golden)

let test_speedscope_multi_domain () =
  (* Two domains, each with its own root: one profile per domain, both
     structurally valid. *)
  let spans =
    [ mk ~id:1 ~name:"w0" ~domain:0 ~start:10. ~dur:1. ();
      mk ~id:2 ~name:"child" ~parent:1 ~domain:0 ~start:10.2 ~dur:0.5 ();
      mk ~id:3 ~name:"w1" ~domain:3 ~start:10.1 ~dur:2. () ]
  in
  let doc = Jsonl.parse (Trace.speedscope spans) in
  speedscope_check doc;
  match Jsonl.member "profiles" doc with
  | Some (Jsonl.Arr ps) -> check_int "one profile per domain" 2 (List.length ps)
  | _ -> Alcotest.fail "profiles missing"

(* ----------------------------------------------------------------- diff *)

let test_diff_self_is_zero () =
  let spans = golden_spans () in
  let rows = Trace.diff_rows ~old_spans:spans ~new_spans:spans in
  check_true "one row per kind" (rows <> []);
  List.iter
    (fun r ->
      let open Trace in
      check_int (r.d_kind ^ ": counts equal") r.old_count r.new_count;
      check_float (r.d_kind ^ ": zero delta") 0. r.delta_s;
      check_float (r.d_kind ^ ": zero pct") 0. r.delta_pct)
    rows;
  check_true "diff table renders"
    (String.length
       (Core.Prelude.Table.render
          (Trace.diff_table ~old_spans:spans ~new_spans:spans))
    > 0)

let test_diff_orders_regressions () =
  let old_spans =
    [ mk ~id:1 ~name:"a" ~dur:1.0 (); mk ~id:2 ~name:"b" ~start:2. ~dur:1.0 () ]
  in
  let new_spans =
    [ mk ~id:1 ~name:"a" ~dur:3.0 ();
      mk ~id:2 ~name:"b" ~start:4. ~dur:0.5 ();
      mk ~id:3 ~name:"c" ~start:9. ~dur:0.25 () ]
  in
  match Trace.diff_rows ~old_spans ~new_spans with
  | [ r1; r2; r3 ] ->
      let open Trace in
      check_true "worst regression first" (r1.d_kind = "a");
      check_float "a: +2s" 2.0 r1.delta_s;
      check_float "a: +200%" 200. r1.delta_pct;
      check_true "new kind reported" (r3.d_kind = "b" || r2.d_kind = "c");
      let c = List.find (fun r -> r.d_kind = "c") [ r1; r2; r3 ] in
      check_true "new kind has infinite pct" (c.delta_pct = infinity);
      check_int "new kind old count 0" 0 c.old_count
  | l -> Alcotest.failf "expected 3 rows, got %d" (List.length l)

(* ------------------------------------------------------ regression gate *)

let sample name mean stddev =
  {
    Regress.name;
    reps = 5;
    mean_s = mean;
    stddev_s = stddev;
    best_s = mean -. stddev;
  }

let test_check_self_comparison_passes () =
  let s = [ sample "zeta" 4.5e-3 5e-5; sample "phi" 0.8e-3 2e-5 ] in
  let rows = Regress.compare_samples ~baseline:s ~current:s in
  check_true "all rows pass"
    (List.for_all (fun r -> r.Regress.row_verdict = Regress.Pass) rows);
  check_int "exit 0 on self-comparison" 0
    (Regress.exit_code (Regress.overall rows))

let test_check_flags_synthetic_slowdown () =
  let baseline = [ sample "zeta" 4.5e-3 5e-5; sample "phi" 0.8e-3 2e-5 ] in
  (* 2x slowdown on zeta: beyond base + max(3 sigma, 50%), so hard. *)
  let current = [ sample "zeta" 9.0e-3 5e-5; sample "phi" 0.8e-3 2e-5 ] in
  let rows = Regress.compare_samples ~baseline ~current in
  let zeta = List.find (fun r -> r.Regress.r_name = "zeta") rows in
  check_true "2x slowdown is a hard regression"
    (zeta.Regress.row_verdict = Regress.Hard);
  check_int "exit 4 on hard regression" 4
    (Regress.exit_code (Regress.overall rows));
  (* 25% slowdown: beyond max(3 sigma, 15%) but within 50% — soft. *)
  let current = [ sample "zeta" 5.7e-3 5e-5; sample "phi" 0.8e-3 2e-5 ] in
  let rows = Regress.compare_samples ~baseline ~current in
  let zeta = List.find (fun r -> r.Regress.r_name = "zeta") rows in
  check_true "25% slowdown is a soft regression"
    (zeta.Regress.row_verdict = Regress.Soft);
  check_int "exit 3 on soft regression" 3
    (Regress.exit_code (Regress.overall rows));
  (* 10% is inside the noise band: not a finding. *)
  let current = [ sample "zeta" 4.95e-3 5e-5; sample "phi" 0.8e-3 2e-5 ] in
  let rows = Regress.compare_samples ~baseline ~current in
  check_int "10% is noise" 0 (Regress.exit_code (Regress.overall rows))

let test_check_noise_aware_threshold () =
  (* A noisy baseline (stddev 10% of mean) stretches the soft threshold
     to 3 sigma = 30%: a 25% delta that would fail a quiet baseline
     passes a noisy one. *)
  let noisy = [ sample "k" 1e-3 1e-4 ] in
  let cur = [ sample "k" 1.25e-3 1e-5 ] in
  let rows = Regress.compare_samples ~baseline:noisy ~current:cur in
  check_int "3 sigma dominates the 15% band" 0
    (Regress.exit_code (Regress.overall rows));
  (* No baseline entry: new benchmarks pass (annotated, not failed). *)
  let rows =
    Regress.compare_samples ~baseline:noisy
      ~current:[ sample "brand_new" 1. 0.1 ]
  in
  check_true "missing baseline passes"
    (List.for_all (fun r -> r.Regress.row_verdict = Regress.Pass) rows);
  check_true "check table renders"
    (String.length (Core.Prelude.Table.render (Regress.check_table rows)) > 0)

let test_baselines_round_trip () =
  let path = Filename.temp_file "bg_baselines" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let samples = [ sample "zeta" 4.5e-3 5e-5; sample "phi" 0.8e-3 2e-5 ] in
      Regress.write_baselines path samples;
      let back = Regress.load_baselines path in
      check_int "all samples round-trip" (List.length samples)
        (List.length back);
      List.iter2
        (fun a b ->
          check_true "name" (a.Regress.name = b.Regress.name);
          check_float ~eps:1e-15 "mean" a.Regress.mean_s b.Regress.mean_s;
          check_float ~eps:1e-15 "stddev" a.Regress.stddev_s
            b.Regress.stddev_s)
        samples back)

let test_history_appends () =
  let path = Filename.temp_file "bg_history" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let samples = [ sample "zeta" 4.5e-3 5e-5 ] in
      Regress.append_history ~path samples;
      Regress.append_history ~path samples;
      let lines = Jsonl.parse_lines (Jsonl.read_file path) in
      check_int "one line per record" 2 (List.length lines);
      List.iter
        (fun l ->
          check_true "typed line"
            (Jsonl.mem_str "type" l = Some "bench_history");
          check_true "sha recorded" (Jsonl.mem_str "sha" l <> None);
          match Jsonl.member "samples" l with
          | Some (Jsonl.Arr [ s ]) ->
              check_true "sample name kept"
                (Jsonl.mem_str "name" s = Some "zeta")
          | _ -> Alcotest.fail "samples array malformed")
        lines)

(* JSON emitter: parse . to_string = identity on the golden documents. *)
let test_jsonl_emitter_round_trip () =
  let doc = Jsonl.parse (Jsonl.read_file (fixture "golden_speedscope.json")) in
  check_true "emit/reparse is the identity"
    (Jsonl.parse (Jsonl.to_string doc) = doc);
  List.iter
    (fun line ->
      check_true "trace lines round-trip"
        (Jsonl.parse (Jsonl.to_string line) = line))
    (Jsonl.parse_lines (Jsonl.read_file (fixture "golden_trace.jsonl")))

(* ------------------------------------------------- cross-process merge *)

(* A two-process request: the client reserved span id 5 for its attempt
   and put it on the wire; the server's serve.request carries both the
   trace_id and that parent_span.  Both processes happen to reuse the
   same small span ids — the merge must keep them apart. *)
let client_spans =
  [
    mk ~id:5 ~parent:10 ~name:"client.attempt"
      ~attrs:[ ("trace_id", Jsonl.Str "t1") ]
      ~start:0.1 ~dur:0.4 ();
    mk ~id:10 ~parent:0 ~name:"client.request"
      ~attrs:[ ("trace_id", Jsonl.Str "t1") ]
      ~start:0.1 ~dur:0.5 ();
  ]

let server_spans =
  [
    mk ~id:3 ~parent:7 ~name:"serve.kernel" ~start:0.25 ~dur:0.1 ();
    (* Locally nested under the server's batch span: the wire parent
       must override this process-local grouping. *)
    mk ~id:7 ~parent:9 ~name:"serve.request"
      ~attrs:[ ("trace_id", Jsonl.Str "t1"); ("parent_span", Jsonl.Num 5.) ]
      ~start:0.2 ~dur:0.2 ();
    mk ~id:9 ~parent:0 ~name:"serve.batch" ~start:0.2 ~dur:0.3 ();
  ]

let find_span name spans = List.find (fun s -> s.Trace.name = name) spans

let test_merge_stitches_processes () =
  let merged = Trace.merge [ client_spans; server_spans ] in
  check_int "no span lost" 5 (List.length merged);
  let ids = List.map (fun s -> s.Trace.id) merged in
  check_int "remapped ids stay distinct" 5
    (List.length (List.sort_uniq compare ids));
  let attempt = find_span "client.attempt" merged in
  let request = find_span "client.request" merged in
  let serve = find_span "serve.request" merged in
  let kernel = find_span "serve.kernel" merged in
  check_int "wire parent_span overrides the local batch nesting"
    attempt.Trace.id serve.Trace.parent;
  check_int "local nesting survives the remap" request.Trace.id
    attempt.Trace.parent;
  check_int "server-local child follows its parent" serve.Trace.id
    kernel.Trace.parent;
  (* One tree with one root per request once filtered to its trace id. *)
  let t1 = Trace.filter_trace ~id:"t1" merged in
  check_int "request tree is complete" 4 (List.length t1);
  check_int "exactly one root per request" 1
    (List.length (List.filter (fun s -> s.Trace.parent = 0) t1))

let test_merge_degrades_without_target () =
  (* Server file alone: the wire parent lives in an absent client file —
     the span keeps its process-local parent instead of being dropped or
     orphaned. *)
  let merged = Trace.merge [ server_spans ] in
  check_int "nothing dropped" 3 (List.length merged);
  check_int "remote child keeps its local batch parent"
    (find_span "serve.batch" merged).Trace.id
    (find_span "serve.request" merged).Trace.parent

let test_filter_trace_follows_descendants () =
  let noise =
    [
      mk ~id:2 ~parent:0 ~name:"client.request"
        ~attrs:[ ("trace_id", Jsonl.Str "t2") ]
        ();
      mk ~id:4 ~parent:0 ~name:"analyze" ();
    ]
  in
  let merged = Trace.merge [ client_spans; server_spans; noise ] in
  let t1 = Trace.filter_trace ~id:"t1" merged in
  check_int "t1 keeps its four spans" 4 (List.length t1);
  check_true "untagged kernel child follows its parent"
    (List.exists (fun s -> s.Trace.name = "serve.kernel") t1);
  check_true "other traces excluded"
    (not (List.exists (fun s -> Trace.trace_id s = Some "t2") t1));
  check_int "t2 is just its root" 1
    (List.length (Trace.filter_trace ~id:"t2" merged));
  check_int "unknown trace id is empty" 0
    (List.length (Trace.filter_trace ~id:"zzz" merged))

let test_kinds_sorted_distinct () =
  check_true "kinds are sorted distinct names"
    (Trace.kinds (client_spans @ client_spans)
    = [ "client.attempt"; "client.request" ]);
  (* The disjoint check `bg trace diff` applies. *)
  let inter =
    List.filter
      (fun k -> List.mem k (Trace.kinds server_spans))
      (Trace.kinds client_spans)
  in
  check_int "client and server kinds are disjoint" 0 (List.length inter)

let test_tree_table_renders_merge () =
  let merged = Trace.merge [ client_spans; server_spans ] in
  let rendered =
    Core.Prelude.Table.render
      (Trace.tree_table ~title:"causal tree: t1"
         (Trace.filter_trace ~id:"t1" merged))
  in
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec go i =
      i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle -> check_true (needle ^ " rendered") (contains needle))
    [ "client.request"; "serve.kernel" ]

let suite =
  [
    ( "trace_tools.report",
      [
        case "golden trace loads" test_load_golden;
        case "self+child = total per kind" test_aggregate_conserves_time;
        case "log2-bucket quantile estimates" test_quantile_estimates;
        case "critical path descends heaviest children" test_critical_path;
      ] );
    ( "trace_tools.flame",
      [
        case "folded stacks round-trip nesting" test_folded_round_trips_nesting;
        case "speedscope valid + golden-pinned" test_speedscope_valid_and_golden;
        case "speedscope one profile per domain" test_speedscope_multi_domain;
      ] );
    ( "trace_tools.diff",
      [
        case "diff against itself is all-zero" test_diff_self_is_zero;
        case "diff orders regressions, marks new kinds"
          test_diff_orders_regressions;
      ] );
    ( "trace_tools.merge",
      [
        case "merge stitches client + server" test_merge_stitches_processes;
        case "merge degrades without its target"
          test_merge_degrades_without_target;
        case "filter_trace follows descendants"
          test_filter_trace_follows_descendants;
        case "kinds sorted, disjointness detectable"
          test_kinds_sorted_distinct;
        case "tree_table renders the causal tree"
          test_tree_table_renders_merge;
      ] );
    ( "trace_tools.regress",
      [
        case "self-comparison exits 0" test_check_self_comparison_passes;
        case "synthetic 2x slowdown exits nonzero"
          test_check_flags_synthetic_slowdown;
        case "thresholds are noise-aware" test_check_noise_aware_threshold;
        case "baselines round-trip" test_baselines_round_trip;
        case "history appends JSONL" test_history_appends;
        case "jsonl emitter round-trips" test_jsonl_emitter_round_trip;
      ] );
  ]
