(* The observability layer itself is load-bearing (the kernels, the pool
   and the CLI all report through it), so it gets the same treatment as
   any subsystem: unit tests for the registry semantics, QCheck laws for
   the histogram bucketing and span nesting, determinism checks for the
   metrics that must not depend on the job count, and a committed golden
   file for the E1 trace shape. *)

module Obs = Core.Prelude.Obs
module Par = Core.Prelude.Parallel
module Met = Core.Decay.Metricity
module Ctx = Core.Decay.Ctx
module Jsonl = Core.Prelude.Jsonl
open Testutil

(* Run [f] with a fresh temp-file trace sink installed and return the
   text it wrote.  The sink is always closed and the file removed, also
   on exceptional exit. *)
let trace_to_text f =
  let path = Filename.temp_file "bg_obs_test" ".jsonl" in
  Obs.set_trace_file path;
  Fun.protect
    ~finally:(fun () ->
      Obs.close_trace ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      f ();
      Obs.close_trace ();
      Jsonl.read_file path)

(* ... and parsed as JSONL events. *)
let trace_to_events f = Jsonl.parse_lines (trace_to_text f)

let spans_of events =
  List.filter (fun e -> Jsonl.mem_str "type" e = Some "span") events

let req what = function
  | Some v -> v
  | None -> Alcotest.failf "missing %s in trace event" what

let span_id s = int_of_float (req "id" (Jsonl.mem_num "id" s))
let span_parent s = int_of_float (req "parent" (Jsonl.mem_num "parent" s))
let span_name s = req "name" (Jsonl.mem_str "name" s)
let span_attrs s =
  match Jsonl.member "attrs" s with Some (Jsonl.Obj kvs) -> kvs | _ -> []

(* --------------------------------------------------- metrics registry *)

let test_counter_basics () =
  let c = Obs.counter "test.obs.counter_basics" in
  let v0 = Obs.counter_value c in
  Obs.incr c;
  Obs.add c 41;
  check_int "incr + add" (v0 + 42) (Obs.counter_value c);
  check_true "name round-trips"
    (Obs.counter_name c = "test.obs.counter_basics");
  Obs.reset_counter c;
  check_int "reset_counter zeroes" 0 (Obs.counter_value c)

let test_registry_idempotent () =
  let a = Obs.counter "test.obs.idem" in
  Obs.incr a;
  let b = Obs.counter "test.obs.idem" in
  (* Same name -> same underlying metric. *)
  Obs.incr b;
  check_int "one shared counter" (Obs.counter_value a) (Obs.counter_value b);
  check_true "registered name listed"
    (List.mem "test.obs.idem" (Obs.metric_names ()));
  (* Re-registering under a different kind is a programming error. *)
  check_true "kind mismatch raises"
    (match Obs.gauge "test.obs.idem" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_true "histogram kind mismatch raises"
    (match Obs.histogram "test.obs.idem" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_gauge () =
  let g = Obs.gauge "test.obs.gauge" in
  Obs.set_gauge g 2.5;
  check_float "gauge holds last value" 2.5 (Obs.gauge_value g);
  Obs.set_gauge g (-7.);
  check_float "gauge overwritten" (-7.) (Obs.gauge_value g)

let test_histogram_basics () =
  let h = Obs.histogram "test.obs.hist_basics" in
  List.iter (Obs.observe h) [ 1.0; 2.0; 0.5; 1e-9; 0.; -3.; Float.nan ];
  check_int "count = observations" 7 (Obs.histogram_count h);
  (* NaN contributes nothing to the sum; sum over the finite values. *)
  check_float ~eps:1e-9 "sum over finite non-NaN values" 0.5
    (Obs.histogram_sum h -. (1.0 +. 2.0 +. 1e-9 +. 0. +. -3.));
  (* Non-positive and NaN all land in bucket 0. *)
  check_int "bucket 0 holds non-positive + NaN" 3 (Obs.histogram_bucket h 0)

let test_bucket_of_specials () =
  check_int "zero -> bucket 0" 0 (Obs.bucket_of 0.);
  check_int "negative -> bucket 0" 0 (Obs.bucket_of (-1.));
  check_int "NaN -> bucket 0" 0 (Obs.bucket_of Float.nan);
  check_int "-inf -> bucket 0" 0 (Obs.bucket_of Float.neg_infinity);
  check_int "+inf -> overflow bucket" (Obs.num_buckets - 1)
    (Obs.bucket_of Float.infinity);
  check_int "huge -> overflow bucket" (Obs.num_buckets - 1)
    (Obs.bucket_of 1e300);
  check_int "denormal -> lowest positive bucket" 1 (Obs.bucket_of 5e-324);
  check_int "1.0 -> bucket 31" 31 (Obs.bucket_of 1.0);
  check_float "bucket 31 lower bound is 1" 1. (Obs.bucket_lower_bound 31)

let fuzz_bucket_bounds =
  qcheck ~count:500 "bucket_of agrees with bucket_lower_bound edges"
    QCheck.(float)
    (fun v ->
      let b = Obs.bucket_of v in
      if b < 0 || b >= Obs.num_buckets then false
      else if not (v > 0.) then b = 0
      else if b = Obs.num_buckets - 1 then v >= Obs.bucket_lower_bound b
      else
        v >= Obs.bucket_lower_bound b && v < Obs.bucket_lower_bound (b + 1))

let fuzz_histogram_conservation =
  qcheck ~count:200 "histogram bucket counts sum to observation count"
    QCheck.(pair small_nat (list float))
    (fun (tag, vs) ->
      (* A per-case metric name keeps cases independent despite the
         process-global registry. *)
      let h =
        Obs.histogram (Printf.sprintf "test.obs.fuzz_conserv_%d" (tag mod 8))
      in
      let before = Obs.histogram_count h in
      List.iter (Obs.observe h) vs;
      let bucket_total = ref 0 in
      for i = 0 to Obs.num_buckets - 1 do
        bucket_total := !bucket_total + Obs.histogram_bucket h i
      done;
      Obs.histogram_count h = before + List.length vs
      && !bucket_total = Obs.histogram_count h)

let test_summary_table_covers_registry () =
  ignore (Obs.counter "test.obs.summary");
  let names = Obs.metric_names () in
  check_true "metric_names sorted"
    (names = List.sort compare names);
  (* The summary table renders without raising and is non-trivial; its
     exact formatting is covered by the Table tests. *)
  let t = Obs.summary_table () in
  check_true "summary table renders"
    (String.length (Core.Prelude.Table.render t) > 0)

(* ------------------------------------------------------------- spans *)

let test_disabled_fast_path () =
  (* No sink installed: with_span is transparent for values and
     exceptions, and attributes are no-ops. *)
  check_true "not tracing by default" (not (Obs.tracing ()));
  check_int "value passes through" 42
    (Obs.with_span "off" (fun () ->
         Obs.add_span_attr "k" (Obs.I 1);
         42));
  Alcotest.check_raises "exception passes through" (Failure "boom")
    (fun () -> Obs.with_span "off" (fun () -> failwith "boom"))

(* [analyze] explains its own wall time: each dimension estimator it
   calls is a child span. *)
let test_analyze_children () =
  let d = random_space ~n:10 5 in
  let spans =
    spans_of (trace_to_events (fun () -> ignore (Core.Analysis.run d)))
  in
  let analyze =
    match List.filter (fun s -> span_name s = "analyze") spans with
    | [ a ] -> a
    | l -> Alcotest.failf "%d analyze spans" (List.length l)
  in
  List.iter
    (fun name ->
      match List.filter (fun s -> span_name s = name) spans with
      | [ s ] ->
          check_int (name ^ " is a child of analyze") (span_id analyze)
            (span_parent s)
      | l -> Alcotest.failf "%d %s spans" (List.length l) name)
    [ "assouad"; "quasi_doubling"; "independence"; "guards" ]

let test_span_structure () =
  let events =
    trace_to_events (fun () ->
        check_true "tracing while sink installed" (Obs.tracing ());
        Obs.with_span ~attrs:[ ("root", Obs.B true) ] "outer" (fun () ->
            Obs.with_span "inner1" (fun () ->
                Obs.add_span_attr "k" (Obs.S "v\"with\nescapes"));
            Obs.with_span "inner2" (fun () ->
                Obs.with_span "leaf" (fun () -> ()));
            try Obs.with_span "boom" (fun () -> failwith "expected")
            with Failure _ -> ()))
  in
  let spans = spans_of events in
  check_int "five spans emitted" 5 (List.length spans);
  let by_name n = List.find (fun s -> span_name s = n) spans in
  let ids = List.map span_id spans in
  check_int "ids unique" 5 (List.length (List.sort_uniq compare ids));
  (* Children close (and are emitted) before their parents. *)
  let pos s =
    let rec go i = function
      | [] -> Alcotest.fail "span not found"
      | x :: rest -> if x == s then i else go (i + 1) rest
    in
    go 0 spans
  in
  List.iter
    (fun s ->
      let p = span_parent s in
      if p <> 0 then begin
        let parent =
          try List.find (fun x -> span_id x = p) spans
          with Not_found -> Alcotest.failf "parent %d missing" p
        in
        check_true
          (Printf.sprintf "%s emitted before its parent %s" (span_name s)
             (span_name parent))
          (pos s < pos parent);
        (* Wall-clock containment with a loose epsilon. *)
        let start x = req "start_s" (Jsonl.mem_num "start_s" x) in
        let dur x = req "dur_s" (Jsonl.mem_num "dur_s" x) in
        let eps = 1e-3 in
        check_true "child starts after parent"
          (start s +. eps >= start parent);
        check_true "child ends before parent"
          (start s +. dur s <= start parent +. dur parent +. eps)
      end)
    spans;
  check_int "outer is a root span" 0 (span_parent (by_name "outer"));
  check_int "inner1 nests under outer" (span_id (by_name "outer"))
    (span_parent (by_name "inner1"));
  check_int "leaf nests under inner2" (span_id (by_name "inner2"))
    (span_parent (by_name "leaf"));
  (* Attribute round-trip, including the escaped string. *)
  check_true "outer keeps its attrs"
    (List.assoc_opt "root" (span_attrs (by_name "outer"))
    = Some (Jsonl.Bool true));
  check_true "add_span_attr lands on innermost span"
    (List.assoc_opt "k" (span_attrs (by_name "inner1"))
    = Some (Jsonl.Str "v\"with\nescapes"));
  (* The raising span reports the failure; the others succeed. *)
  let boom = by_name "boom" in
  check_true "raising span has ok:false"
    (Jsonl.mem_bool "ok" boom = Some false);
  check_true "raising span records the error"
    (match List.assoc_opt "error" (span_attrs boom) with
    | Some (Jsonl.Str e) ->
        (* The exception is rendered via Printexc. *)
        String.length e > 0
    | _ -> false);
  List.iter
    (fun s ->
      if span_name s <> "boom" then
        check_true (span_name s ^ " has ok:true")
          (Jsonl.mem_bool "ok" s = Some true))
    spans

let fuzz_span_nesting =
  (* Random nesting shapes: every emitted span's parent chain must reach
     a root, and every child must appear in the file strictly before its
     parent (spans are emitted on close).  That is exactly
     well-parenthesizedness of the span intervals. *)
  qcheck ~count:30 "span nesting is well-parenthesized in JSONL output"
    QCheck.(list_of_size Gen.(int_range 0 12) (int_bound 2))
    (fun shape ->
      let events =
        trace_to_events (fun () ->
            let rec emit = function
              | [] -> ()
              | 0 :: rest ->
                  Obs.with_span "leaf" (fun () -> ());
                  emit rest
              | _ :: rest -> Obs.with_span "node" (fun () -> emit rest)
            in
            emit shape)
      in
      let spans = spans_of events in
      let arr = Array.of_list spans in
      let index_of_id id =
        let found = ref (-1) in
        Array.iteri (fun i s -> if span_id s = id then found := i) arr;
        !found
      in
      List.length spans = List.length shape
      && Array.for_all
           (fun s ->
             let p = span_parent s in
             p = 0
             ||
             let pi = index_of_id p in
             pi >= 0 && index_of_id (span_id s) < pi)
           arr)

let test_flush_metrics_round_trip () =
  let c = Obs.counter "test.obs.flush.counter" in
  let g = Obs.gauge "test.obs.flush.gauge" in
  let h = Obs.histogram "test.obs.flush.hist" in
  Obs.reset_counter c;
  Obs.add c 7;
  Obs.set_gauge g 1.5;
  List.iter (Obs.observe h) [ 0.25; 4.0; -1.0 ];
  let h_count0 = Obs.histogram_count h in
  let events = trace_to_events (fun () -> Obs.flush_metrics ()) in
  let find_metric ty name =
    List.find_opt
      (fun e ->
        Jsonl.mem_str "type" e = Some ty && Jsonl.mem_str "name" e = Some name)
      events
  in
  (match find_metric "counter" "test.obs.flush.counter" with
  | Some e -> check_float "counter value flushed" 7. (req "value" (Jsonl.mem_num "value" e))
  | None -> Alcotest.fail "counter event missing");
  (match find_metric "gauge" "test.obs.flush.gauge" with
  | Some e -> check_float "gauge value flushed" 1.5 (req "value" (Jsonl.mem_num "value" e))
  | None -> Alcotest.fail "gauge event missing");
  (match find_metric "histogram" "test.obs.flush.hist" with
  | Some e ->
      check_float "histogram count flushed" (float_of_int h_count0)
        (req "count" (Jsonl.mem_num "count" e));
      let buckets =
        match Jsonl.member "buckets" e with
        | Some (Jsonl.Obj kvs) -> kvs
        | _ -> Alcotest.fail "histogram buckets missing"
      in
      let total =
        List.fold_left
          (fun acc (_, v) -> acc + int_of_float (req "bucket" (Jsonl.num v)))
          0 buckets
      in
      check_int "sparse buckets sum to count" h_count0 total;
      (* Sparse encoding: empty buckets are not written. *)
      check_true "no zero buckets emitted"
        (List.for_all (fun (_, v) -> Jsonl.num v <> Some 0.) buckets)
  | None -> Alcotest.fail "histogram event missing");
  (* Every registered metric appears exactly once in a flush. *)
  let flushed =
    List.filter_map
      (fun e ->
        match Jsonl.mem_str "type" e with
        | Some ("counter" | "gauge" | "histogram") -> Jsonl.mem_str "name" e
        | _ -> None)
      events
  in
  check_true "flush covers the registry, once per metric"
    (List.sort compare flushed = Obs.metric_names ())

(* -------------------------------------------------- per-span profiling *)

(* List.init n (fun i -> (i, i)) allocates ~6 words per element (a
   3-word tuple block plus a 3-word cons cell).  Under OCaml 5 part of
   that shows up as promoted/major words once the minor heap cycles, so
   only require the minor-words delta to be >= 1 word per element —
   still four orders of magnitude above what a non-capturing span would
   report. *)
let alloc_elems = 100_000
let min_expected_words = float_of_int alloc_elems

let with_profile f =
  Obs.set_profile true;
  Fun.protect ~finally:(fun () -> Obs.set_profile false) f

let test_profile_captures_gc_deltas () =
  check_false "profiling off by default" (Obs.profiling ());
  let events =
    with_profile (fun () ->
        check_true "profiling on" (Obs.profiling ());
        trace_to_events (fun () ->
            Obs.with_span "alloc" (fun () ->
                let l = List.init alloc_elems (fun i -> (i, i)) in
                ignore (Sys.opaque_identity l))))
  in
  let span = List.hd (spans_of events) in
  let attr k =
    match List.assoc_opt k (span_attrs span) with
    | Some (Jsonl.Num v) -> v
    | _ -> Alcotest.failf "profiled span missing numeric attr %s" k
  in
  let minor = attr "gc.minor_words" in
  check_true "minor_words covers the known allocation"
    (minor >= min_expected_words);
  (* Generous ceiling: the span allocated ~0.6M words; two orders of
     magnitude of slack absorbs List.init internals and GC bookkeeping. *)
  check_true "minor_words not absurdly large"
    (minor <= 100. *. min_expected_words);
  check_true "cpu time sane"
    (attr "cpu_s" >= 0. && attr "cpu_s" < 60.);
  List.iter
    (fun k -> check_true (k ^ " non-negative") (attr k >= 0.))
    [ "gc.major_words"; "gc.promoted_words"; "gc.minor_collections";
      "gc.major_collections"; "gc.heap_words" ];
  (* alloc_bytes is derived from the word deltas. *)
  let words =
    attr "gc.minor_words" +. attr "gc.major_words"
    -. attr "gc.promoted_words"
  in
  check_float ~eps:1.
    "alloc_bytes = (minor + major - promoted) words in bytes"
    (words *. float_of_int (Sys.word_size / 8))
    (attr "gc.alloc_bytes")

let test_no_gc_attrs_without_profile () =
  (* Tracing alone must not change span payloads: no gc.* or cpu_s
     attrs unless profiling was requested. *)
  let events =
    trace_to_events (fun () ->
        Obs.with_span "plain" (fun () ->
            ignore (Sys.opaque_identity (List.init 10_000 Fun.id))))
  in
  let span = List.hd (spans_of events) in
  List.iter
    (fun (k, _) ->
      check_false ("unexpected profiling attr " ^ k)
        (k = "cpu_s" || String.length k >= 3 && String.sub k 0 3 = "gc."))
    (span_attrs span)

let test_unwritable_trace_path () =
  (* The CLI maps this Sys_error to a usage error (exit 2); the library
     contract is that the raise happens eagerly at install time and
     leaves tracing disabled. *)
  check_true "set_trace_file raises on unwritable path"
    (match Obs.set_trace_file "/nonexistent_bg_dir/trace.jsonl" with
    | () -> false
    | exception Sys_error _ -> true);
  check_false "sink not installed after failure" (Obs.tracing ())

(* ----------------------------------------------------- pinned line bytes *)

(* The trace format is a contract with every reader (bg trace, perfbench,
   jq).  These literals are the bytes the encoder wrote before Obs moved
   onto Jsonl's buffer writers: string escapes, 63-bit ints and every
   float class (negative zero, infinities, NaN, subnormal, integral,
   1e15) must keep them. *)
let tricky = "q\"b\\s\nn\tt\rr\001c\031e"

let pinned_spans =
  [ {|{"type":"span","id":7,"parent":3,"domain":0,"name":"span q\"b\\s\nn\tt\rr\u0001c\u001fe","start_s":1234567890.125,"dur_s":4.9406564584124654e-324,"ok":false,"attrs":{"s":"q\"b\\s\nn\tt\rr\u0001c\u001fe","neg":-42,"max":4611686018427387903,"min":-4611686018427387904,"negzero":-0,"inf":"infinity","ninf":"-infinity","nan":"nan","sub":4.9406564584124654e-324,"int":3,"big":1000000000000000,"frac":0.10000000000000001,"t":true,"f":false}}|};
    {|{"type":"span","id":4611686018427387903,"parent":0,"domain":0,"name":"plain","start_s":1000000000000000,"dur_s":-0,"ok":true,"attrs":{}}|};
    {|{"type":"span","id":_,"parent":0,"domain":0,"name":"outer","start_s":_,"dur_s":_,"ok":true,"attrs":{"a":-1,"later":2.5}}|} ]

let pinned_metrics =
  [ {|{"type":"counter","name":"test.obs.pin.c q\"b\\s\nn\tt\rr\u0001c\u001fe","value":4611686018427387903}|};
    {|{"type":"counter","name":"test.obs.pin.c.neg","value":-7}|};
    {|{"type":"gauge","name":"test.obs.pin.g0","value":-0}|};
    {|{"type":"gauge","name":"test.obs.pin.g1","value":"infinity"}|};
    {|{"type":"gauge","name":"test.obs.pin.g2","value":"-infinity"}|};
    {|{"type":"gauge","name":"test.obs.pin.g3","value":"nan"}|};
    {|{"type":"gauge","name":"test.obs.pin.g4","value":4.9406564584124654e-324}|};
    {|{"type":"gauge","name":"test.obs.pin.g5","value":3}|};
    {|{"type":"gauge","name":"test.obs.pin.g6","value":1000000000000000}|};
    {|{"type":"gauge","name":"test.obs.pin.g7","value":0.10000000000000001}|};
    {|{"type":"gauge","name":"test.obs.pin.g8","value":-2.4999999999999999e-07}|};
    {|{"type":"histogram","name":"test.obs.pin.h","count":5,"sum":1e+40,"buckets":{"0":1,"21":1,"31":1,"32":1,"63":1}}|};
    {|{"type":"histogram","name":"test.obs.pin.h.empty","count":0,"sum":0,"buckets":{}}|} ]

(* Replace the value of [key] (up to the next comma) by "_": with_span's
   id and timings differ run to run, its layout must not. *)
let mask key line =
  let pat = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if String.sub line i (String.length pat) = pat then i + String.length pat
    else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from line start ',' in
  String.sub line 0 start ^ "_"
  ^ String.sub line stop (String.length line - stop)

let test_pinned_line_bytes () =
  let text =
    trace_to_text (fun () ->
        ignore
          (Obs.emit_span_at ~parent:3 ~id:7 ~ok:false ~name:("span " ^ tricky)
             ~start_s:1234567890.125 ~dur_s:4.9e-324
             ~attrs:
               [ ("s", Obs.S tricky); ("neg", Obs.I (-42));
                 ("max", Obs.I max_int); ("min", Obs.I min_int);
                 ("negzero", Obs.F (-0.)); ("inf", Obs.F infinity);
                 ("ninf", Obs.F neg_infinity); ("nan", Obs.F Float.nan);
                 ("sub", Obs.F 5e-324); ("int", Obs.F 3.);
                 ("big", Obs.F 1e15); ("frac", Obs.F 0.1);
                 ("t", Obs.B true); ("f", Obs.B false) ]
             ());
        ignore
          (Obs.emit_span_at ~name:"plain" ~parent:0 ~id:max_int ~start_s:1e15
             ~dur_s:(-0.) ());
        Obs.with_span ~attrs:[ ("a", Obs.I (-1)) ] "outer" (fun () ->
            Obs.add_span_attr "later" (Obs.F 2.5));
        let c = Obs.counter ("test.obs.pin.c " ^ tricky) in
        Obs.reset_counter c;
        Obs.add c max_int;
        let neg = Obs.counter "test.obs.pin.c.neg" in
        Obs.reset_counter neg;
        Obs.add neg (-7);
        List.iteri
          (fun i v ->
            Obs.set_gauge (Obs.gauge (Printf.sprintf "test.obs.pin.g%d" i)) v)
          [ -0.; infinity; neg_infinity; Float.nan; 5e-324; 3.; 1e15; 0.1;
            -2.5e-7 ];
        let h = Obs.histogram "test.obs.pin.h" in
        List.iter (Obs.observe h) [ -0.5; 1.5; 3.0; 1e40; 0.001 ];
        ignore (Obs.histogram "test.obs.pin.h.empty");
        Obs.flush_metrics ())
  in
  let lines = String.split_on_char '\n' text in
  let has_prefix p l = String.starts_with ~prefix:p l in
  let spans =
    List.filter (has_prefix {|{"type":"span"|}) lines
    |> List.map (fun l ->
           if has_prefix {|{"type":"span","id":7,|} l
              || has_prefix {|{"type":"span","id":4611686018427387903,|} l
           then l
           else mask "dur_s" (mask "start_s" (mask "id" l)))
  in
  Alcotest.(check (list string)) "span lines" pinned_spans spans;
  let metrics =
    List.filter
      (fun l ->
        l <> ""
        && (not (has_prefix {|{"type":"span"|} l))
        && String.starts_with ~prefix:"test.obs.pin."
             (Option.value ~default:"" (Jsonl.mem_str "name" (Jsonl.parse l))))
      lines
  in
  Alcotest.(check (list string)) "metric lines" pinned_metrics metrics

(* ------------------------------------ determinism across job counts *)

let sweep_counters_for ~jobs =
  let sp = random_space ~n:16 77 in
  let (), k =
    kernel_deltas (fun () ->
        let w1 = Met.zeta_witness ~ctx:(Ctx.make ~jobs ()) sp in
        let w2 = Met.zeta_witness ~ctx:(Ctx.make ~jobs ()) sp in
        check_true "repeated witness identical"
          (w1.Met.x = w2.Met.x && w1.Met.y = w2.Met.y && w1.Met.z = w2.Met.z
          && Float.equal w1.Met.value w2.Met.value))
  in
  (List.assoc "sweeps" k, List.assoc "triples" k)

let test_cache_metrics_job_invariant () =
  (* Executed-sweep accounting is deterministic and must not depend on
     the parallelism degree. *)
  let a = sweep_counters_for ~jobs:1 in
  let b = sweep_counters_for ~jobs:4 in
  let sweeps, triples = a in
  check_int "one executed sweep per call" 2 sweeps;
  check_int "triples = 2 n(n-1)(n-2)" (2 * 16 * 15 * 14) triples;
  check_true "identical metrics at jobs=1 and jobs=4" (a = b)

let test_kernel_stats_deterministic_at_jobs4 () =
  (* Regression for the per-chunk tally merge: before it, the pruning
     counters raced under Parallel and two identical jobs=4 sweeps could
     disagree.  Now a sweep's tally is a pure function of (space, jobs). *)
  let sp = random_space ~n:20 912 in
  let snap jobs =
    snd
      (kernel_deltas (fun () ->
           ignore (Met.zeta_witness ~ctx:(Ctx.make ~jobs ()) sp)))
  in
  let a = snap 4 and b = snap 4 in
  let k name = List.assoc name a in
  check_true "jobs=4 tallies reproducible" (a = b);
  check_int "one sweep per run" 1 (k "sweeps");
  check_int "triple coverage recorded" (20 * 19 * 18) (k "triples");
  check_true "counters non-negative" (List.for_all (fun (_, v) -> v >= 0) a);
  check_true "bisections only on deep triples" (k "bisections" <= k "deep");
  check_true "deep triples are covered triples" (k "deep" <= k "triples");
  let f = pruned_fraction a in
  check_true "pruned fraction in [0,1]" (f >= 0. && f <= 1.);
  (* phi sweeps merge tallies through the same path. *)
  let psnap jobs =
    snd
      (kernel_deltas (fun () ->
           ignore (Met.phi_witness ~ctx:(Ctx.make ~jobs ()) sp)))
  in
  check_true "phi jobs=4 tallies reproducible" (psnap 4 = psnap 4)

let test_worker_tally_merge () =
  (* Per-worker task counts are kept per pool and merged on read; the
     process-global counters see every task exactly once. *)
  let m_worker = Obs.counter "parallel.worker_tasks" in
  let m_caller = Obs.counter "parallel.caller_tasks" in
  let pool = Par.create ~num_domains:3 () in
  let n = 16 in
  let w0 = Obs.counter_value m_worker and c0 = Obs.counter_value m_caller in
  let out = Par.run ~pool (Array.init n (fun k () -> k * k)) in
  check_true "results in order" (out = Array.init n (fun k -> k * k));
  let dequeued =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (Par.worker_task_counts pool)
  in
  (* Task 0 runs in the caller without queueing; the other n-1 are
     dequeued by workers or by the helping caller and land in the pool
     tally either way. *)
  check_int "pool tally sees every queued task" (n - 1) dequeued;
  check_int "global counters see every task once" n
    (Obs.counter_value m_worker - w0 + (Obs.counter_value m_caller - c0));
  (* A second batch accumulates. *)
  ignore (Par.run ~pool (Array.init n (fun k () -> k)));
  let dequeued2 =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (Par.worker_task_counts pool)
  in
  check_int "tally accumulates across batches" (2 * (n - 1)) dequeued2;
  check_true "tally keys are sorted domain ids"
    (let ks = List.map fst (Par.worker_task_counts pool) in
     ks = List.sort_uniq compare ks);
  Par.shutdown pool;
  (* Queue-wait histogram observed one sample per queued task (among
     whatever other tests contributed). *)
  check_true "queue wait histogram populated"
    (Obs.histogram_count (Obs.histogram "parallel.queue_wait_s") >= n - 1)

(* ------------------------------------------------------ golden trace *)

(* Normalize a trace to its shape: span names in emission order, each
   with only its string/bool attributes (ids, timings and sizes vary run
   to run; the shape must not). *)
let normalize_spans spans =
  List.map
    (fun s ->
      let keep =
        List.filter_map
          (fun (k, v) ->
            match v with
            | Jsonl.Str x -> Some (Printf.sprintf "%s=%s" k x)
            | Jsonl.Bool b -> Some (Printf.sprintf "%s=%b" k b)
            | _ -> None)
          (span_attrs s)
      in
      match keep with
      | [] -> span_name s
      | ks -> span_name s ^ " " ^ String.concat " " ks)
    spans

let test_golden_e1_trace () =
  (* An isolated E1 run produces a stable trace shape: its analysis
     sweeps, then exactly one experiment span carrying the verdict.
     Committed as test/golden_e1_trace.txt; regenerate with `dune
     runtest` after an intentional trace-shape change and copy the
     diff. *)
  let entry =
    match Bg_experiments.Registry.find "E1" with
    | Some e -> e
    | None -> Alcotest.fail "E1 not registered"
  in
  let events =
    trace_to_events (fun () ->
        let r = Bg_experiments.Isolate.run_entry entry in
        check_true "E1 passes" (Bg_experiments.Isolate.passed r))
  in
  (* Every line parsed (Jsonl.parse_lines already raised otherwise); the
     trace contains exactly one experiment span, and it carries E1's
     verdict. *)
  let spans = spans_of events in
  let exps = List.filter (fun s -> span_name s = "experiment") spans in
  check_int "exactly one span per experiment run" 1 (List.length exps);
  let e = List.hd exps in
  check_true "experiment span names its id"
    (List.assoc_opt "id" (span_attrs e) = Some (Jsonl.Str "E1"));
  check_true "experiment span records pass"
    (List.assoc_opt "pass" (span_attrs e) = Some (Jsonl.Bool true));
  check_true "experiment span records the verdict"
    (List.assoc_opt "verdict" (span_attrs e) = Some (Jsonl.Str "PASS"));
  check_int "experiment span is the trace root" 0 (span_parent e);
  (* All other spans hang off the experiment span (directly or not). *)
  let ids = List.map span_id spans in
  List.iter
    (fun s ->
      let p = span_parent s in
      check_true (span_name s ^ " linked into the trace")
        (p = 0 || List.mem p ids))
    spans;
  let golden_path =
    (* cwd is _build/default/test under `dune runtest`, but the project
       root under `dune exec test/test_main.exe`. *)
    if Sys.file_exists "golden_e1_trace.txt" then "golden_e1_trace.txt"
    else "test/golden_e1_trace.txt"
  in
  let golden =
    Jsonl.read_file golden_path
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check (list string))
    "trace shape matches the committed golden" golden (normalize_spans spans)

(* The traced CLI run CI archives, checked in tier-1: `bg experiment E1
   --trace FILE --profile --metrics` writes a file whose every line the
   one codec parses, with span, counter and histogram lines, and an
   experiment span carrying the verdict and the profiling deltas. *)
let test_cli_experiment_trace () =
  if not (Sys.file_exists bg_exe) then Alcotest.skip ()
  else begin
    let out = Filename.temp_file "bg-experiment" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
    let code =
      Sys.command
        (Filename.quote_command bg_exe ~stdout:"/dev/null"
           [ "experiment"; "E1"; "--trace"; out; "--profile"; "--metrics" ])
    in
    check_int "bg experiment exit code" 0 code;
    let events = Jsonl.parse_lines (Jsonl.read_file out) in
    let kinds = List.filter_map (Jsonl.mem_str "type") events in
    List.iter
      (fun k -> check_true (k ^ " lines present") (List.mem k kinds))
      [ "span"; "counter"; "histogram" ];
    match
      List.filter (fun s -> span_name s = "experiment") (spans_of events)
    with
    | [ e ] ->
        let attr k = List.assoc_opt k (span_attrs e) in
        check_true "experiment span names its id"
          (attr "id" = Some (Jsonl.Str "E1"));
        check_true "experiment span records the verdict"
          (attr "verdict" = Some (Jsonl.Str "PASS"));
        check_true "experiment span records pass"
          (attr "pass" = Some (Jsonl.Bool true));
        check_true "--profile adds allocation deltas"
          (attr "gc.alloc_bytes" <> None)
    | l -> Alcotest.failf "expected one experiment span, got %d" (List.length l)
  end

(* ------------------------------------------------- quantile estimation *)

(* The telemetry snapshotter and `bg top` read p50/p99 straight off the
   registry, so the estimator's edges are contract, not detail. *)

let test_quantile_empty () =
  let h = Obs.histogram "test.obs.q_empty" in
  List.iter
    (fun q ->
      check_float
        (Printf.sprintf "empty histogram q=%g is 0" q)
        0.
        (Obs.histogram_quantile h q))
    [ 0.; 0.5; 1. ]

let test_quantile_single_bucket () =
  let h = Obs.histogram "test.obs.q_single" in
  for _ = 1 to 100 do
    Obs.observe h 1.5
  done;
  (* Every rank lands in the one occupied bucket, reported at its
     geometric midpoint. *)
  let mid = Obs.bucket_lower_bound (Obs.bucket_of 1.5) *. Float.sqrt 2. in
  List.iter
    (fun q ->
      check_float ~eps:1e-12
        (Printf.sprintf "q=%g at the geometric midpoint" q)
        mid
        (Obs.histogram_quantile h q))
    [ 0.; 0.5; 0.99; 1. ];
  (* Out-of-range quantiles clamp instead of raising. *)
  check_float ~eps:1e-12 "q<0 clamps to 0" mid (Obs.histogram_quantile h (-1.));
  check_float ~eps:1e-12 "q>1 clamps to 1" mid (Obs.histogram_quantile h 2.)

let test_quantile_overflow_mass () =
  let h = Obs.histogram "test.obs.q_overflow" in
  List.iter (Obs.observe h) [ 1e300; Float.infinity; 1e305 ];
  (* The overflow bucket has no midpoint; its lower bound is the honest
     (under-)estimate. *)
  let lo = Obs.bucket_lower_bound (Obs.num_buckets - 1) in
  check_float "p50 reads the overflow lower bound" lo
    (Obs.histogram_quantile h 0.5);
  check_float "p99 too" lo (Obs.histogram_quantile h 0.99)

let test_quantile_nonpositive_mass () =
  let h = Obs.histogram "test.obs.q_zero" in
  List.iter (Obs.observe h) [ 0.; -1.; Float.nan ];
  check_float "all-nonpositive mass reads as 0" 0.
    (Obs.histogram_quantile h 0.9)

(* ------------------------------------------- backdated spans, snapshot *)

let test_alloc_and_emit_backdated () =
  let reserved = ref 0 in
  let events =
    trace_to_events (fun () ->
      let id = Obs.alloc_span_id () in
      reserved := id;
      check_true "alloc ids advance" (Obs.alloc_span_id () > id);
      check_int "no span open outside with_span" 0 (Obs.current_span_id ());
      Obs.with_span "outer" (fun () ->
          check_true "current_span_id names the open span"
            (Obs.current_span_id () > 0));
      check_int "span close restores no-open state" 0 (Obs.current_span_id ());
      let used =
        Obs.emit_span_at
          ~attrs:[ ("trace_id", Obs.S "t0-r000001") ]
          ~parent:0 ~id ~ok:false ~name:"client.request" ~start_s:1.
          ~dur_s:0.5 ()
      in
      check_int "emit_span_at uses the reserved id" id used)
  in
  match
    List.filter (fun s -> span_name s = "client.request") (spans_of events)
  with
  | [ s ] ->
      check_int "reserved id on the wire" !reserved (span_id s);
      check_int "emitted as a root" 0 (span_parent s);
      check_true "ok:false preserved" (Jsonl.mem_bool "ok" s = Some false);
      check_true "trace_id attribute preserved"
        (List.assoc_opt "trace_id" (span_attrs s)
        = Some (Jsonl.Str "t0-r000001"));
      check_float "backdated start" 1. (req "start" (Jsonl.mem_num "start_s" s));
      check_float "explicit duration" 0.5 (req "dur" (Jsonl.mem_num "dur_s" s))
  | l ->
      Alcotest.failf "expected one client.request span, got %d" (List.length l)

let test_emit_span_at_without_sink () =
  Obs.close_trace ();
  check_int "no sink: emit_span_at is a 0 no-op" 0
    (Obs.emit_span_at ~name:"x" ~start_s:0. ~dur_s:0. ())

let test_snapshot_covers_metrics () =
  let c = Obs.counter "test.obs.snap_counter" in
  Obs.add c 3;
  let g = Obs.gauge "test.obs.snap_gauge" in
  Obs.set_gauge g 1.25;
  let h = Obs.histogram "test.obs.snap_hist" in
  List.iter (Obs.observe h) [ 0.5; 2. ];
  let snap = Obs.snapshot () in
  (match List.assoc_opt "test.obs.snap_counter" snap with
  | Some (Obs.Counter_snapshot n) -> check_int "counter value" 3 n
  | _ -> Alcotest.fail "counter missing from snapshot");
  (match List.assoc_opt "test.obs.snap_gauge" snap with
  | Some (Obs.Gauge_snapshot v) -> check_float "gauge value" 1.25 v
  | _ -> Alcotest.fail "gauge missing from snapshot");
  match List.assoc_opt "test.obs.snap_hist" snap with
  | Some (Obs.Histogram_snapshot { count; sum; buckets }) ->
      check_int "histogram count" 2 count;
      check_float ~eps:1e-12 "histogram sum" 2.5 sum;
      check_int "sparse buckets carry all the mass" 2
        (List.fold_left (fun acc (_, n) -> acc + n) 0 buckets)
  | _ -> Alcotest.fail "histogram missing from snapshot"

let suite =
  [
    ( "obs.metrics",
      [
        case "counter basics" test_counter_basics;
        case "registry idempotent, kind-checked" test_registry_idempotent;
        case "gauge" test_gauge;
        case "histogram basics" test_histogram_basics;
        case "bucket_of specials" test_bucket_of_specials;
        fuzz_bucket_bounds;
        fuzz_histogram_conservation;
        case "summary covers registry" test_summary_table_covers_registry;
        case "quantile: empty histogram" test_quantile_empty;
        case "quantile: single occupied bucket" test_quantile_single_bucket;
        case "quantile: all mass in overflow" test_quantile_overflow_mass;
        case "quantile: non-positive mass" test_quantile_nonpositive_mass;
        case "snapshot covers every metric kind" test_snapshot_covers_metrics;
      ] );
    ( "obs.spans",
      [
        case "disabled fast path is transparent" test_disabled_fast_path;
        case "span structure, attrs, errors" test_span_structure;
        case "analyze's estimators are child spans" test_analyze_children;
        fuzz_span_nesting;
        case "flush_metrics round-trips" test_flush_metrics_round_trip;
        case "span and metric lines pinned byte for byte"
          test_pinned_line_bytes;
        case "alloc + backdated emit_span_at" test_alloc_and_emit_backdated;
        case "emit_span_at without a sink" test_emit_span_at_without_sink;
      ] );
    ( "obs.profiling",
      [
        case "profiled spans carry GC deltas" test_profile_captures_gc_deltas;
        case "no GC attrs without --profile" test_no_gc_attrs_without_profile;
        case "unwritable trace path raises eagerly" test_unwritable_trace_path;
      ] );
    ( "obs.determinism",
      [
        case "cache metrics jobs-invariant" test_cache_metrics_job_invariant;
        case "kernel tallies deterministic at jobs=4"
          test_kernel_stats_deterministic_at_jobs4;
        case "per-worker tallies merge" test_worker_tally_merge;
      ] );
    ( "obs.golden",
      [ case "E1 trace shape" test_golden_e1_trace;
        case "bg experiment --trace lines" test_cli_experiment_trace ] );
  ]
