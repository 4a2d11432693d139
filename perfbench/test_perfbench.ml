(* Tests for the benchmark's own arithmetic: percentiles and their
   sample counts, registry deltas, interval unions and the ledger
   residual. *)

open Perfbench
module Obs = Core.Prelude.Obs

let close = Alcotest.float 1e-12
let ints n = Array.init n float_of_int

let percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let p = Stats.percentile xs 0.5 in
  Alcotest.check close "p50 of 1..100" 50. p.value;
  Alcotest.(check int) "sample count" 100 p.samples;
  Alcotest.(check int) "samples beyond p50" 50 p.beyond;
  let p99 = Stats.percentile xs 0.99 in
  Alcotest.check close "p99 of 1..100" 99. p99.value;
  Alcotest.(check int) "samples beyond p99" 1 p99.beyond;
  Alcotest.check close "input left in place" 100. xs.(0);
  let one = Stats.percentile [| 7. |] 0.99 in
  Alcotest.check close "one sample" 7. one.value;
  Alcotest.(check int) "nothing beyond one sample" 0 one.beyond;
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile [||] 0.5))

(* A percentile is reported only with ten samples beyond it. *)
let ten_beyond () =
  let ok n q = Stats.reportable (Stats.percentile (ints n) q) in
  Alcotest.(check bool) "p99 of 1000" true (ok 1000 0.99);
  Alcotest.(check bool) "p99 of 999" false (ok 999 0.99);
  Alcotest.(check bool) "p75 of 40" true (ok 40 0.75);
  Alcotest.(check bool) "p75 of 39" false (ok 39 0.75);
  Alcotest.(check bool) "p50 of 20" true (ok 20 0.5);
  Alcotest.(check bool) "p50 of 19" false (ok 19 0.5);
  let tail n = (Stats.tail (ints n)).q in
  Alcotest.check close "tail of 1000 is p99" 0.99 (tail 1000);
  Alcotest.check close "tail of 504 is p95" 0.95 (tail 504);
  Alcotest.check close "tail of 40 is p75" 0.75 (tail 40);
  Alcotest.check close "tail of 5 falls back to p50" 0.5 (tail 5)

let hist count sum buckets = Obs.Histogram_snapshot { count; sum; buckets }

let deltas () =
  let before =
    [ ("a", Obs.Counter_snapshot 5); ("g", Obs.Gauge_snapshot 2.);
      ("h", hist 2 3. [ (10, 1); (12, 1) ]) ]
  in
  let after =
    [ ("a", Obs.Counter_snapshot 9); ("b", Obs.Counter_snapshot 4);
      ("g", Obs.Gauge_snapshot 7.); ("h", hist 5 10. [ (10, 2); (12, 1); (13, 2) ]) ]
  in
  let d = Stats.delta ~before ~after in
  Alcotest.(check int) "counter delta" 4 (Stats.counter d "a");
  Alcotest.(check int) "a counter registered inside counts from zero" 4 (Stats.counter d "b");
  Alcotest.(check int) "absent counter" 0 (Stats.counter d "missing");
  (match List.assoc "g" d with
  | Obs.Gauge_snapshot v -> Alcotest.check close "gauges are levels" 7. v
  | _ -> Alcotest.fail "gauge");
  (match List.assoc "h" d with
  | Obs.Histogram_snapshot h ->
      Alcotest.(check (list (pair int int))) "bucket deltas" [ (10, 1); (13, 2) ] h.buckets;
      Alcotest.(check int) "count delta" 3 h.count
  | _ -> Alcotest.fail "histogram");
  Alcotest.check close "mean of the delta" (7. /. 3.) (Stats.hist_mean d "h")

let live_registry () =
  let c = Obs.counter "perfbench.test.counter" in
  Obs.add c 3;
  let before = Obs.snapshot () in
  Obs.add c 5;
  let d = Stats.delta ~before ~after:(Obs.snapshot ()) in
  Alcotest.(check int) "only the increments inside the region" 5
    (Stats.counter d "perfbench.test.counter")

(* A histogram delta's quantile is the one Obs reports live for the
   same observations. *)
let delta_quantile () =
  let h = Obs.histogram "perfbench.test.hist" in
  Obs.observe h 100.;
  let before = Obs.snapshot () in
  List.iter (Obs.observe h) [ 0.001; 0.003; 0.003; 0.02; 0.5 ];
  let d = Stats.delta ~before ~after:(Obs.snapshot ()) in
  let fresh = Obs.histogram "perfbench.test.hist.fresh" in
  List.iter (Obs.observe fresh) [ 0.001; 0.003; 0.003; 0.02; 0.5 ];
  List.iter
    (fun q ->
      Alcotest.check close (Printf.sprintf "q=%g" q) (Obs.histogram_quantile fresh q)
        (Stats.hist_quantile d "perfbench.test.hist" q))
    [ 0.; 0.5; 0.9; 1. ];
  Alcotest.check close "empty delta" 0. (Stats.hist_quantile d "missing" 0.5)

let stage name total_s program_s = { Stats.name; total_s; program_s }

let residual () =
  let l = Stats.ledger ~wall_s:10. [ stage "a" 3. 1.; stage "b" 4.5 0. ] in
  Alcotest.check close "residual" 2.5 l.residual_s;
  Alcotest.check close "stages plus residual make the wall" 10.
    (List.fold_left (fun a (s : Stats.stage) -> a +. s.total_s) l.residual_s l.stages);
  let over = Stats.ledger ~wall_s:1. [ stage "a" 1.5 0. ] in
  Alcotest.check close "overlapping stages give a negative residual" (-0.5) over.residual_s;
  let c = Stats.collapse [ stage "a" 1. 0.5; stage "b" 2. 0.; stage "a" 3. 1. ] in
  Alcotest.(check (list string)) "first-seen order" [ "a"; "b" ]
    (List.map (fun (s : Stats.stage) -> s.name) c);
  Alcotest.check close "merged total" 4. (List.hd c).total_s;
  Alcotest.check close "merged program time" 1.5 (List.hd c).program_s

let intervals () =
  Alcotest.check close "overlaps counted once" 4.
    (Stats.union_length [ (5., 6.); (0., 2.); (1., 3.) ]);
  Alcotest.check close "nested" 2. (Stats.union_length [ (0., 2.); (0.5, 1.) ]);
  Alcotest.check close "empty" 0. (Stats.union_length []);
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "clip" [ (1., 2.) ]
    (Stats.clip (1., 2.) [ (0., 3.); (4., 5.) ])

let () =
  Alcotest.run "perfbench"
    [ ( "percentiles",
        [ Alcotest.test_case "values and sample counts" `Quick percentiles;
          Alcotest.test_case "ten samples beyond" `Quick ten_beyond ] );
      ( "deltas",
        [ Alcotest.test_case "snapshot arithmetic" `Quick deltas;
          Alcotest.test_case "live registry" `Quick live_registry;
          Alcotest.test_case "histogram quantile" `Quick delta_quantile ] );
      ( "ledger",
        [ Alcotest.test_case "residual" `Quick residual;
          Alcotest.test_case "intervals" `Quick intervals ] ) ]
