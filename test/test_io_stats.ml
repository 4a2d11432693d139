(* Tests for decay-matrix I/O, decay statistics, online capacity and
   distributed contention resolution. *)

open Testutil
module D = Core.Decay.Decay_space
module Met = Core.Decay.Metricity
module Io = Core.Decay.Decay_io
module St = Core.Decay.Statistics
module On = Core.Capacity.Online
module Cont = Core.Distrib.Contention
module I = Core.Sinr.Instance
module Pw = Core.Sinr.Power
module Samp = Core.Radio.Sampling

(* -------------------------------------------------------------------- IO *)

let test_io_roundtrip () =
  let d = random_space ~n:7 1 in
  let d' = Io.of_csv (Io.to_csv d) in
  check_true "matrices equal" (D.matrix d = D.matrix d');
  Alcotest.(check string) "name preserved" (D.name d) (D.name d')

let test_io_asymmetric_roundtrip () =
  let d = random_asym_space ~n:5 2 in
  let d' = Io.of_csv (Io.to_csv d) in
  check_true "asymmetric preserved" (D.matrix d = D.matrix d')

let test_io_comments_and_blanks () =
  let text = "# a comment\n\n0,2\n\n# another\n3,0\n" in
  let d = Io.of_csv text in
  check_float "f(0,1)" 2. (D.decay d 0 1);
  check_float "f(1,0)" 3. (D.decay d 1 0)

let test_io_name_header () =
  let text = "# name: my-building\n0,1\n1,0\n" in
  Alcotest.(check string) "header name" "my-building" (D.name (Io.of_csv text))

let test_io_rejects_garbage () =
  Alcotest.check_raises "not a number"
    (Invalid_argument "Decay_io.of_csv: not a number: abc (line 1, column 2)")
    (fun () -> ignore (Io.of_csv "0,abc\n1,0\n"))

let test_io_rejects_invalid_matrix () =
  (* Valid CSV but invalid decay space (nonzero diagonal). *)
  let raised =
    try
      ignore (Io.of_csv "1,2\n2,1\n");
      false
    with Invalid_argument _ -> true
  in
  check_true "diagonal rejected" raised

let test_io_file_roundtrip () =
  let d = random_space ~n:6 3 in
  let path = Filename.temp_file "bgtest" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save d path;
      let d' = Io.load path in
      check_true "file roundtrip" (D.matrix d = D.matrix d'))

let prop_io_roundtrip =
  qcheck ~count:40 "csv roundtrip is lossless" QCheck.small_int (fun seed ->
      let d = random_asym_space ~n:6 seed in
      D.matrix d = D.matrix (Io.of_csv (Io.to_csv d)))

(* ------------------------------------------------------------ Statistics *)

let test_stats_summary () =
  let d = D.of_matrix [| [| 0.; 10. |]; [| 100.; 0. |] |] in
  let s = St.summarize d in
  check_int "n" 2 s.St.n;
  check_float ~eps:1e-9 "min dB" 10. s.St.min_db;
  check_float ~eps:1e-9 "max dB" 20. s.St.max_db;
  check_float ~eps:1e-9 "range" 10. s.St.dynamic_range_db;
  check_float ~eps:1e-9 "asymmetry" 10. s.St.asymmetry_db

let test_stats_symmetric_no_asymmetry () =
  let s = St.summarize (random_space ~n:6 4) in
  check_float ~eps:1e-9 "zero asymmetry" 0. s.St.asymmetry_db

let test_effective_alpha_geo () =
  let pts = Core.Decay.Spaces.random_points (rng 5) ~n:12 ~side:20. in
  let arr = Array.of_list pts in
  let d = D.of_points ~alpha:3.5 pts in
  let fit = St.effective_alpha ~positions:arr d in
  check_float ~eps:1e-6 "recovers alpha" 3.5 fit.Core.Prelude.Stats.slope;
  check_float ~eps:1e-6 "perfect fit" 1. fit.Core.Prelude.Stats.r2

let test_effective_alpha_indoor_poor_fit () =
  let pts = Core.Decay.Spaces.random_points (rng 6) ~n:12 ~side:20. in
  let arr = Array.of_list pts in
  let env =
    Core.Radio.Environment.random_clutter (rng 7) ~side:22. ~n_walls:40
      [ Core.Radio.Material.metal ]
  in
  let cfg =
    { Core.Radio.Propagation.default with
      Core.Radio.Propagation.shadowing_sigma_db = 8. }
  in
  let d =
    Core.Radio.Measure.decay_space ~seed:8 ~config:cfg env
      (Core.Radio.Node.of_points pts)
  in
  let fit = St.effective_alpha ~positions:arr d in
  check_true "geometry explains little indoors" (fit.Core.Prelude.Stats.r2 < 0.8)

let test_stats_validation () =
  Alcotest.check_raises "positions mismatch"
    (Invalid_argument "Statistics.effective_alpha: positions length mismatch")
    (fun () ->
      ignore
        (St.effective_alpha ~positions:[| Core.Geom.Point.origin |]
           (random_space ~n:4 9)))

(* --------------------------------------------------------------- Online *)

let test_online_feasibility_only () =
  let t = planar_instance ~n_links:10 11 in
  let arrival = Array.to_list t.I.links in
  let acc = On.feasibility_only t ~arrival in
  check_true "accepted set feasible"
    (Core.Sinr.Feasibility.is_feasible t (Pw.uniform 1.) acc);
  check_true "nonempty" (List.length acc >= 1)

let test_online_guarded_feasible () =
  let t = planar_instance ~n_links:10 12 in
  let arrival = Array.to_list t.I.links in
  let acc = On.guarded t ~arrival in
  check_true "accepted set feasible"
    (Core.Sinr.Feasibility.is_feasible t (Pw.uniform 1.) acc);
  check_true "separated"
    (Core.Sinr.Separation.is_separated_set t ~eta:(t.I.zeta /. 2.) acc)

let test_online_guarded_resists_bad_order () =
  (* Adversarial order: longest (weakest) links first.  The naive rule
     fills up on them; the guarded rule's headroom test keeps capacity for
     later short links at least as well. *)
  let t = planar_instance ~n_links:12 ~side:10. 13 in
  let arrival =
    List.sort
      (fun a b -> Core.Sinr.Link.compare_by_decay t.I.space b a)
      (Array.to_list t.I.links)
  in
  let naive = On.feasibility_only t ~arrival in
  let guarded = On.guarded t ~arrival in
  check_true "both feasible"
    (Core.Sinr.Feasibility.is_feasible t (Pw.uniform 1.) naive
    && Core.Sinr.Feasibility.is_feasible t (Pw.uniform 1.) guarded)

let test_online_competitive_ratio () =
  let t = planar_instance ~n_links:10 14 in
  let acc = On.feasibility_only t ~arrival:(Array.to_list t.I.links) in
  let r = On.competitive_ratio t ~accepted:acc in
  check_true "ratio >= 1" (r >= 1. -. 1e-9)

let prop_online_prefix_feasible =
  qcheck ~count:25 "every accepted prefix stays feasible" QCheck.small_int
    (fun seed ->
      let t = planar_instance ~n_links:8 seed in
      let g = rng (seed + 3) in
      let arr = Array.copy t.I.links in
      Core.Prelude.Rng.shuffle g arr;
      let acc = On.guarded t ~arrival:(Array.to_list arr) in
      (* Check all prefixes of the acceptance order. *)
      let rec prefixes pre = function
        | [] -> true
        | l :: rest ->
            let pre = l :: pre in
            Core.Sinr.Feasibility.is_feasible t (Pw.uniform 1.) pre
            && prefixes pre rest
      in
      prefixes [] acc)

(* ------------------------------------------------------------ Contention *)

let test_contention_completes_fixed () =
  let t = planar_instance ~n_links:8 ~side:40. 21 in
  let r = Cont.run ~policy:(Cont.Fixed 0.3) (rng 22) t in
  check_true "completed" r.Cont.completed;
  check_true "history monotone"
    (let rec mono = function
       | a :: (b :: _ as rest) -> a <= b && mono rest
       | _ -> true
     in
     mono r.Cont.successes_by_round)

let test_contention_completes_backoff () =
  let t = planar_instance ~n_links:8 ~side:8. 23 in
  let r = Cont.run ~policy:(Cont.Backoff 0.8) (rng 24) t in
  check_true "completed" r.Cont.completed

let test_contention_density_slows () =
  let sparse = planar_instance ~n_links:10 ~side:80. 25 in
  let dense = planar_instance ~n_links:10 ~side:8. 25 in
  let rs = Cont.run ~policy:(Cont.Fixed 0.25) (rng 26) sparse in
  let rd = Cont.run ~policy:(Cont.Fixed 0.25) (rng 26) dense in
  check_true "denser takes at least as long" (rd.Cont.rounds >= rs.Cont.rounds)

let test_contention_validation () =
  let t = planar_instance ~n_links:3 27 in
  Alcotest.check_raises "p range"
    (Invalid_argument "Contention.run: p out of (0,1]") (fun () ->
      ignore (Cont.run ~policy:(Cont.Fixed 0.) (rng 28) t))

let test_contention_budget () =
  let g = Core.Graph.Graph.complete 4 in
  let sp, pairs = Core.Decay.Spaces.mis_construction g in
  let t = I.equi_decay_of_space sp pairs in
  (* A clique: only one link can ever succeed per round; tiny budget fails. *)
  let r = Cont.run ~max_rounds:1 ~policy:(Cont.Fixed 0.9) (rng 29) t in
  check_true "budget respected" (r.Cont.rounds <= 1)

(* ------------------------------------------------------ PRR estimation *)

let test_prr_estimation_recovers_midrange () =
  (* Pick power/noise so true success probabilities sit away from the
     boundaries: decays around 1e5, beta*noise*f/power ~ 0.1..2. *)
  let g = rng 81 in
  let sp =
    D.of_fn ~name:"mid" 6 (fun i j ->
        if i < j then 5e4 +. Core.Prelude.Rng.float g 2e5 else 5e4 +. Core.Prelude.Rng.float g 2e5)
  in
  let est =
    Samp.estimate_from_prr ~seed:1 ~packets:5000 ~power:1. ~beta:1. ~noise:1e-5 sp
  in
  let med, _ = Samp.error_db ~truth:sp ~estimate:est in
  check_true "median error below 0.5 dB" (med < 0.5)

let test_prr_estimation_censors_boundaries () =
  (* A decay so large every packet fails: the estimate saturates rather
     than diverging; and one so small every packet succeeds. *)
  let sp = D.of_matrix [| [| 0.; 1e12 |]; [| 1e-6; 0. |] |] in
  let est = Samp.estimate_from_prr ~packets:100 ~power:1. ~beta:1. ~noise:1e-3 sp in
  check_true "all-fail censored finite"
    (Float.is_finite (D.decay est 0 1) && D.decay est 0 1 > 1e3);
  check_true "all-pass censored positive" (D.decay est 1 0 > 0.)

let test_prr_estimation_validation () =
  let sp = Core.Decay.Spaces.uniform 3 in
  Alcotest.check_raises "needs noise"
    (Invalid_argument "Sampling.estimate_from_prr: needs positive noise")
    (fun () -> ignore (Samp.estimate_from_prr ~noise:0. sp))

let test_prr_estimation_more_packets_better () =
  let g = rng 82 in
  let sp =
    D.of_fn ~name:"mid2" 6 (fun i j ->
        if i <= j then 1e5 +. Core.Prelude.Rng.float g 1e5 else 1e5 +. Core.Prelude.Rng.float g 1e5)
  in
  let err k =
    fst
      (Samp.error_db ~truth:sp
         ~estimate:(Samp.estimate_from_prr ~seed:2 ~packets:k ~noise:1e-5 sp))
  in
  check_true "convergence" (err 4000 < err 40 +. 1e-9)

(* ------------------------------------------------------ raw binary IO *)

let test_raw_roundtrip () =
  let d = random_asym_space ~n:13 77 in
  let path = Filename.temp_file "bgtest" ".bgd" in
  Io.save_raw d path;
  let d' = Io.load_raw path in
  check_int "n preserved" (D.n d) (D.n d');
  let ok = ref true in
  for i = 0 to D.n d - 1 do
    for j = 0 to D.n d - 1 do
      if not (Float.equal (D.decay d i j) (D.decay d' i j)) then ok := false
    done
  done;
  check_true "cells bit-identical" !ok;
  Sys.remove path

let test_raw_mmap_matches_load () =
  let d = random_space ~n:11 78 in
  let path = Filename.temp_file "bgtest" ".bgd" in
  Io.save_raw d path;
  let a = Io.load_raw path and b = Io.load_raw_mmap path in
  check_true "same digest through both doors"
    (D.digest a = D.digest b && D.digest a = D.digest d);
  (* The mapped space runs the full kernel stack unchanged. *)
  check_float ~eps:0. "zeta identical on mapped space"
    (Met.zeta a) (Met.zeta b);
  Sys.remove path

let test_raw_rejects_bad_magic () =
  let path = Filename.temp_file "bgtest" ".bgd" in
  let oc = open_out_bin path in
  output_string oc "NOTADECAYMATRIX.....................";
  close_out oc;
  check_true "bad magic rejected"
    (match Io.load_raw path with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Sys.remove path

let test_raw_rejects_truncation () =
  let d = random_space ~n:6 79 in
  let path = Filename.temp_file "bgtest" ".bgd" in
  Io.save_raw d path;
  let len = (Unix.stat path).Unix.st_size in
  Unix.truncate path (len - 8);
  check_true "truncated payload rejected (load)"
    (match Io.load_raw path with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_true "truncated payload rejected (mmap)"
    (match Io.load_raw_mmap path with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Sys.remove path

let test_raw_validate_catches_bad_cells () =
  (* Corrupt one off-diagonal cell to a negative value: the validating
     loader must reject it, the mmap door (validate:false) must not. *)
  let d = random_space ~n:5 80 in
  let path = Filename.temp_file "bgtest" ".bgd" in
  Io.save_raw d path;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.LargeFile.lseek fd (Int64.of_int (16 + (8 * 1))) Unix.SEEK_SET);
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float (-3.5));
  ignore (Unix.write fd b 0 8);
  Unix.close fd;
  check_true "validating load rejects the bad cell"
    (match Io.load_raw path with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let lazy_space = Io.load_raw_mmap path in
  check_float ~eps:0. "unvalidated mmap serves the raw bytes" (-3.5)
    (D.decay lazy_space 0 1);
  Sys.remove path

let suite =
  [
    ( "io.csv",
      [
        case "roundtrip" test_io_roundtrip;
        case "asymmetric roundtrip" test_io_asymmetric_roundtrip;
        case "comments and blanks" test_io_comments_and_blanks;
        case "name header" test_io_name_header;
        case "rejects garbage" test_io_rejects_garbage;
        case "rejects invalid matrix" test_io_rejects_invalid_matrix;
        case "file roundtrip" test_io_file_roundtrip;
        prop_io_roundtrip;
      ] );
    ( "io.raw",
      [
        case "raw roundtrip" test_raw_roundtrip;
        case "mmap = load" test_raw_mmap_matches_load;
        case "bad magic" test_raw_rejects_bad_magic;
        case "truncation" test_raw_rejects_truncation;
        case "cell validation" test_raw_validate_catches_bad_cells;
      ] );
    ( "radio.prr_estimation",
      [
        case "inversion recovers" test_prr_estimation_recovers_midrange;
        case "boundary censoring" test_prr_estimation_censors_boundaries;
        case "validation" test_prr_estimation_validation;
        case "more packets better" test_prr_estimation_more_packets_better;
      ] );
    ( "decay.statistics",
      [
        case "summary" test_stats_summary;
        case "symmetric asymmetry 0" test_stats_symmetric_no_asymmetry;
        case "effective alpha (geo)" test_effective_alpha_geo;
        case "effective alpha (indoor)" test_effective_alpha_indoor_poor_fit;
        case "validation" test_stats_validation;
      ] );
    ( "capacity.online",
      [
        case "feasibility-only" test_online_feasibility_only;
        case "guarded feasible+separated" test_online_guarded_feasible;
        case "adversarial order" test_online_guarded_resists_bad_order;
        case "competitive ratio" test_online_competitive_ratio;
        prop_online_prefix_feasible;
      ] );
    ( "distrib.contention",
      [
        case "fixed completes" test_contention_completes_fixed;
        case "backoff completes" test_contention_completes_backoff;
        case "density slows" test_contention_density_slows;
        case "validation" test_contention_validation;
        case "budget" test_contention_budget;
      ] );
  ]
