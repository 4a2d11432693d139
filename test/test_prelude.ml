open Testutil
module Rng = Core.Prelude.Rng
module Num = Core.Prelude.Numerics
module Stats = Core.Prelude.Stats
module Uf = Core.Prelude.Union_find
module Table = Core.Prelude.Table
module Jsonl = Core.Prelude.Jsonl

(* ------------------------------------------------------------------ Rng *)

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_true "different seeds diverge" (Rng.int64 a <> Rng.int64 b)

let test_split_independent () =
  let g = Rng.create 3 in
  let h = Rng.split g in
  check_true "split stream differs" (Rng.int64 g <> Rng.int64 h)

let test_copy_replays () =
  let g = Rng.create 11 in
  ignore (Rng.int64 g);
  let h = Rng.copy g in
  Alcotest.(check int64) "copy replays" (Rng.int64 g) (Rng.int64 h)

let test_int_bounds () =
  let g = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int g 17 in
    check_true "0 <= x < 17" (x >= 0 && x < 17)
  done

let test_int_rejects_nonpositive () =
  let g = Rng.create 5 in
  Alcotest.check_raises "n = 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int g 0))

let test_float_range () =
  let g = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.float g 2.5 in
    check_true "0 <= x < 2.5" (x >= 0. && x < 2.5)
  done

let test_uniform_mean () =
  let g = Rng.create 9 in
  let xs = Array.init 20000 (fun _ -> Rng.uniform g 2. 6.) in
  check_float ~eps:0.1 "mean ~ 4" 4. (Stats.mean xs)

let test_gaussian_moments () =
  let g = Rng.create 13 in
  let xs = Array.init 20000 (fun _ -> Rng.gaussian ~mu:1.5 ~sigma:2. g) in
  check_float ~eps:0.1 "mean" 1.5 (Stats.mean xs);
  check_float ~eps:0.15 "stddev" 2. (Stats.stddev xs)

let test_exponential_mean () =
  let g = Rng.create 17 in
  let xs = Array.init 20000 (fun _ -> Rng.exponential g 0.5) in
  check_float ~eps:0.1 "mean = 1/lambda" 2. (Stats.mean xs)

let test_rayleigh_positive () =
  let g = Rng.create 19 in
  for _ = 1 to 100 do
    check_true "rayleigh > 0" (Rng.rayleigh g 1. > 0.)
  done

let test_lognormal_median () =
  let g = Rng.create 23 in
  let xs = Array.init 20001 (fun _ -> Rng.lognormal ~mu:0.7 ~sigma:0.5 g) in
  (* Median of lognormal is exp mu. *)
  check_float ~eps:0.1 "median = e^mu" (exp 0.7) (Stats.median xs)

let test_pareto_support () =
  let g = Rng.create 29 in
  for _ = 1 to 1000 do
    check_true "pareto >= x_min" (Rng.pareto g ~alpha:2. ~x_min:3. >= 3.)
  done

let test_bernoulli_rate () =
  let g = Rng.create 31 in
  let hits = ref 0 in
  for _ = 1 to 20000 do
    if Rng.bernoulli g 0.3 then incr hits
  done;
  check_float ~eps:0.02 "rate ~ 0.3" 0.3 (float_of_int !hits /. 20000.)

let test_backoff_equal_jitter () =
  let g = Rng.create 53 in
  for attempt = 0 to 8 do
    let nominal = Float.min 2. (0.05 *. (2. ** float_of_int attempt)) in
    let d = Rng.backoff g ~attempt ~base:0.05 ~cap:2. in
    check_true
      (Printf.sprintf "attempt %d in [nominal/2, nominal)" attempt)
      (d >= (nominal /. 2.) -. 1e-12 && d < nominal)
  done;
  (* Same seed, same schedule; bad arguments rejected. *)
  let sched seed =
    let g = Rng.create seed in
    List.init 5 (fun attempt -> Rng.backoff g ~attempt ~base:0.1 ~cap:1.)
  in
  check_true "seeded schedule replays" (sched 7 = sched 7);
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : float) -> Alcotest.fail "accepted bad backoff arguments"
  in
  invalid (fun () -> Rng.backoff g ~attempt:(-1) ~base:0.1 ~cap:1.);
  invalid (fun () -> Rng.backoff g ~attempt:0 ~base:0. ~cap:1.);
  invalid (fun () -> Rng.backoff g ~attempt:0 ~base:0.5 ~cap:0.1)

let test_shuffle_permutes () =
  let g = Rng.create 37 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_sample_distinct () =
  let g = Rng.create 41 in
  let s = Rng.sample g 10 (Array.init 30 Fun.id) in
  check_int "size" 10 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  check_int "distinct" 10 (List.length distinct)

let test_sample_too_many () =
  let g = Rng.create 41 in
  Alcotest.check_raises "k > n"
    (Invalid_argument "Rng.sample: k exceeds array length") (fun () ->
      ignore (Rng.sample g 4 [| 1; 2; 3 |]))

(* ------------------------------------------------------------- Numerics *)

let test_zeta_2 () =
  check_float ~eps:1e-9 "zeta(2)" (Float.pi ** 2. /. 6.) (Num.riemann_zeta 2.)

let test_zeta_4 () =
  check_float ~eps:1e-9 "zeta(4)" (Float.pi ** 4. /. 90.) (Num.riemann_zeta 4.)

let test_zeta_monotone () =
  check_true "zeta decreasing" (Num.riemann_zeta 1.5 > Num.riemann_zeta 3.)

let test_zeta_diverges () =
  Alcotest.check_raises "s = 1"
    (Invalid_argument "Numerics.riemann_zeta: requires s > 1") (fun () ->
      ignore (Num.riemann_zeta 1.))

let test_bisect_sqrt () =
  let r = Num.bisect ~lo:0. ~hi:10. (fun x -> x *. x >= 2.) in
  check_float ~eps:1e-6 "sqrt 2" (sqrt 2.) r

let test_bisect_already_true () =
  check_float "p lo holds" 1. (Num.bisect ~lo:1. ~hi:5. (fun x -> x >= 0.))

let test_bisect_never_true () =
  Alcotest.check_raises "p hi false"
    (Invalid_argument "Numerics.bisect: predicate false at hi") (fun () ->
      ignore (Num.bisect ~lo:0. ~hi:1. (fun _ -> false)))

let test_solve_increasing () =
  let r = Num.solve_increasing ~lo:0. ~hi:4. (fun x -> (x *. x) -. 3.) in
  check_float ~eps:1e-6 "sqrt 3" (sqrt 3.) r

let test_feq () =
  check_true "equal" (Num.feq 1. (1. +. 1e-12));
  check_false "not equal" (Num.feq 1. 1.1)

let test_spectral_radius_diag () =
  let m = [| [| 0.5; 0. |]; [| 0.; 0.25 |] |] in
  check_float ~eps:1e-6 "diag" 0.5 (Num.spectral_radius m)

let test_spectral_radius_known () =
  (* [[0 1],[1 0]] has eigenvalues +-1. *)
  let m = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_float ~eps:1e-6 "permutation" 1. (Num.spectral_radius m)

let test_spectral_radius_zero () =
  check_float "zero matrix" 0. (Num.spectral_radius [| [| 0. |] |])

let test_harmonic () =
  check_float ~eps:1e-9 "H_4" (1. +. 0.5 +. (1. /. 3.) +. 0.25) (Num.harmonic 4)

let test_clamp () =
  check_float "below" 1. (Num.clamp ~lo:1. ~hi:2. 0.);
  check_float "above" 2. (Num.clamp ~lo:1. ~hi:2. 3.);
  check_float "inside" 1.5 (Num.clamp ~lo:1. ~hi:2. 1.5)

(* ---------------------------------------------------------------- Stats *)

let test_mean () = check_float "mean" 2. (Stats.mean [| 1.; 2.; 3. |])

let test_mean_empty () =
  check_true "nan on empty" (Float.is_nan (Stats.mean [||]))

let test_variance () =
  check_float "variance" 1. (Stats.variance [| 1.; 2.; 3. |])

let test_variance_singleton () =
  check_float "one sample" 0. (Stats.variance [| 5. |])

let test_geometric_mean () =
  check_float ~eps:1e-9 "gm" 2. (Stats.geometric_mean [| 1.; 2.; 4. |])

let test_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  check_float "p0" 10. (Stats.percentile xs 0.);
  check_float "p50" 30. (Stats.percentile xs 50.);
  check_float "p100" 50. (Stats.percentile xs 100.);
  check_float "p25" 20. (Stats.percentile xs 25.)

let test_median_even () =
  check_float "median interpolates" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |])

let test_pearson_perfect () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = Array.map (fun x -> (2. *. x) +. 1.) xs in
  check_float ~eps:1e-9 "r = 1" 1. (Stats.pearson xs ys)

let test_pearson_anticorrelated () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = Array.map (fun x -> -.x) xs in
  check_float ~eps:1e-9 "r = -1" (-1.) (Stats.pearson xs ys)

let test_pearson_constant () =
  check_float "constant gives 0" 0. (Stats.pearson [| 1.; 1. |] [| 2.; 3. |])

let test_spearman_monotone () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  let ys = Array.map (fun x -> exp x) xs in
  check_float ~eps:1e-9 "rank r = 1" 1. (Stats.spearman xs ys)

let test_spearman_ties () =
  let xs = [| 1.; 1.; 2.; 3. |] and ys = [| 1.; 1.; 2.; 3. |] in
  check_float ~eps:1e-9 "ties ok" 1. (Stats.spearman xs ys)

let test_linear_fit () =
  let xs = [| 0.; 1.; 2.; 3. |] in
  let ys = Array.map (fun x -> (3. *. x) -. 1. ) xs in
  let f = Stats.linear_fit xs ys in
  check_float ~eps:1e-9 "slope" 3. f.Stats.slope;
  check_float ~eps:1e-9 "intercept" (-1.) f.Stats.intercept;
  check_float ~eps:1e-9 "r2" 1. f.Stats.r2

let test_loglog_fit () =
  let xs = [| 1.; 2.; 4.; 8. |] in
  let ys = Array.map (fun x -> 5. *. (x ** 2.5)) xs in
  let f = Stats.loglog_fit xs ys in
  check_float ~eps:1e-9 "power-law exponent" 2.5 f.Stats.slope

let test_loglog_rejects_nonpositive () =
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stats.loglog_fit: nonpositive value") (fun () ->
      ignore (Stats.loglog_fit [| 0.; 1. |] [| 1.; 2. |]))

let test_histogram () =
  let h = Stats.histogram ~bins:2 [| 0.; 1.; 2.; 3. |] in
  check_int "total count" 4 (Array.fold_left ( + ) 0 h.Stats.counts);
  check_int "bins" 2 (Array.length h.Stats.counts)

let test_summary_nonempty () =
  check_true "mentions mean"
    (String.length (Stats.summary [| 1.; 2. |]) > 10)

(* ----------------------------------------------------------- Union-find *)

let test_uf_basic () =
  let u = Uf.create 5 in
  check_int "initial classes" 5 (Uf.count u);
  check_true "union merges" (Uf.union u 0 1);
  check_false "re-union no-op" (Uf.union u 0 1);
  check_true "connected" (Uf.connected u 0 1);
  check_false "not connected" (Uf.connected u 0 2);
  check_int "classes after" 4 (Uf.count u)

let test_uf_transitive () =
  let u = Uf.create 4 in
  ignore (Uf.union u 0 1);
  ignore (Uf.union u 1 2);
  check_true "transitivity" (Uf.connected u 0 2);
  check_int "classes" 2 (Uf.count u)

(* ---------------------------------------------------------------- Table *)

let contains_substring s sub =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then false
    else if String.sub s i n = sub then true
    else find (i + 1)
  in
  find 0

let test_table_render () =
  let t = Table.create ~title:"widths" [ "a"; "bb" ] in
  Table.add_row t [ Table.I 1; Table.F2 3.14159 ];
  let s = Table.render t in
  check_true "has title" (contains_substring s "widths");
  check_true "rounds to 2dp" (contains_substring s "3.14");
  check_true "no 3rd decimal" (not (contains_substring s "3.141"))

let test_table_arity () =
  let t = Table.create ~title:"t" [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ Table.I 1 ])

let test_table_csv () =
  let t = Table.create ~title:"t" [ "a"; "b" ] in
  Table.add_row t [ Table.S "x,y"; Table.I 2 ];
  let csv = Table.to_csv t in
  check_true "escapes comma"
    (String.length csv > 0
    && String.split_on_char '\n' csv |> List.length = 2)

let test_cell_to_string () =
  Alcotest.(check string) "F4" "0.1235" (Table.cell_to_string (Table.F4 0.12349));
  Alcotest.(check string) "I" "42" (Table.cell_to_string (Table.I 42));
  Alcotest.(check string) "S" "hi" (Table.cell_to_string (Table.S "hi"))

(* --------------------------------------------------------------- QCheck *)

let prop_percentile_bounds =
  qcheck "percentile within min..max" QCheck.(list_of_size Gen.(1 -- 40) (float_bound_exclusive 100.))
    (fun l ->
      let xs = Array.of_list l in
      let lo, hi = Stats.min_max xs in
      let p = Stats.percentile xs 37. in
      p >= lo -. 1e-9 && p <= hi +. 1e-9)

(* Selection must give the floats a sort gives: samples with duplicates,
   nan, infinities and both zeros, at interpolating and exact ranks,
   against the sort-based reference; Float.equal identifies -0. with 0.
   and nans with each other, the ties a sort may order either way. *)
let prop_percentile_matches_sort =
  let sample =
    QCheck.Gen.(
      frequency
        [ (3, float_range (-5.) 5.);
          (2, oneofl [ nan; infinity; neg_infinity; 0.; -0.; 1.; -1.; 2.5 ]);
          (1, map float_of_int (int_range (-3) 3)) ])
  in
  qcheck ~count:300 "percentile selects the sorted order statistics"
    QCheck.(
      make
        ~print:Print.(array float)
        Gen.(array_size (int_range 1 200) sample))
    (fun xs ->
      let before = Array.map Int64.bits_of_float xs in
      List.for_all
        (fun p ->
          Float.equal (Stats.percentile xs p) (Naive_ref.percentile xs p))
        [ 0.; 25.; 37.; 50.; 99.9; 100. ]
      && Array.map Int64.bits_of_float xs = before)

let prop_spearman_range =
  qcheck "spearman in [-1,1]" QCheck.(pair small_int small_int) (fun (s1, s2) ->
      let g = rng ((s1 * 1000) + s2) in
      let xs = Array.init 20 (fun _ -> Rng.float g 10.) in
      let ys = Array.init 20 (fun _ -> Rng.float g 10.) in
      let r = Stats.spearman xs ys in
      r >= -1.0000001 && r <= 1.0000001)

let prop_shuffle_preserves_multiset =
  qcheck "shuffle preserves multiset" QCheck.small_int (fun seed ->
      let g = rng seed in
      let arr = Array.init 30 (fun i -> i mod 7) in
      let before = List.sort compare (Array.to_list arr) in
      Rng.shuffle g arr;
      List.sort compare (Array.to_list arr) = before)

(* ------------------------------------------------------------- Parallel *)

module Par = Core.Prelude.Parallel

let test_par_run_order () =
  let results =
    Par.run (Array.init 17 (fun i () -> i * i))
  in
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "slot %d" i) (i * i) v)
    results

let test_par_run_exn () =
  Alcotest.check_raises "first exception re-raised" Exit (fun () ->
      ignore
        (Par.run
           (Array.init 8 (fun i () -> if i = 3 then raise Exit else i))))

let test_par_mrc_cover () =
  (* Every index in [lo, hi) is mapped exactly once, whatever the job
     count: summing chunk widths and chunk sums must match the range. *)
  List.iter
    (fun jobs ->
      let total =
        Par.map_reduce_chunks ~jobs ~lo:3 ~hi:40 ~neutral:0
          ~map:(fun lo hi ->
            let s = ref 0 in
            for i = lo to hi - 1 do
              s := !s + i
            done;
            !s)
          ~combine:( + )
      in
      let expected = (39 * 40 / 2) - (2 * 3 / 2) in
      check_int (Printf.sprintf "sum at jobs=%d" jobs) expected total)
    [ 1; 2; 3; 4; 7; 64 ]

let test_par_mrc_empty () =
  check_int "empty range yields neutral" 42
    (Par.map_reduce_chunks ~jobs:4 ~lo:5 ~hi:5 ~neutral:42
       ~map:(fun _ _ -> 0)
       ~combine:( + ))

let test_par_mrc_deterministic () =
  (* Chunk-order folding: a non-commutative combine (list append) gives the
     same result at every jobs count. *)
  let collect jobs =
    Par.map_reduce_chunks ~jobs ~lo:0 ~hi:23 ~neutral:[]
      ~map:(fun lo hi -> List.init (hi - lo) (fun k -> lo + k))
      ~combine:( @ )
  in
  let seq = collect 1 in
  List.iter
    (fun jobs ->
      check_true
        (Printf.sprintf "order preserved at jobs=%d" jobs)
        (collect jobs = seq))
    [ 2; 4; 5; 23 ]

let test_par_stripes () =
  (* Stripe s of min jobs units gets the units s, s + stripes, ...: every
     unit is visited once, by the stripe its residue names, and the
     results fold in stripe order. *)
  List.iter
    (fun (jobs, units) ->
      let got =
        Par.map_reduce_stripes ~jobs ~units ~neutral:[]
          ~map:(fun ~stripes s ->
            let acc = ref [] and u = ref s in
            while !u < units do
              acc := (!u, s, stripes) :: !acc;
              u := !u + stripes
            done;
            [ List.rev !acc ])
          ~combine:( @ )
      in
      let stripes = max 1 (min jobs units) in
      let expected =
        if units <= 0 then []
        else
          List.init stripes (fun s ->
              List.filter_map
                (fun u -> if u mod stripes = s then Some (u, s, stripes) else None)
                (List.init units Fun.id))
      in
      check_true
        (Printf.sprintf "stripes at jobs=%d units=%d" jobs units)
        (got = expected))
    [ (1, 10); (2, 10); (3, 10); (4, 3); (7, 1); (4, 0) ]

let test_par_pool_lifecycle () =
  let pool = Par.create ~num_domains:2 () in
  check_int "two workers" 2 (Par.num_domains pool);
  let r = Par.run ~pool (Array.init 5 (fun i () -> i + 1)) in
  check_int "pool computes" 5 r.(4);
  Par.shutdown pool;
  check_int "workers joined" 0 (Par.num_domains pool)

let test_par_resolve_jobs () =
  check_int "explicit wins" 6 (Par.resolve_jobs (Some 6));
  check_int "clamped to 1" 1 (Par.resolve_jobs (Some 0));
  let saved = Par.default_jobs () in
  Par.set_default_jobs 3;
  check_int "ambient default" 3 (Par.resolve_jobs None);
  Par.set_default_jobs saved

(* ---------------------------------------------------------------- Jsonl *)

(* Bytes the string codec treats specially, and bytes it must copy
   verbatim, each drawn often enough to meet in one short string. *)
let wire_char =
  QCheck.Gen.(
    frequency
      [ (3, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127' ]);
        (2, map Char.chr (int_range 0x80 0xff));
        (5, char) ])

let test_string_round_trip =
  qcheck ~count:500 "any byte string round-trips"
    (QCheck.string_gen_of_size QCheck.Gen.(int_range 0 64) wire_char)
    (fun s -> Jsonl.parse (Jsonl.to_string (Jsonl.Str s)) = Jsonl.Str s)

let test_string_errors_kept () =
  let bad text msg =
    match Jsonl.parse text with
    | exception Jsonl.Bad m -> Alcotest.(check string) text msg m
    | _ -> Alcotest.failf "parsed %S" text
  in
  bad {|"abc|} "unterminated string";
  bad {|"|} "unterminated string";
  bad {|"ab\ncd|} "unterminated string";
  bad {|"abc\|} "dangling escape";
  bad {|"\q"|} "bad escape \\q";
  check_true "escapes after a clean prefix decode"
    (Jsonl.parse {|"ab\"c\\d\u0001"|} = Jsonl.Str "ab\"c\\d\001")

let base64_decode s =
  let buf = Bytes.create (String.length s / 4 * 3) in
  Bytes.sub_string buf 0
    (Jsonl.base64_decode_into s 0 (String.length s) buf)

(* RFC 4648 section 10's vectors. *)
let test_base64_vectors () =
  List.iter
    (fun (raw, b64) ->
      Alcotest.(check string) ("encode " ^ raw) b64 (Jsonl.base64_encode raw);
      Alcotest.(check string) ("decode " ^ b64) raw (base64_decode b64))
    [ ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v");
      ("foob", "Zm9vYg=="); ("fooba", "Zm9vYmE="); ("foobar", "Zm9vYmFy") ];
  List.iter
    (fun b64 ->
      match base64_decode b64 with
      | exception Jsonl.Bad _ -> ()
      | _ -> Alcotest.failf "decoded %S" b64)
    [ "Zg="; "Zm9"; "Zm9v!"; "Zm9*"; "Z=9v"; "Zm=v"; "===="; "Zg=a"; "A===";
      "Zm9\nYmFy" ]

let test_base64_round_trip =
  qcheck ~count:300 "base64 decode inverts encode"
    (QCheck.string_gen_of_size QCheck.Gen.(int_range 0 100) QCheck.Gen.char)
    (fun s -> base64_decode (Jsonl.base64_encode s) = s)

(* The string at the path is left in the input: the rest parses as
   [parse] would, the string reads [Str ""], and the span holds its
   bytes.  Only the first member of a name is followed, and a string
   with escapes is copied as usual. *)
let test_parse_in_place () =
  let line = {|{"id":"a","space":{"n":2,"f64":"QUJD"},"f64":"top"}|} in
  let v, left = Jsonl.parse_in_place ~path:[ "space"; "f64" ] line in
  (match left with
  | Some (pos, len) ->
      Alcotest.(check string) "the span holds the string" "QUJD"
        (String.sub line pos len)
  | None -> Alcotest.fail "nothing left in place");
  let blank = {|{"id":"a","space":{"n":2,"f64":""},"f64":"top"}|} in
  check_true "the rest parses as parse does" (v = Jsonl.parse blank);
  let left_of path s = snd (Jsonl.parse_in_place ~path s) in
  check_true "the first member of a name is followed"
    (left_of [ "s"; "f" ] {|{"s":{"f":"x1"},"s":{"f":"x2"}}|} = Some (11, 2));
  check_true "a later duplicate in the same object is not"
    (left_of [ "f" ] {|{"f":1,"f":"xy"}|} = None);
  check_true "a string with escapes is copied"
    (Jsonl.parse_in_place ~path:[ "f" ] {|{"f":"a\nb"}|}
    = (Jsonl.Obj [ ("f", Jsonl.Str "a\nb") ], None));
  check_true "a path through a non-object leaves nothing"
    (left_of [ "f"; "g" ] {|{"f":[{"g":"x"}]}|} = None);
  check_true "the empty path is parse"
    (Jsonl.parse_in_place ~path:[] line = (Jsonl.parse line, None));
  match Jsonl.parse_in_place ~path:[ "f" ] {|{"f":"abc|} with
  | exception Jsonl.Bad _ -> ()
  | _ -> Alcotest.fail "an unterminated string left in place parsed"

let test_base64_decode_into () =
  let text = "xxZm9vYmE=yy" in
  let buf = Bytes.make 8 '.' in
  check_int "five bytes from the middle" 5
    (Jsonl.base64_decode_into text 2 8 buf);
  Alcotest.(check string) "decoded in place" "fooba..." (Bytes.to_string buf);
  (match Jsonl.base64_decode_into text 2 8 (Bytes.create 4) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "decoded into a short buffer");
  (match Jsonl.base64_decode_into text 6 8 buf with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "decoded past the string");
  match Jsonl.base64_decode_into "xxZm!v" 2 4 buf with
  | exception Jsonl.Bad m ->
      Alcotest.(check string) "offset counted from pos"
        "base64: bad byte '!' at 2" m
  | _ -> Alcotest.fail "decoded a bad byte"

(* ---------------------------------------------------------------- Scratch *)

module Scratch = Core.Prelude.Scratch

let test_scratch_reuse () =
  let t = Scratch.create () in
  let a = Scratch.bytes t 100 in
  check_true "at least the size asked" (Bytes.length a >= 100);
  check_true "reused for a smaller size" (Scratch.bytes t 50 == a);
  let b = Scratch.bytes t 200 in
  check_true "grown for a larger size" (Bytes.length b >= 200 && b != a);
  check_true "the grown buffer is kept" (Scratch.bytes t 150 == b);
  let big = Scratch.bytes t ((1 lsl 20) + 1) in
  check_true "a buffer over 1 MiB is handed out"
    (Bytes.length big > 1 lsl 20);
  check_true "but not kept" (Scratch.bytes t 150 == b);
  let other = Domain.join (Domain.spawn (fun () -> Scratch.bytes t 150)) in
  check_true "each domain has its own buffer" (other != b)

let suite =
  [
    ( "prelude.rng",
      [
        case "determinism" test_determinism;
        case "seed sensitivity" test_seed_sensitivity;
        case "split independence" test_split_independent;
        case "copy replays" test_copy_replays;
        case "int bounds" test_int_bounds;
        case "int rejects nonpositive" test_int_rejects_nonpositive;
        case "float range" test_float_range;
        case "uniform mean" test_uniform_mean;
        case "gaussian moments" test_gaussian_moments;
        case "exponential mean" test_exponential_mean;
        case "rayleigh positive" test_rayleigh_positive;
        case "lognormal median" test_lognormal_median;
        case "pareto support" test_pareto_support;
        case "bernoulli rate" test_bernoulli_rate;
        case "backoff equal jitter" test_backoff_equal_jitter;
        case "shuffle permutes" test_shuffle_permutes;
        case "sample distinct" test_sample_distinct;
        case "sample too many" test_sample_too_many;
        prop_shuffle_preserves_multiset;
      ] );
    ( "prelude.numerics",
      [
        case "riemann zeta(2)" test_zeta_2;
        case "riemann zeta(4)" test_zeta_4;
        case "zeta monotone" test_zeta_monotone;
        case "zeta diverges at 1" test_zeta_diverges;
        case "bisect sqrt2" test_bisect_sqrt;
        case "bisect immediate" test_bisect_already_true;
        case "bisect impossible" test_bisect_never_true;
        case "solve increasing" test_solve_increasing;
        case "feq" test_feq;
        case "spectral radius diagonal" test_spectral_radius_diag;
        case "spectral radius symmetric" test_spectral_radius_known;
        case "spectral radius zero" test_spectral_radius_zero;
        case "harmonic" test_harmonic;
        case "clamp" test_clamp;
      ] );
    ( "prelude.stats",
      [
        case "mean" test_mean;
        case "mean empty" test_mean_empty;
        case "variance" test_variance;
        case "variance singleton" test_variance_singleton;
        case "geometric mean" test_geometric_mean;
        case "percentile" test_percentile;
        case "median even" test_median_even;
        case "pearson perfect" test_pearson_perfect;
        case "pearson anticorrelated" test_pearson_anticorrelated;
        case "pearson constant" test_pearson_constant;
        case "spearman monotone" test_spearman_monotone;
        case "spearman ties" test_spearman_ties;
        case "linear fit" test_linear_fit;
        case "loglog fit" test_loglog_fit;
        case "loglog rejects nonpositive" test_loglog_rejects_nonpositive;
        case "histogram" test_histogram;
        case "summary" test_summary_nonempty;
        prop_percentile_bounds;
        prop_percentile_matches_sort;
        prop_spearman_range;
      ] );
    ( "prelude.parallel",
      [
        case "run returns in order" test_par_run_order;
        case "run propagates exceptions" test_par_run_exn;
        case "map_reduce covers range once" test_par_mrc_cover;
        case "map_reduce neutral on empty" test_par_mrc_empty;
        case "map_reduce jobs-independent" test_par_mrc_deterministic;
        case "map_reduce_stripes deals units round-robin" test_par_stripes;
        case "dedicated pool lifecycle" test_par_pool_lifecycle;
        case "resolve_jobs" test_par_resolve_jobs;
      ] );
    ( "prelude.union_find",
      [ case "basic" test_uf_basic; case "transitive" test_uf_transitive ] );
    ( "prelude.jsonl",
      [
        test_string_round_trip;
        case "string errors keep their messages" test_string_errors_kept;
        case "base64 RFC 4648 vectors and rejections" test_base64_vectors;
        test_base64_round_trip;
        case "parse_in_place leaves the string at its path"
          test_parse_in_place;
        case "base64_decode_into a range of a string"
          test_base64_decode_into;
      ] );
    ( "prelude.scratch",
      [ case "per-domain buffers, reused, large ones not kept"
          test_scratch_reuse ] );
    ( "prelude.table",
      [
        case "render" test_table_render;
        case "arity" test_table_arity;
        case "csv" test_table_csv;
        case "cell to string" test_cell_to_string;
      ] );
  ]
