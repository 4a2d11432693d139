(* The optimized flat/log-domain kernels must be bit-for-bit the naive
   sweeps in [Naive_ref]: same witness triple, same value, at every job
   count, on every space family.  Plus: every call sweeps (no kernel
   keeps results), Memo unit behaviour, and pruning-counter sanity. *)

module D = Core.Decay.Decay_space
module Met = Core.Decay.Metricity
module Fad = Core.Decay.Fading
module Sp = Core.Decay.Spaces
module Memo = Core.Prelude.Memo
module Rng = Core.Prelude.Rng
module Ctx = Core.Decay.Ctx
open Testutil

(* Kernel context at a given job count — what almost every identity
   check below wants. *)
let ctx_j jobs = Ctx.make ~jobs ()

let witness : Met.witness Alcotest.testable =
  let pp fmt (w : Met.witness) =
    Format.fprintf fmt "{x=%d; y=%d; z=%d; value=%h}" w.x w.y w.z w.value
  in
  Alcotest.testable pp (fun (a : Met.witness) b ->
      a.x = b.x && a.y = b.y && a.z = b.z && Float.equal a.value b.value)

let check_witness = Alcotest.check witness
let check_exact_float msg a b = check_true msg (Float.equal a b)

(* Every named construction the paper uses, including the tie-heavy ones
   (uniform, grid, star) where strict-improvement combine ordering is the
   only thing keeping the witness deterministic. *)
let families () =
  [
    ("random-sym", random_space ~n:11 3);
    ("random-asym", random_asym_space ~n:11 5);
    ("star", Sp.star ~k:8 ~r:4.);
    ("welzl", Sp.welzl ~n:8 ~eps:0.25);
    ("three-point", Sp.three_point ~q:5.);
    ("uniform", Sp.uniform 8);
    ("exp-line", Sp.exponential_line ~n:10);
    ( "geo-plane",
      D.of_points ~alpha:3. (Sp.random_points (Rng.create 7) ~n:12 ~side:30.)
    );
    ( "grid",
      D.of_points ~alpha:2.5 (Sp.grid_points ~rows:3 ~cols:4 ~spacing:2.) );
  ]

let test_zeta_matches_naive () =
  List.iter
    (fun (name, d) ->
      let reference = Naive_ref.zeta_witness ~jobs:1 d in
      List.iter
        (fun jobs ->
          check_witness
            (Printf.sprintf "zeta witness %s jobs=%d" name jobs)
            reference
            (Met.zeta_witness ~ctx:(ctx_j jobs) d))
        [ 1; 4 ])
    (families ())

let test_phi_matches_naive () =
  List.iter
    (fun (name, d) ->
      let reference = Naive_ref.phi_witness ~jobs:1 d in
      List.iter
        (fun jobs ->
          check_witness
            (Printf.sprintf "phi witness %s jobs=%d" name jobs)
            reference
            (Met.phi_witness ~ctx:(ctx_j jobs) d))
        [ 1; 4 ])
    (families ())

let test_gamma_matches_naive () =
  List.iter
    (fun (name, d) ->
      List.iter
        (fun r ->
          let reference = Naive_ref.gamma ~jobs:1 d ~r in
          List.iter
            (fun jobs ->
              check_exact_float
                (Printf.sprintf "gamma %s r=%g jobs=%d" name r jobs)
                reference
                (Fad.gamma ~ctx:(ctx_j jobs) d ~r))
            [ 1; 4 ])
        [ 0.5; 2.; 10. ])
    (families ())

(* The two sweep paths a test can force (Metricity's test-only entry). *)
let paths = [ ("pruned", Met.Pruned); ("min-plus", Met.Minplus) ]

let test_tiled_kernels_match_naive () =
  (* n = 512 is where the zeta/phi sweeps switch to z-tiles and x-panels
     (Metricity's tile_threshold); the families above never reach it.
     The square root of Euclidean distance is a metric; a few planted 6x
     violations give both kernels a witness above 1, and a sweep that
     prunes some tiles and scans others.  The naive reference dominates
     the cost (~1.3 s at jobs=2 on a 2-core box); the optimized sweeps
     take ~25 ms each. *)
  let n = 512 in
  let base =
    D.of_points ~alpha:0.5 (Sp.random_points (Rng.create 2025) ~n ~side:100.)
  in
  let planted = [ (0, 511); (3, 400); (77, 78); (10, 250); (300, 301) ] in
  let d =
    D.of_fn ~name:"near-metric" n (fun i j ->
        let f = D.decay base i j in
        if List.mem (min i j, max i j) planted then 6. *. f else f)
  in
  let zeta = Naive_ref.zeta_witness ~jobs:2 d in
  let phi = Naive_ref.phi_witness ~jobs:2 d in
  check_true "planted violations raise zeta" (zeta.value > 1.);
  check_true "planted violations raise phi" (phi.value > 1.);
  let (), k =
    kernel_deltas (fun () ->
        List.iter
          (fun jobs ->
            check_witness
              (Printf.sprintf "tiled zeta witness jobs=%d" jobs)
              zeta
              (Met.zeta_witness ~ctx:(ctx_j jobs) d);
            check_witness
              (Printf.sprintf "tiled phi witness jobs=%d" jobs)
              phi
              (Met.phi_witness ~ctx:(ctx_j jobs) d))
          [ 1; 2 ])
  in
  check_true "the tiled path ran: z-tiles were pruned"
    (List.assoc "tile_prunes" k > 0);
  List.iter
    (fun (name, path) ->
      List.iter
        (fun jobs ->
          let ctx = ctx_j jobs in
          check_witness
            (Printf.sprintf "tiled zeta witness, %s path, jobs=%d" name jobs)
            zeta
            (Met.forced_zeta_witness path ~ctx d);
          check_witness
            (Printf.sprintf "tiled phi witness, %s path, jobs=%d" name jobs)
            phi
            (Met.forced_phi_witness path ~ctx d))
        [ 1; 2 ])
    paths

let prop_random_witness_identity =
  qcheck ~count:40 "optimized zeta/phi witnesses = naive on random spaces"
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, sym) ->
      let d =
        if sym then random_space ~n:9 seed else random_asym_space ~n:9 seed
      in
      let zw = Naive_ref.zeta_witness ~jobs:1 d in
      let pw = Naive_ref.phi_witness ~jobs:1 d in
      List.for_all
        (fun jobs ->
          Met.zeta_witness ~ctx:(ctx_j jobs) d = zw
          && Met.phi_witness ~ctx:(ctx_j jobs) d = pw)
        [ 1; 4 ])

(* exact_limit 0 sends every listener down the greedy pass; 24 (the
   default) solves the smaller candidate sets exactly. *)
let prop_random_gamma_identity =
  qcheck ~count:25 "optimized gamma = naive on random spaces"
    QCheck.(
      quad (int_range 0 10_000) (int_range 3 40) (float_range 0.5 20.)
        (oneofl [ 0; 24 ]))
    (fun (seed, n, r, exact_limit) ->
      let d = random_asym_space ~n seed in
      let reference = Naive_ref.gamma ~exact_limit ~jobs:1 d ~r in
      List.for_all
        (fun jobs ->
          let ctx = Ctx.make ~jobs ~exact_limit () in
          Float.equal (Fad.gamma ~ctx d ~r) reference)
        [ 1; 4 ])

(* ------------------------------------------- gamma ladder, summary *)

module R = Core.Radio
module Stat = Core.Decay.Statistics

(* The spaces gamma's listener ladder is for, built as perfbench's
   offline and churn workloads build them: an office and a clutter radio
   space at n = 256 and a mobility snapshot at n = 176. *)
let radio_space ~office seed =
  let rng = Rng.create seed in
  let env, side =
    if office then
      ( R.Environment.office ~rooms_x:3 ~rooms_y:3 ~room_size:6.
          R.Material.drywall,
        17. )
    else
      ( R.Environment.random_clutter rng ~side:25. ~n_walls:30
          [ R.Material.concrete; R.Material.metal ],
        24. )
  in
  R.Measure.decay_space ~seed env
    (R.Node.of_points (Sp.random_points rng ~n:256 ~side))

let ladder_spaces =
  lazy
    [
      ("office", radio_space ~office:true 11);
      ("clutter", radio_space ~office:false 12);
      ( "evolve",
        Core.Decay.Evolve.(
          space
            (create ~name:"walk" ~seed:13 { default with n = 176 })) );
    ]

let test_gamma_ladder_matches_naive () =
  List.iter
    (fun (name, d) ->
      let n = D.n d in
      let reference = Naive_ref.gamma ~jobs:2 d ~r:4. in
      List.iter
        (fun jobs ->
          let g, k =
            kernel_deltas (fun () -> Fad.gamma ~ctx:(ctx_j jobs) d ~r:4.)
          in
          let k c = List.assoc c k in
          let what = Printf.sprintf "%s jobs=%d" name jobs in
          check_exact_float ("gamma " ^ what) reference g;
          check_int ("visited + skipped = n, " ^ what) n
            (k "gamma_visited" + k "gamma_skipped");
          check_int ("exact + greedy = visited, " ^ what) (k "gamma_visited")
            (k "gamma_exact" + k "gamma_greedy");
          check_true ("cut-offs are exact searches, " ^ what)
            (k "gamma_budget_cutoffs" <= k "gamma_exact");
          if jobs = 1 then
            check_true ("the ladder skipped listeners, " ^ what)
              (k "gamma_skipped" > 0))
        [ 1; 2; 4 ])
    (Lazy.force ladder_spaces)

(* -------------------------------------------------- min-plus row passes *)

let prop_forced_paths_match_naive =
  qcheck ~count:60 "each forced path's zeta/phi witnesses = naive (n 3-22)"
    QCheck.(triple (int_range 0 10_000) (int_range 3 22) bool)
    (fun (seed, n, sym) ->
      let d = if sym then random_space ~n seed else random_asym_space ~n seed in
      let zw = Naive_ref.zeta_witness ~jobs:1 d in
      let pw = Naive_ref.phi_witness ~jobs:1 d in
      List.for_all
        (fun (_, path) ->
          List.for_all
            (fun jobs ->
              let ctx = ctx_j jobs in
              Met.forced_zeta_witness path ~ctx d = zw
              && Met.forced_phi_witness path ~ctx d = pw)
            [ 1; 4 ])
        paths)

(* One triple's threshold, bit for bit the naive bisection's, on triples
   whose long side ranges from well inside the triangle to 1000 times the
   sum of the other two. *)
let prop_zeta_triple_is_naive =
  qcheck ~count:500 "zeta_triple = naive, bit for bit"
    QCheck.(
      triple (float_range (-2.) 2.) (float_range (-2.) 2.)
        (float_range (-0.3) 3.))
    (fun (a, b, c) ->
      let fxz = 10. ** a and fzy = 10. ** b in
      let fxy = (fxz +. fzy) *. (10. ** c) in
      Int64.equal
        (Int64.bits_of_float (Met.zeta_triple fxy fxz fzy))
        (Int64.bits_of_float (Naive_ref.zeta_triple fxy fxz fzy)))

(* Each forced path against the naive sweep at [jobs] 1 and 4. *)
let check_paths_match_naive name d =
  let zw = Naive_ref.zeta_witness ~jobs:2 d in
  let pw = Naive_ref.phi_witness ~jobs:2 d in
  List.iter
    (fun (pname, path) ->
      List.iter
        (fun jobs ->
          let ctx = ctx_j jobs in
          let what = Printf.sprintf "%s, %s path, jobs=%d" name pname jobs in
          check_witness ("zeta " ^ what) zw
            (Met.forced_zeta_witness path ~ctx d);
          check_witness ("phi " ^ what) pw
            (Met.forced_phi_witness path ~ctx d))
        [ 1; 4 ])
    paths;
  (zw, pw)

let test_forced_paths_on_ties () =
  (* Exactly collinear triples tie on the lex rule; in the uniform space
     every pair ties and no triple beats the initial witness. *)
  ignore
    (check_paths_match_naive "grid 10x10, alpha 3"
       (D.of_points ~alpha:3. (Sp.grid_points ~rows:10 ~cols:10 ~spacing:1.)));
  let zw, pw = check_paths_match_naive "uniform 96" (Sp.uniform 96) in
  check_witness "uniform zeta is the initial triple"
    { Met.x = 0; y = 1; z = 2; value = 1. } zw;
  check_witness "uniform phi is the initial triple"
    { Met.x = 0; y = 2; z = 1; value = 1. } pw

let geo_space ~n seed =
  D.of_points ~alpha:3. (Sp.random_points (Rng.create seed) ~n ~side:25.)

let geo256 = lazy (geo_space ~n:256 7)

let test_paths_agree () =
  (* Up to n = 96 against the naive sweep; above, the naive zeta alone
     takes ~0.4 s, so both forced paths and the automatic choice must
     agree with each other. *)
  ignore (check_paths_match_naive "geometric n=96" (geo_space ~n:96 5));
  ignore (check_paths_match_naive "evolve n=80"
            Core.Decay.Evolve.(
              space (create ~name:"walk" ~seed:3 { default with n = 80 })));
  List.iter
    (fun (name, d) ->
      let zw = Met.zeta_witness ~ctx:(ctx_j 1) d in
      let pw = Met.phi_witness ~ctx:(ctx_j 1) d in
      List.iter
        (fun jobs ->
          let ctx = ctx_j jobs in
          let what = Printf.sprintf "%s, jobs=%d" name jobs in
          check_witness ("zeta automatic " ^ what) zw (Met.zeta_witness ~ctx d);
          check_witness ("phi automatic " ^ what) pw (Met.phi_witness ~ctx d);
          List.iter
            (fun (pname, path) ->
              check_witness
                (Printf.sprintf "zeta %s path, %s" pname what)
                zw
                (Met.forced_zeta_witness path ~ctx d);
              check_witness
                (Printf.sprintf "phi %s path, %s" pname what)
                pw
                (Met.forced_phi_witness path ~ctx d))
            paths)
        [ 1; 4 ])
    [ ("geometric n=256", Lazy.force geo256);
      ("office n=256", List.assoc "office" (Lazy.force ladder_spaces));
      ("evolve n=176", List.assoc "evolve" (Lazy.force ladder_spaces)) ]

(* The integer attribute [attr] of every sweep span [f] records. *)
let traced_attr attr f =
  let module Obs = Core.Prelude.Obs in
  let module J = Core.Prelude.Jsonl in
  let path = Filename.temp_file "bg_kernels" ".jsonl" in
  Obs.set_trace_file path;
  Fun.protect
    ~finally:(fun () ->
      Obs.close_trace ();
      Sys.remove path)
    (fun () ->
      let v = f () in
      Obs.close_trace ();
      let rows =
        List.filter_map
          (fun e ->
            match (J.mem_str "name" e, J.member "attrs" e) with
            | Some name, Some attrs
              when name = "zeta_sweep" || name = "phi_sweep" ->
                Option.map
                  (fun r -> (name, int_of_float r))
                  (J.mem_num attr attrs)
            | _ -> None)
          (J.parse_lines (J.read_file path))
      in
      (v, rows))

let test_minplus_counters () =
  let geo = Lazy.force geo256 in
  List.iter
    (fun jobs ->
      let ctx = ctx_j jobs in
      List.iter
        (fun (name, sweep) ->
          let ((), k), spans =
            traced_attr "minplus_rows" (fun () ->
                kernel_deltas (fun () -> sweep ctx))
          in
          let k c = List.assoc c k in
          let what = Printf.sprintf "%s, geometric n=256, jobs=%d" name jobs in
          check_int ("minplus_rows counter, " ^ what) 256 (k "minplus_rows");
          check_true ("minplus_rows span attribute, " ^ what)
            (spans = [ (name ^ "_sweep", 256) ]);
          check_true ("visited <= triples, " ^ what)
            (k "plain_skips" + k "cheap_skips" + k "deep" <= k "triples");
          check_true ("pruned fraction below 0.05, " ^ what)
            (pruned_fraction
               (List.map (fun c -> (c, k c))
                  [ "triples"; "plain_skips"; "cheap_skips"; "deep" ])
            < 0.05))
        [ ("zeta", fun ctx -> ignore (Met.zeta_witness ~ctx geo));
          ("phi", fun ctx -> ignore (Met.phi_witness ~ctx geo)) ])
    [ 1; 4 ];
  let clutter = List.assoc "clutter" (Lazy.force ladder_spaces) in
  let _, k =
    kernel_deltas (fun () -> Met.zeta_witness ~ctx:(ctx_j 2) clutter)
  in
  check_int "clutter zeta keeps the pruned path" 0
    (List.assoc "minplus_rows" k)

let bits a = Array.map Int64.bits_of_float a

let same_summary (a : Stat.summary) (b : Stat.summary) =
  a.n = b.n
  && bits
       [| a.min_db; a.max_db; a.median_db; a.dynamic_range_db; a.asymmetry_db |]
     = bits
         [| b.min_db; b.max_db; b.median_db; b.dynamic_range_db;
            b.asymmetry_db |]

let test_summarize_matches_naive () =
  let office = List.assoc "office" (Lazy.force ladder_spaces) in
  List.iter
    (fun (name, d) ->
      check_true
        (Printf.sprintf "decays_db %s = list-built array" name)
        (bits (Stat.decays_db d) = bits (Naive_ref.decays_db d));
      let reference = Naive_ref.summarize ~jobs:1 d in
      List.iter
        (fun jobs ->
          check_true
            (Printf.sprintf "summarize %s jobs=%d" name jobs)
            (same_summary reference (Stat.summarize ~ctx:(ctx_j jobs) d)))
        [ 1; 4 ])
    (("radio-office", office) :: families ())

(* ------------------------------------------------ symmetric spaces *)

(* An exactly symmetric space with decays in {1, 2, 3, 4}: most values
   tie, so the lex rule decides most witnesses. *)
let tie_space ~n seed =
  let g = Rng.create seed in
  let m = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let v = float_of_int (1 + Rng.int g 4) in
      m.(i).(j) <- v;
      m.(j).(i) <- v
    done
  done;
  D.of_matrix ~name:"ties" m

(* [d] with cell (i, j) one ulp larger, so no longer exactly symmetric. *)
let nudged d ~i ~j =
  D.of_fn ~name:"nudged" (D.n d) (fun p q ->
      let f = D.decay d p q in
      if p = i && q = j then Float.succ f else f)

(* A tie space and its nudged copy: each (zeta, phi) pair of [sweeps]
   against the naive witnesses at jobs 1-4 (3 deals uneven stripes). *)
let symmetric_and_nudged_match ~sweeps (seed, n) =
  let d = tie_space ~n seed in
  let e = nudged d ~i:(seed mod n) ~j:((seed + 1) mod n) in
  D.exactly_symmetric d
  && (not (D.exactly_symmetric e))
  && List.for_all
       (fun d ->
         let zw = Naive_ref.zeta_witness ~jobs:1 d in
         let pw = Naive_ref.phi_witness ~jobs:1 d in
         List.for_all
           (fun (zeta, phi) ->
             List.for_all
               (fun jobs ->
                 let ctx = ctx_j jobs in
                 zeta ctx d = zw && phi ctx d = pw)
               [ 1; 2; 3; 4 ])
           sweeps)
       [ d; e ]

let prop_symmetric_forced_paths =
  qcheck ~count:40
    "symmetric tie spaces and nudged copies: forced paths = naive (n 3-22)"
    QCheck.(pair (int_range 0 10_000) (int_range 3 22))
    (symmetric_and_nudged_match
       ~sweeps:
         (List.map
            (fun (_, path) ->
              ( (fun ctx d -> Met.forced_zeta_witness path ~ctx d),
                fun ctx d -> Met.forced_phi_witness path ~ctx d ))
            paths))

let prop_symmetric_automatic =
  qcheck ~count:3
    "symmetric tie spaces and nudged copies: automatic = naive (n 64-96)"
    QCheck.(pair (int_range 0 10_000) (int_range 64 96))
    (symmetric_and_nudged_match
       ~sweeps:
         [ ( (fun ctx d -> Met.zeta_witness ~ctx d),
             fun ctx d -> Met.phi_witness ~ctx d ) ])

(* Pair counts n(n-1)/2 of both parities (1, 3, 6, 10, 15, 21): the
   triangle's median must be the doubled multiset's.  Tie spaces repeat
   values, random ones do not; the nudged copies take the full path. *)
let test_summarize_symmetric () =
  List.iter
    (fun n ->
      let tie = tie_space ~n (100 + n) and rnd = random_space ~n (200 + n) in
      List.iter
        (fun (what, d) ->
          let reference = Naive_ref.summarize ~jobs:1 d in
          List.iter
            (fun jobs ->
              check_true
                (Printf.sprintf "summarize %s n=%d jobs=%d" what n jobs)
                (same_summary reference (Stat.summarize ~ctx:(ctx_j jobs) d)))
            [ 1; 4 ])
        [ ("tie", tie); ("random", rnd); ("nudged tie", nudged tie ~i:1 ~j:0);
          ("nudged random", nudged rnd ~i:0 ~j:(n - 1)) ])
    [ 2; 3; 4; 5; 6; 7 ]

(* The transpose views hold the transposed cells bit for bit; on an
   exactly symmetric space they are the buffers they transpose. *)
let test_transpose_views () =
  let module F = D.Flat in
  let base = random_space ~n:13 4 in
  List.iter
    (fun (name, d, sym) ->
      let n = D.n d in
      let f = F.data d and lg = F.logs d in
      let t = F.transpose d and lt = F.log_transpose d in
      let same a i b j =
        Int64.equal (Int64.bits_of_float (F.get a i))
          (Int64.bits_of_float (F.get b j))
      in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let v = D.decay d i j in
          let l = if i = j then neg_infinity else log v in
          ok :=
            !ok
            && same t ((i * n) + j) f ((j * n) + i)
            && same lt ((i * n) + j) lg ((j * n) + i)
            && Int64.equal (Int64.bits_of_float (F.get lg ((i * n) + j)))
                 (Int64.bits_of_float l)
        done
      done;
      check_true ("transposes hold the transposed cells, " ^ name) !ok;
      check_true ("flag, " ^ name) (Bool.equal sym (D.exactly_symmetric d));
      check_true ("aliased exactly when symmetric, " ^ name)
        (Bool.equal sym (t == f && lt == lg)))
    [ ("random symmetric", base, true); ("tie", tie_space ~n:9 5, true);
      ("asymmetric", random_asym_space ~n:13 6, false);
      ("nudged", nudged base ~i:12 ~j:11, false) ]

let test_mirrored_attribute () =
  let geo = Lazy.force geo256 and asym = random_asym_space ~n:40 8 in
  List.iter
    (fun (what, d, mirrored) ->
      let n = D.n d in
      let ((), k), spans =
        traced_attr "mirrored" (fun () ->
            kernel_deltas (fun () ->
                ignore (Met.zeta_witness ~ctx:(ctx_j 2) d);
                ignore (Met.phi_witness ~ctx:(ctx_j 2) d)))
      in
      let k c = List.assoc c k in
      check_true ("mirrored span attributes, " ^ what)
        (spans = [ ("zeta_sweep", mirrored); ("phi_sweep", mirrored) ]);
      check_true ("mirrored triples count as cheap skips, " ^ what)
        (k "cheap_skips" >= 2 * mirrored * (n - 2));
      check_true ("visited <= triples, " ^ what)
        (k "plain_skips" + k "cheap_skips" + k "deep" <= k "triples"))
    [ ("geometric n=256", geo, 256 * 255 / 2); ("asymmetric n=40", asym, 0) ]

(* The forced pruned sweeps take ~25-75 ms on geometric n = 256 (2-core
   box) and start with no seed or table, so only the stripes' own polls
   can stop them inside a 2 ms budget. *)
let test_sweeps_meet_deadlines () =
  let module Par = Core.Prelude.Parallel in
  let geo = Lazy.force geo256 in
  let within seconds what sweep =
    List.iter
      (fun jobs ->
        Alcotest.check_raises
          (Printf.sprintf "geometric n=256 %s under %g s, jobs=%d" what
             seconds jobs)
          Par.Timeout
          (fun () ->
            Par.with_deadline ~seconds (fun () -> ignore (sweep (ctx_j jobs)))))
      [ 1; 2 ]
  in
  within 0.001 "zeta" (fun ctx -> Met.zeta_witness ~ctx geo);
  within 0.002 "pruned zeta" (fun ctx ->
      Met.forced_zeta_witness Met.Pruned ~ctx geo);
  within 0.002 "pruned phi" (fun ctx ->
      Met.forced_phi_witness Met.Pruned ~ctx geo)

(* ------------------------------------------------ no kept results *)

let check_bits msg a b =
  check_true msg (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let test_kernels_keep_no_results () =
  let d = random_space ~n:10 42 in
  let twice f =
    kernel_deltas (fun () ->
        let a = f () in
        (a, f ()))
  in
  let sweeps k = List.assoc "sweeps" k in
  let (z1, z2), k = twice (fun () -> Met.zeta_witness ~ctx:Ctx.default d) in
  check_int "two zeta calls, two sweeps" 2 (sweeps k);
  check_witness "zeta witness repeats" z1 z2;
  check_bits "zeta bits repeat" z1.value z2.value;
  let (p1, p2), k = twice (fun () -> Met.phi_witness ~ctx:Ctx.default d) in
  check_int "two phi calls, two sweeps" 2 (sweeps k);
  check_witness "phi witness repeats" p1 p2;
  check_bits "phi bits repeat" p1.value p2.value;
  let (g1, g2), k = twice (fun () -> Fad.gamma ~ctx:Ctx.default d ~r:2.) in
  check_int "two gamma calls, two sweeps" 2 (sweeps k);
  check_bits "gamma bits repeat" g1 g2;
  let config = { Core.Analysis.gamma_at = [ 2. ]; ctx = Ctx.default } in
  let _, first = kernel_deltas (fun () -> Core.Analysis.run ~config d) in
  let _, second = kernel_deltas (fun () -> Core.Analysis.run ~config d) in
  check_true "Analysis.run sweeps zeta, phi and gamma" (sweeps first >= 3);
  check_int "a second Analysis.run sweeps as much" (sweeps first)
    (sweeps second)

(* -------------------------------------------------------------- Memo *)

(* Look up, and on a miss compute and store: the serve store's pattern. *)
let find_or_compute m k compute =
  match Memo.find_opt m k with
  | Some v -> v
  | None ->
      let v = compute () in
      Memo.set m k v;
      v

let test_memo_basics () =
  let m : (int, int) Memo.t = Memo.create ~max_size:4 () in
  let computes = ref 0 in
  let f k =
    find_or_compute m k (fun () ->
        incr computes;
        k * k)
  in
  check_int "computes" 9 (f 3);
  check_int "cached" 9 (f 3);
  check_int "computed once" 1 !computes;
  check_int "hits" 1 (Memo.hits m);
  check_int "misses" 1 (Memo.misses m);
  Memo.set m 3 10;
  check_true "set overwrites" (Memo.find_opt m 3 = Some 10);
  check_int "overwrite keeps one entry" 1 (Memo.length m)

let test_memo_eviction_bounds_size () =
  let m : (int, int) Memo.t = Memo.create ~max_size:3 () in
  for k = 0 to 9 do
    Memo.set m k k
  done;
  check_int "size stays bounded" 3 (Memo.length m);
  check_int "one eviction per overflowing insert" 7 (Memo.evictions m);
  Alcotest.(check (list int))
    "the three most recent survive, least recent first" [ 7; 8; 9 ]
    (List.map fst (Memo.to_alist m));
  check_true "values survive" (Memo.find_opt m 8 = Some 8)

let test_memo_concurrent () =
  let m : (int, int) Memo.t = Memo.create () in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let acc = ref 0 in
            for k = 0 to 99 do
              acc :=
                !acc + find_or_compute m (k mod 10) (fun () -> (k mod 10) * 7)
            done;
            !acc))
  in
  let sums = Array.map Domain.join domains in
  Array.iter (fun s -> check_int "each domain sums identically" sums.(0) s)
    sums;
  check_int "ten distinct keys" 10 (Memo.length m);
  check_int "every lookup counted once" 400 (Memo.hits m + Memo.misses m)

(* ------------------------------------------- lazy views under the pool *)

let test_views_race_free_under_pool () =
  (* The derived views (logs, transpose, log-transpose) are built lazily
     behind an atomic-once guard, so kernels no longer pre-force them
     before fanning out — the first touch may happen concurrently inside
     pool tasks.  Each trial builds a fresh space and forces all four
     views from four workers at once; values must match the definition
     and repeated forcing must return the same buffer.  Trials 20-39 are
     symmetric, and the workers race for the symmetry flag too. *)
  let module F = D.Flat in
  let module Par = Core.Prelude.Parallel in
  for trial = 0 to 39 do
    let n = 40 in
    let g i j = float_of_int ((((i * 7) + (j * 3) + trial) mod 19) + 1) in
    let sym = trial >= 20 in
    let f i j = if sym then g (min i j) (max i j) else g i j in
    let d = D.of_fn ~name:"race" n f in
    let flags = Atomic.make true in
    let got =
      Par.map_reduce_chunks ~jobs:4 ~lo:0 ~hi:n ~neutral:0.
        ~map:(fun lo hi ->
          if not (Bool.equal sym (D.exactly_symmetric d)) then
            Atomic.set flags false;
          let fl = F.data d and lg = F.logs d in
          let tr = F.transpose d and lt = F.log_transpose d in
          let acc = ref 0. in
          for i = lo to hi - 1 do
            for j = 0 to n - 1 do
              if j <> i then begin
                let k = (i * n) + j in
                acc :=
                  !acc +. F.get fl k +. F.get lg k +. F.get tr k +. F.get lt k
              end
            done
          done;
          !acc)
        ~combine:( +. )
    in
    let expected = ref 0. in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if j <> i then
          expected :=
            !expected +. f i j +. log (f i j) +. f j i +. log (f j i)
      done
    done;
    check_float ~eps:1e-9
      (Printf.sprintf "views correct under concurrent first touch (t%d)"
         trial)
      !expected got;
    check_true "repeated force returns the same buffer"
      (F.data d == F.data d && F.logs d == F.logs d
      && F.transpose d == F.transpose d
      && F.log_transpose d == F.log_transpose d);
    check_true
      (Printf.sprintf "symmetry flag under concurrent first touch (t%d)" trial)
      (Atomic.get flags)
  done

(* ----------------------------------------------------- counter sanity *)

let test_pruning_counters () =
  let d = random_space ~n:10 123 in
  let (), s =
    kernel_deltas (fun () -> ignore (Met.zeta_witness ~ctx:(ctx_j 1) d))
  in
  let k name = List.assoc name s in
  let n = 10 in
  check_int "one sweep" 1 (k "sweeps");
  check_int "triple count" (n * (n - 1) * (n - 2)) (k "triples");
  check_true "visited <= triples"
    (k "plain_skips" + k "cheap_skips" + k "deep" <= k "triples");
  check_true "bisections only on deep triples" (k "bisections" <= k "deep");
  let fr = pruned_fraction s in
  check_true "pruned fraction in [0,1]" (fr >= 0. && fr <= 1.)

let suite =
  [
    ( "kernels",
      [
        case "zeta witness = naive, all families" test_zeta_matches_naive;
        case "phi witness = naive, all families" test_phi_matches_naive;
        case "gamma = naive, all families" test_gamma_matches_naive;
        case "tiled zeta/phi = naive at n=512" test_tiled_kernels_match_naive;
        prop_random_witness_identity;
        prop_random_gamma_identity;
        case "gamma ladder = naive on radio and churn spaces"
          test_gamma_ladder_matches_naive;
        prop_forced_paths_match_naive;
        prop_zeta_triple_is_naive;
        case "forced paths = naive on tie-heavy spaces"
          test_forced_paths_on_ties;
        case "forced paths and automatic choice agree" test_paths_agree;
        case "min-plus counters and span attribute" test_minplus_counters;
        case "summarize and decays_db = naive" test_summarize_matches_naive;
        case "kernels keep no results" test_kernels_keep_no_results;
        case "memo basics" test_memo_basics;
        case "memo eviction" test_memo_eviction_bounds_size;
        case "memo concurrent" test_memo_concurrent;
        case "pruning counters" test_pruning_counters;
        case "lazy views race-free under pool"
          test_views_race_free_under_pool;
        prop_symmetric_forced_paths;
        prop_symmetric_automatic;
        case "summarize = naive on symmetric and nudged spaces"
          test_summarize_symmetric;
        case "transpose views, aliased on symmetric spaces"
          test_transpose_views;
        case "mirrored pairs: span attribute and counts"
          test_mirrored_attribute;
        case "sweeps stop at their deadline at jobs 1 and 2"
          test_sweeps_meet_deadlines;
      ] );
  ]
