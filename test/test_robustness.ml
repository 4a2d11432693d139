(* The fault-tolerance subsystem: Validate diagnose/repair, the strict and
   repairing CSV doors, the supervised pool's error propagation and
   deadlines, experiment isolation, and the fault injector. *)

open Testutil
module D = Core.Decay.Decay_space
module Io = Core.Decay.Decay_io
module V = Core.Decay.Validate
module C = Core.Decay.Corrupt
module Met = Core.Decay.Metricity
module Par = Core.Prelude.Parallel
module Iso = Bg_experiments.Isolate
module Reg = Bg_experiments.Registry

let copy_matrix m = Array.map Array.copy m

(* A valid 4x4 symmetric decay matrix to corrupt in targeted ways. *)
let valid4 () =
  [|
    [| 0.; 2.; 3.; 4. |];
    [| 2.; 0.; 5.; 6. |];
    [| 3.; 5.; 0.; 7. |];
    [| 4.; 6.; 7.; 0. |];
  |]

(* ------------------------------------------------------- Validate.diagnose *)

let test_diagnose_clean () =
  let d = V.diagnose (valid4 ()) in
  check_true "no issues" (d.V.issues = []);
  check_int "nothing truncated" 0 d.V.truncated;
  (match d.V.profile with
  | None -> Alcotest.fail "clean matrix must have a profile"
  | Some p ->
      check_int "n" 4 p.V.n;
      check_int "bad cells" 0 p.V.bad_cells;
      check_int "asymmetric pairs" 0 p.V.asymmetric_pairs;
      check_float "worst asymmetry" 1. p.V.worst_asymmetry);
  check_true "is_valid" (V.is_valid (valid4 ()))

let test_diagnose_cells () =
  let m = valid4 () in
  m.(0).(2) <- Float.nan;
  m.(1).(0) <- -3.;
  m.(2).(2) <- 0.5;
  let d = V.diagnose m in
  check_int "three issues" 3 (List.length d.V.issues);
  let has p = List.exists p d.V.issues in
  check_true "NaN reported"
    (has (function V.Not_finite { i = 0; j = 2; _ } -> true | _ -> false));
  check_true "negative reported"
    (has (function
      | V.Non_positive { i = 1; j = 0; value } -> value = -3.
      | _ -> false));
  check_true "diagonal reported"
    (has (function V.Nonzero_diagonal { i = 2; _ } -> true | _ -> false));
  match d.V.profile with
  | None -> Alcotest.fail "cell defects keep the profile"
  | Some p -> check_int "bad cells counted" 3 p.V.bad_cells

let test_diagnose_shape () =
  let d = V.diagnose [||] in
  check_true "empty reported" (d.V.issues = [ V.Empty ]);
  check_true "no profile for empty" (d.V.profile = None);
  let d = V.diagnose [| [| 0.; 1. |]; [| 1. |] |] in
  check_true "ragged reported"
    (List.exists
       (function
         | V.Ragged { row = 1; expected = 2; got = 1 } -> true | _ -> false)
       d.V.issues);
  check_true "no profile for ragged" (d.V.profile = None)

let test_diagnose_truncation () =
  (* An all-NaN off-diagonal 16x16 matrix has 240 defects; the diagnosis
     keeps max_reported verbatim and counts the rest. *)
  let n = 16 in
  let m =
    Array.init n (fun i ->
        Array.init n (fun j -> if i = j then 0. else Float.nan))
  in
  let d = V.diagnose m in
  check_int "reported prefix" V.max_reported (List.length d.V.issues);
  check_int "rest counted" ((n * (n - 1)) - V.max_reported) d.V.truncated

let test_censoring_profile () =
  let m = valid4 () in
  (* Saturate three off-diagonal cells at a common ceiling. *)
  m.(0).(3) <- 9.;
  m.(3).(0) <- 9.;
  m.(1).(3) <- 9.;
  let d = V.diagnose m in
  match d.V.profile with
  | None -> Alcotest.fail "profile expected"
  | Some p ->
      check_int "censored cells" 3 p.V.censored_cells;
      check_float "censor floor" 9. p.V.censor_floor

(* --------------------------------------------------------- Validate.repair *)

let test_repair_reject () =
  let m = valid4 () in
  (match V.repair ~policy:V.Reject m with
  | Ok (m', r) ->
      check_true "valid input passes through" (m' == m);
      check_int "nothing clamped" 0 r.V.cells_clamped
  | Error _ -> Alcotest.fail "valid matrix must not be rejected");
  m.(0).(1) <- infinity;
  match V.repair ~policy:V.Reject m with
  | Ok _ -> Alcotest.fail "Reject must fail on a defect"
  | Error d -> check_true "diagnosis carried" (d.V.issues <> [])

let test_repair_clamp () =
  let m = valid4 () in
  m.(0).(1) <- infinity;
  m.(2).(3) <- -1.;
  m.(3).(3) <- 4.;
  match V.repair ~policy:(V.Clamp 37.) m with
  | Error _ -> Alcotest.fail "Clamp repairs cell defects"
  | Ok (m', r) ->
      check_true "input not mutated" (m.(0).(1) = infinity);
      check_float "bad cell clamped" 37. m'.(0).(1);
      check_float "negative clamped" 37. m'.(2).(3);
      check_float "diagonal zeroed" 0. m'.(3).(3);
      check_int "clamp count" 2 r.V.cells_clamped;
      check_int "diagonal count" 1 r.V.diagonal_zeroed;
      check_true "result valid" (V.is_valid m')

let test_repair_clamp_bad_value () =
  Alcotest.check_raises "clamp value must be finite positive"
    (Invalid_argument "Validate.repair: clamp value must be finite and \
                       positive") (fun () ->
      ignore (V.repair ~policy:(V.Clamp Float.nan) (valid4 ())))

let test_repair_symmetrize () =
  let m = valid4 () in
  m.(0).(1) <- Float.nan;
  (match V.repair ~policy:V.Symmetrize m with
  | Error _ -> Alcotest.fail "mirror is intact, repair must succeed"
  | Ok (m', r) ->
      check_float "patched from mirror" 2. m'.(0).(1);
      check_int "mirror count" 1 r.V.cells_mirrored;
      check_true "result valid" (V.is_valid m'));
  m.(1).(0) <- infinity;
  match V.repair ~policy:V.Symmetrize m with
  | Ok _ -> Alcotest.fail "both directions bad cannot symmetrize"
  | Error d -> check_true "diagnosis carried" (d.V.issues <> [])

let test_repair_drop_nodes () =
  let m = valid4 () in
  (* Node 2's transceiver died: its whole row and column are garbage. *)
  for j = 0 to 3 do
    if j <> 2 then begin
      m.(2).(j) <- Float.nan;
      m.(j).(2) <- Float.nan
    end
  done;
  (match V.repair ~policy:V.Drop_nodes m with
  | Error _ -> Alcotest.fail "dropping node 2 cleans the matrix"
  | Ok (m', r) ->
      check_true "node 2 dropped" (r.V.dropped = [ 2 ]);
      check_int "3 nodes left" 3 (Array.length m');
      check_true "result valid" (V.is_valid m');
      (* Survivors keep their original decays: (1,3) -> (1,2) after drop. *)
      check_float "surviving decay" 6. m'.(1).(2));
  let tiny = [| [| 0.; Float.nan |]; [| 1.; 0. |] |] in
  match V.repair ~policy:V.Drop_nodes tiny with
  | Ok _ -> Alcotest.fail "fewer than two survivors must fail"
  | Error d -> check_true "diagnosis carried" (d.V.issues <> [])

let test_repair_shape_unrepairable () =
  List.iter
    (fun policy ->
      match V.repair ~policy [| [| 0.; 1. |]; [| 1. |] |] with
      | Ok _ ->
          Alcotest.fail
            ("shape defect repaired under " ^ V.policy_to_string policy)
      | Error d ->
          check_true "ragged diagnosed"
            (List.exists
               (function V.Ragged _ -> true | _ -> false)
               d.V.issues))
    [ V.Reject; V.Clamp 1.; V.Symmetrize; V.Drop_nodes ]

let test_suggested_clamp () =
  let m = valid4 () in
  m.(0).(1) <- infinity;
  check_float "largest finite off-diagonal" 7. (V.suggested_clamp m);
  check_float "fallback when nothing usable" 1.
    (V.suggested_clamp [| [| 0. |] |])

(* --------------------------- witness identity through the validation path *)

let test_witness_identity_through_repair () =
  let s = random_space ~n:8 11 in
  let m = D.matrix s in
  let via policy =
    match D.of_matrix_repaired ~name:"via" ~policy m with
    | Ok (s', _) -> s'
    | Error _ -> Alcotest.fail "valid input must survive every policy"
  in
  List.iter
    (fun policy ->
      let s' = via policy in
      (* Bit-for-bit: zero-eps float compare on values, exact witnesses. *)
      check_float ~eps:0. "zeta identical"
        (Met.zeta s) (Met.zeta s');
      check_float ~eps:0. "phi identical" (Met.phi s) (Met.phi s');
      let w = Met.zeta_witness s and w' = Met.zeta_witness s' in
      check_true "zeta witness identical" (w = w');
      let p = Met.phi_witness s and p' = Met.phi_witness s' in
      check_true "phi witness identical" (p = p'))
    [ V.Reject; V.Clamp 37.; V.Symmetrize; V.Drop_nodes ]

(* ------------------------------------------------------------ CSV strictness *)

let test_of_csv_empty () =
  Alcotest.check_raises "empty text"
    (Invalid_argument "Decay_io.of_csv: empty matrix (no data rows)")
    (fun () -> ignore (Io.of_csv ""));
  Alcotest.check_raises "only comments"
    (Invalid_argument "Decay_io.of_csv: empty matrix (no data rows)")
    (fun () -> ignore (Io.of_csv "# name: ghost\n\n# nothing\n"))

let test_of_csv_ragged () =
  Alcotest.check_raises "short row"
    (Invalid_argument
       "Decay_io.of_csv: data row 2 has 1 cells, expected 2 (the matrix has \
        2 data rows and must be square)") (fun () ->
      ignore (Io.of_csv "0,1\n1\n"));
  Alcotest.check_raises "rectangular"
    (Invalid_argument
       "Decay_io.of_csv: data row 1 has 3 cells, expected 2 (the matrix has \
        2 data rows and must be square)") (fun () ->
      ignore (Io.of_csv "0,1,2\n1,0,3\n"))

let test_of_csv_repaired_door () =
  let text = "0,inf\n2,0\n" in
  (match Io.of_csv_repaired ~policy:V.Symmetrize text with
  | Ok (s, r) ->
      check_float "patched from mirror" 2. (D.decay s 0 1);
      check_int "mirror count" 1 r.V.cells_mirrored
  | Error _ -> Alcotest.fail "symmetrize repairs a one-sided hole");
  match Io.of_csv_repaired ~policy:V.Reject text with
  | Ok _ -> Alcotest.fail "reject must fail on the hole"
  | Error d -> check_true "diagnosis carried" (d.V.issues <> [])

let test_atomic_save () =
  let dir = Filename.temp_file "bg-robust" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "space.csv" in
  let s = random_space ~n:6 5 in
  Io.save s path;
  let s' = Io.load path in
  check_true "round-trip through disk" (D.matrix s = D.matrix s');
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> f <> "space.csv")
  in
  check_true "no temp files left behind" (leftovers = []);
  Sys.remove path;
  Unix.rmdir dir

(* ------------------------------------------------------------------- fuzz *)

let fuzz_round_trip =
  qcheck ~count:50 "csv round-trip preserves every decay bit"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let s = random_asym_space ~n:5 seed in
      let s' = Io.of_csv (Io.to_csv s) in
      D.matrix s = D.matrix s')

let fuzz_byte_soup =
  (* Arbitrary bytes either raise a cell-addressed Invalid_argument or
     parse into a fully valid space — never a crash, never an unvalidated
     space. *)
  qcheck ~count:500 "byte soup never escapes unvalidated"
    QCheck.(string_gen_of_size Gen.(0 -- 64) Gen.printable)
    (fun text ->
      match Io.of_csv text with
      | s -> V.is_valid (D.matrix s)
      | exception Invalid_argument _ -> true)

let fuzz_poisoned_cell =
  (* Take a valid space's CSV and poison one cell with NaN/Inf/negative:
     the strict door must always reject. *)
  qcheck ~count:100 "poisoned cells are always rejected"
    QCheck.(triple (int_bound 1000) (int_bound 24) (int_bound 2))
    (fun (seed, cell, kind) ->
      let n = 5 in
      let i = cell / n and j = cell mod n in
      if i = j then true
      else begin
        let s = random_asym_space ~n seed in
        let m = copy_matrix (D.matrix s) in
        m.(i).(j) <-
          (match kind with 0 -> Float.nan | 1 -> infinity | _ -> -1.);
        let text =
          String.concat "\n"
            (Array.to_list
               (Array.map
                  (fun row ->
                    String.concat ","
                      (Array.to_list (Array.map (Printf.sprintf "%.17g") row)))
                  m))
        in
        match Io.of_csv text with
        | _ -> false
        | exception Invalid_argument _ -> true
      end)

(* -------------------------------------------------- Parallel fault paths *)

let sum_range jobs =
  Par.map_reduce_chunks ~jobs ~lo:0 ~hi:100 ~neutral:0
    ~map:(fun lo hi ->
      let s = ref 0 in
      for i = lo to hi - 1 do
        s := !s + i
      done;
      !s)
    ~combine:( + )

let test_map_raise_propagates () =
  (* Acceptance criterion: a raising task re-raises at jobs = 1 and 4, and
     the (shared) pool is fully usable afterwards. *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "raise propagates at jobs=%d" jobs)
        (Failure "boom") (fun () ->
          ignore
            (Par.map_reduce_chunks ~jobs ~lo:0 ~hi:100 ~neutral:0
               ~map:(fun lo _ -> if lo >= 0 then failwith "boom" else 0)
               ~combine:( + )));
      check_int
        (Printf.sprintf "pool usable after crash at jobs=%d" jobs)
        4950 (sum_range jobs))
    [ 1; 4 ]

let fuzz_raise_every_job_count =
  qcheck ~count:50 "Parallel.run propagates a raising task at any job count"
    QCheck.(pair (int_range 1 8) (int_bound 7))
    (fun (jobs, bad) ->
      let pool = Par.create ~num_domains:(jobs - 1) () in
      let fns =
        Array.init 8 (fun k ->
            if k = bad then fun () -> failwith "fuzz-boom" else fun () -> k)
      in
      let raised =
        match Par.run ~pool fns with
        | _ -> false
        | exception Failure msg -> msg = "fuzz-boom"
      in
      (* The pool survives its poisoned batch. *)
      let alive =
        Par.run ~pool (Array.init 8 (fun k () -> k)) = Array.init 8 Fun.id
      in
      Par.shutdown pool;
      raised && alive)

let test_run_first_error_wins () =
  (* Sequentially (0-worker pool) "first recorded" is exactly lowest index. *)
  let pool = Par.create ~num_domains:0 () in
  Alcotest.check_raises "lowest index wins sequentially" (Failure "e2")
    (fun () ->
      ignore
        (Par.run ~pool
           [|
             (fun () -> 0);
             (fun () -> failwith "e2");
             (fun () -> failwith "e3");
           |]));
  Par.shutdown pool

let test_with_deadline () =
  (* A busy loop that polls: must be cut off with the typed Timeout. *)
  Alcotest.check_raises "budget enforced" Par.Timeout (fun () ->
      Par.with_deadline ~seconds:0.02 (fun () ->
          while true do
            Par.check_deadline ()
          done));
  (* The ambient deadline is restored afterwards... *)
  Par.check_deadline ();
  check_int "sweeps run normally after a timeout" 4950 (sum_range 1);
  (* ...and nesting takes the minimum: the inner budget cuts off first. *)
  Alcotest.check_raises "nested budgets take the min" Par.Timeout (fun () ->
      Par.with_deadline ~seconds:60. (fun () ->
          Par.with_deadline ~seconds:0.02 (fun () ->
              while true do
                Par.check_deadline ()
              done)))

let test_deadline_cuts_sweeps () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "sweep times out at jobs=%d" jobs)
        Par.Timeout (fun () ->
          Par.with_deadline ~seconds:0.02 (fun () ->
              ignore
                (Par.map_reduce_chunks ~jobs ~lo:0 ~hi:1_000 ~neutral:0
                   ~map:(fun lo hi ->
                     (* A long chunk polls explicitly, like the real
                        sweeps do at their boundaries. *)
                     ignore (Unix.sleepf 0.03);
                     Par.check_deadline ();
                     hi - lo)
                   ~combine:( + )))))
    [ 1; 4 ]

let test_pool_self_heals () =
  let pool = Par.create ~num_domains:2 () in
  check_int "workers up" 2 (Par.num_live pool);
  check_int "no trapped exceptions yet" 0 (Par.trapped_exceptions pool);
  (* run captures task exceptions, so the workers never see them... *)
  (try
     ignore (Par.run ~pool (Array.init 4 (fun _ () -> failwith "x")))
   with Failure _ -> ());
  check_int "workers survive captured errors" 2 (Par.num_live pool);
  (* ...and heal is safe to call on a healthy pool. *)
  Par.heal pool;
  check_int "heal is a no-op when healthy" 2 (Par.num_live pool);
  Par.shutdown pool;
  check_int "shutdown drains the pool" 0 (Par.num_live pool)

(* ---------------------------------------------------------------- Isolate *)

let entry id run = { Reg.id; claim = "test entry"; run }

let test_isolate_finishes () =
  let e =
    entry "OK" (fun () ->
        Bg_experiments.Outcome.make ~detail:"fine" true)
  in
  let r = Iso.run_entry e in
  check_true "passed" (Iso.passed r);
  check_int "single attempt" 1 r.Iso.attempts;
  check_true "verdict PASS" (Iso.verdict r = "PASS");
  check_int "exit code 0" 0 (Iso.exit_code [ r ])

let test_isolate_crash_retries () =
  let calls = ref 0 in
  let e =
    entry "KABOOM" (fun () ->
        incr calls;
        failwith "kaboom")
  in
  let r = Iso.run_entry ~retries:2 ~backoff_s:0.001 e in
  (match r.Iso.status with
  | Iso.Crashed info ->
      check_true "exception text kept"
        (String.length info.Iso.exn > 0
        && String.exists (fun _ -> true) info.Iso.exn)
  | _ -> Alcotest.fail "must be Crashed");
  check_int "retries consumed" 3 r.Iso.attempts;
  check_int "every attempt ran" 3 !calls;
  check_true "verdict CRASH" (Iso.verdict r = "CRASH");
  check_int "exit code 1" 1 (Iso.exit_code [ r ])

let test_isolate_retry_recovers () =
  let calls = ref 0 in
  let e =
    entry "FLAKY" (fun () ->
        incr calls;
        if !calls < 3 then failwith "transient";
        Bg_experiments.Outcome.make ~detail:"recovered" true)
  in
  let r = Iso.run_entry ~retries:5 ~backoff_s:0.001 e in
  check_true "eventually passed" (Iso.passed r);
  check_int "two crashes then success" 3 r.Iso.attempts

let test_isolate_timeout () =
  let e =
    entry "HANG" (fun () ->
        while true do
          Par.check_deadline ()
        done;
        assert false)
  in
  let r = Iso.run_entry ~timeout_s:0.02 e in
  (match r.Iso.status with
  | Iso.Timed_out s -> check_float "budget recorded" 0.02 s
  | _ -> Alcotest.fail "must be Timed_out");
  check_true "verdict TIMEOUT" (Iso.verdict r = "TIMEOUT")

let test_isolate_run_always_completes () =
  let ran = ref [] in
  let mk id status =
    entry id (fun () ->
        ran := id :: !ran;
        match status with
        | `Crash -> failwith "dead"
        | `Fail -> Bg_experiments.Outcome.make ~detail:"no" false
        | `Pass -> Bg_experiments.Outcome.make ~detail:"yes" true)
  in
  let results =
    Iso.run_entries ~backoff_s:0.001
      [ mk "A" `Pass; mk "B" `Crash; mk "C" `Fail; mk "D" `Pass ]
  in
  check_int "every entry ran" 4 (List.length !ran);
  check_int "every entry reported" 4 (List.length results);
  check_true "crash and failure both fail the run" (not (Iso.all_ok results));
  check_int "faithful exit code" 1 (Iso.exit_code results);
  check_true "tail entries still ran"
    (List.mem "D" !ran && List.mem "C" !ran)

(* ---------------------------------------------------------------- Corrupt *)

(* NaN-aware cell equality (NaN <> NaN structurally, but an injected hole
   is the same hole on every run). *)
let same_matrix a b =
  a |> Array.for_all2
         (Array.for_all2 (fun x y ->
              Int64.bits_of_float x = Int64.bits_of_float y))
         b

let test_corrupt_deterministic () =
  let s = random_space ~n:10 21 in
  List.iter
    (fun mode ->
      let a = C.apply ~seed:7 mode s and b = C.apply ~seed:7 mode s in
      check_true (C.label mode ^ " deterministic") (same_matrix a b);
      (* Censoring is a percentile clamp — deterministic by construction,
         so the seed only matters for the randomized modes. *)
      match mode with
      | C.Censor _ -> ()
      | _ ->
          let c = C.apply ~seed:8 mode s in
          check_true (C.label mode ^ " seed matters") (not (same_matrix a c)))
    C.default_suite

let test_corrupt_modes () =
  let s = random_space ~n:12 22 in
  let count p m =
    Array.fold_left
      (fun acc row ->
        acc + Array.fold_left (fun a v -> if p v then a + 1 else a) 0 row)
      0 m
  in
  let drop = C.apply ~seed:3 (C.Dropout 0.3) s in
  check_true "dropout injects infinities"
    (count (fun v -> v = infinity) drop > 0);
  let holes = C.apply ~seed:3 (C.Nan_holes 0.3) s in
  check_true "nan holes injected" (count Float.is_nan holes > 0);
  let censored = C.apply ~seed:3 (C.Censor 60.) s in
  check_true "censoring keeps the matrix valid" (V.is_valid censored);
  let spiked = C.apply ~seed:3 (C.Spikes { prob = 0.3; factor = 100. }) s in
  check_true "spikes stay finite positive" (V.is_valid spiked);
  check_true "spikes moved some cells" (spiked <> D.matrix s)

let suite =
  [
    ( "robustness.validate",
      [
        case "clean diagnosis" test_diagnose_clean;
        case "cell defects addressed" test_diagnose_cells;
        case "shape defects" test_diagnose_shape;
        case "issue list truncation" test_diagnose_truncation;
        case "censoring profile" test_censoring_profile;
        case "repair: reject" test_repair_reject;
        case "repair: clamp" test_repair_clamp;
        case "repair: clamp value checked" test_repair_clamp_bad_value;
        case "repair: symmetrize" test_repair_symmetrize;
        case "repair: drop nodes" test_repair_drop_nodes;
        case "repair: shape unrepairable" test_repair_shape_unrepairable;
        case "suggested clamp" test_suggested_clamp;
        case "witnesses identical through repair path"
          test_witness_identity_through_repair;
      ] );
    ( "robustness.io",
      [
        case "of_csv rejects empty" test_of_csv_empty;
        case "of_csv rejects ragged" test_of_csv_ragged;
        case "of_csv_repaired door" test_of_csv_repaired_door;
        case "atomic save" test_atomic_save;
        fuzz_round_trip;
        fuzz_byte_soup;
        fuzz_poisoned_cell;
      ] );
    ( "robustness.parallel",
      [
        case "raising map re-raises, pool survives" test_map_raise_propagates;
        fuzz_raise_every_job_count;
        case "first error wins" test_run_first_error_wins;
        case "with_deadline cuts busy loops" test_with_deadline;
        case "deadline cuts sweeps" test_deadline_cuts_sweeps;
        case "pool self-heals" test_pool_self_heals;
      ] );
    ( "robustness.isolate",
      [
        case "finished entry" test_isolate_finishes;
        case "crash with retries" test_isolate_crash_retries;
        case "retry recovers a flaky entry" test_isolate_retry_recovers;
        case "cooperative timeout" test_isolate_timeout;
        case "runner always completes" test_isolate_run_always_completes;
      ] );
    ( "robustness.corrupt",
      [
        case "deterministic by seed" test_corrupt_deterministic;
        case "every mode behaves" test_corrupt_modes;
      ] );
  ]
