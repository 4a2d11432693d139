(* Property tests for the Evolve mobility layer, QCheck differential
   coverage of Incremental over random dirty-row sets, and the bg evolve
   CLI end to end. *)

module Decay = Core.Decay
module Decay_space = Decay.Decay_space
module Evolve = Decay.Evolve
module Incremental = Decay.Incremental
module J = Core.Prelude.Jsonl

let cfg ?(n = 10) ?(speed = (0.8, 2.5)) ?(shadow = 4.) () =
  {
    Evolve.default with
    n;
    side = 15.;
    speed_min = fst speed;
    speed_max = snd speed;
    pause_min = 0.3;
    pause_max = 2.;
    corr_dist = 5.;
    shadow_std_db = shadow;
  }

(* ------------------------------------------------------ Evolve physics *)

(* Mixing coefficient: 1 at zero displacement, monotonically decreasing. *)
let prop_mixing_monotone =
  Testutil.qcheck ~count:200 "mixing decays monotonically with delta"
    QCheck.(pair (float_bound_exclusive 50.) (float_bound_exclusive 50.))
    (fun (a, b) ->
      let d1 = Float.min a b and d2 = Float.max a b in
      let m1 = Evolve.mixing ~corr_dist:8. ~delta:d1
      and m2 = Evolve.mixing ~corr_dist:8. ~delta:d2 in
      Evolve.mixing ~corr_dist:8. ~delta:0. = 1.
      && m1 <= 1. && m2 >= 0.
      && (d1 = d2 || m1 >= m2)
      && (d1 = d2 || m1 = m2 || m1 > m2))

(* Shadow-field stationarity: after many steps of constant motion the
   field's empirical variance stays near shadow_std^2 (the Gudmundson
   update is variance-preserving). *)
let test_shadow_stationarity () =
  let c = { (cfg ~n:16 ()) with pause_min = 0.; pause_max = 0. } in
  let ev = Evolve.create ~seed:31 c in
  for _ = 1 to 60 do
    ignore (Evolve.step ev)
  done;
  let field = Evolve.shadow_field ev in
  let sum = ref 0. and sumsq = ref 0. and count = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if i <> j then begin
            sum := !sum +. v;
            sumsq := !sumsq +. (v *. v);
            incr count
          end)
        row)
    field;
  let m = float_of_int !count in
  let mean = !sum /. m in
  let var = (!sumsq /. m) -. (mean *. mean) in
  let target = c.Evolve.shadow_std_db ** 2. in
  Testutil.check_true
    (Printf.sprintf "variance %.2f within 40%% of %.2f" var target)
    (var > 0.6 *. target && var < 1.4 *. target)

(* Zero speed: no node ever moves, every step's space is bit-identical
   and every dirty set empty. *)
let prop_zero_speed_identity =
  Testutil.qcheck ~count:20 "zero speed => identical matrices"
    QCheck.(pair small_nat (int_bound 12))
    (fun (seed, steps) ->
      let c = cfg ~n:8 ~speed:(0., 0.) () in
      let ev = Evolve.create ~seed c in
      let d0 = Decay_space.digest (Evolve.space ev) in
      let ok = ref true in
      for _ = 1 to steps do
        let space, dirty = Evolve.step ev in
        ok :=
          !ok && Array.length dirty = 0
          && String.equal (Decay_space.digest space) d0
      done;
      !ok)

(* Same seed => same trajectory, regardless of the ambient job default
   (Evolve is job-independent by construction; assert it stays so). *)
let prop_seed_determinism =
  Testutil.qcheck ~count:15 "same-seed determinism across jobs"
    QCheck.small_nat (fun seed ->
      let run jobs =
        let saved = Core.Prelude.Parallel.default_jobs () in
        Core.Prelude.Parallel.set_default_jobs jobs;
        Fun.protect
          ~finally:(fun () -> Core.Prelude.Parallel.set_default_jobs saved)
          (fun () ->
            let ev = Evolve.create ~seed (cfg ()) in
            let digests = ref [] in
            for _ = 1 to 8 do
              let space, dirty = Evolve.step ev in
              digests :=
                (Decay_space.digest space, Array.to_list dirty) :: !digests
            done;
            !digests)
      in
      run 1 = run 4)

(* Dirty-set contract: cells with both endpoints clean are bit-identical
   to the previous step's. *)
let prop_clean_cells_untouched =
  Testutil.qcheck ~count:25 "clean cells bit-identical across a step"
    QCheck.small_nat (fun seed ->
      let ev = Evolve.create ~seed (cfg ~n:9 ()) in
      let ok = ref true in
      let prev = ref (Evolve.space ev) in
      for _ = 1 to 6 do
        let space, dirty = Evolve.step ev in
        let in_dirty = Array.make 9 false in
        Array.iter (fun i -> in_dirty.(i) <- true) dirty;
        for i = 0 to 8 do
          for j = 0 to 8 do
            if (not in_dirty.(i)) && not in_dirty.(j) then
              ok :=
                !ok
                && Int64.equal
                     (Int64.bits_of_float (Decay_space.decay !prev i j))
                     (Int64.bits_of_float (Decay_space.decay space i j))
          done
        done;
        prev := space
      done;
      !ok)

(* --------------------------------------- Incremental over random dirt *)

(* Random dirty-row sets over random asymmetric spaces: one incremental
   step must match full recompute bit-for-bit at jobs 1 and 4.  The
   perturbation is a pure function of the pair, so the same next-space is
   rebuilt identically for every job count. *)
let prop_random_dirty_rows =
  Testutil.qcheck ~count:40 "incremental = full over random dirty sets"
    QCheck.(pair small_nat (int_bound 1000))
    (fun (seed, salt) ->
      let n = 6 + (seed mod 9) in
      let base = Testutil.random_asym_space ~n (seed + 1) in
      let g = Testutil.rng (seed + (31 * salt)) in
      let k = 1 + Core.Prelude.Rng.int g n in
      let dirty =
        Core.Prelude.Rng.sample g k (Array.init n Fun.id)
      in
      let cell i j =
        (* Deterministic fresh positive cells, decorrelated from base. *)
        let h = ((i * 73856093) lxor (j * 19349663) lxor (salt * 83492791))
                land 0xFFFF in
        0.5 +. (float_of_int h /. 655.36)
      in
      let next = Differential.perturb_space base ~dirty ~cell in
      match Differential.check_one_step ~r:4. base ~dirty next with
      | [] -> true
      | errs -> QCheck.Test.fail_report (String.concat "\n" errs))

(* Multi-step churn with gamma on an asymmetric space, moderate n, to
   shake out stale-table bugs that single steps cannot reach. *)
let test_multi_step_random_dirt () =
  let n = 11 in
  let base = Testutil.random_asym_space ~n 77 in
  let g = Testutil.rng 78 in
  let inc =
    Incremental.create ~ctx:(Differential.ctx_with_jobs 2) ~r:4. base
  in
  let cur = ref base in
  for s = 1 to 30 do
    let k = 1 + Core.Prelude.Rng.int g 4 in
    let dirty = Core.Prelude.Rng.sample g k (Array.init n Fun.id) in
    let cell i j =
      0.5 +. Float.abs (sin (float_of_int ((i * 131) + (j * 17) + s))) *. 40.
    in
    let next = Differential.perturb_space !cur ~dirty ~cell in
    let res = Incremental.step inc ~dirty next in
    (match Differential.mismatches ~r:4. ~label:(Printf.sprintf "s=%d" s)
             res next with
    | [] -> ()
    | errs -> Alcotest.fail (String.concat "\n" errs));
    cur := next
  done

(* ------------------------------------------------------ bg evolve CLI *)

(* A seeded 60-step trace through the binary: 61 step lines numbered
   0..60, each with every drift field, one summary line, and at least one
   dirty row somewhere in the trace. *)
let test_cli_trace () =
  if not (Sys.file_exists Testutil.bg_exe) then Alcotest.skip ()
  else begin
    let out = Filename.temp_file "bg-evolve" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
    let code =
      Sys.command
        (Filename.quote_command Testutil.bg_exe ~stdout:"/dev/null"
           [ "evolve"; "-n"; "24"; "--steps"; "60"; "--seed"; "2026";
             "--out"; out ])
    in
    Testutil.check_int "bg evolve exit code" 0 code;
    let events = J.parse_lines (J.read_file out) in
    let of_type t = List.filter (fun e -> J.mem_str "type" e = Some t) events in
    let steps = of_type "evolve_step" in
    Testutil.check_int "61 step lines" 61 (List.length steps);
    Testutil.check_true "steps numbered 0..60"
      (List.map (J.mem_num "step") steps
      = List.init 61 (fun i -> Some (float_of_int i)));
    List.iter
      (fun s ->
        List.iter
          (fun k ->
            if J.member k s = None then
              Alcotest.failf "step line lacks %s: %s" k (J.to_string s))
          [ "zeta"; "phi"; "gamma"; "dzeta"; "dphi"; "dgamma"; "dirty" ])
      steps;
    Testutil.check_int "one summary line" 1
      (List.length (of_type "evolve_summary"));
    let dirty =
      List.fold_left
        (fun acc s -> acc +. Option.value ~default:0. (J.mem_num "dirty" s))
        0. steps
    in
    Testutil.check_true "some row went dirty" (dirty > 0.)
  end

let suite =
  [
    ( "evolve",
      [
        prop_mixing_monotone;
        Testutil.case "shadow-field stationary variance"
          test_shadow_stationarity;
        prop_zero_speed_identity;
        prop_seed_determinism;
        prop_clean_cells_untouched;
        prop_random_dirty_rows;
        Testutil.case "multi-step random dirty sets (jobs 2)"
          test_multi_step_random_dirt;
        Testutil.case "bg evolve trace lines" test_cli_trace;
      ] );
  ]
