(* Differential testing: maintained ζ/φ/γ vs full recompute.

   Given any evolution trace (an [Evolve.t], or an explicit base/next
   pair with a dirty set), the checkers here assert that [Incremental]'s
   values AND witnesses are bit-identical to a from-scratch [Metricity] /
   [Fading] run on the current space — at jobs 1 and at jobs 4. *)

module Decay = Core.Decay
module Metricity = Decay.Metricity
module Fading = Decay.Fading
module Incremental = Decay.Incremental
module Evolve = Decay.Evolve
module Ctx = Decay.Ctx

let pp_w (w : Metricity.witness) =
  Printf.sprintf "{x=%d; y=%d; z=%d; value=%h}" w.x w.y w.z w.value

(* Bit-level witness equality: coordinates and the exact float. *)
let witness_equal (a : Metricity.witness) (b : Metricity.witness) =
  a.x = b.x && a.y = b.y && a.z = b.z
  && Int64.equal (Int64.bits_of_float a.value) (Int64.bits_of_float b.value)

let ctx_with_jobs jobs = Ctx.make ~jobs ()

(* Compare one incremental result against full recomputes of the same
   space at the given job counts.  Returns the list of mismatch
   descriptions (empty = bit-identical). *)
let mismatches ?(jobs_list = [ 1; 4 ]) ?r ~label (res : Incremental.result)
    space =
  List.concat_map
    (fun jobs ->
      let ctx = ctx_with_jobs jobs in
      let zw = Metricity.zeta_witness ~ctx space in
      let pw = Metricity.phi_witness ~ctx space in
      let errs = ref [] in
      let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
      if not (witness_equal res.Incremental.zeta zw) then
        err "%s jobs=%d zeta: incremental %s <> full %s" label jobs
          (pp_w res.Incremental.zeta) (pp_w zw);
      if not (witness_equal res.Incremental.phi pw) then
        err "%s jobs=%d phi: incremental %s <> full %s" label jobs
          (pp_w res.Incremental.phi) (pp_w pw);
      (match (r, res.Incremental.gamma) with
      | None, None -> ()
      | Some r, Some g ->
          let full = Fading.gamma ~ctx space ~r in
          if
            not
              (Int64.equal
                 (Int64.bits_of_float g.Incremental.g_value)
                 (Int64.bits_of_float full))
          then
            err "%s jobs=%d gamma: incremental %h <> full %h" label jobs
              g.Incremental.g_value full
      | Some _, None -> err "%s: incremental result carries no gamma" label
      | None, Some _ -> ());
      List.rev !errs)
    jobs_list

(* Drive [steps] steps of an evolution trace through an incremental state
   per job count, checking bit-identity at every step.  The incremental
   state itself is also rebuilt per job count, so its own sweeps run at
   jobs 1 and 4 too.  Raises [Failure] with the first few mismatches;
   returns the per-step dirty sizes on success. *)
let check_trace ?(jobs_list = [ 1; 4 ]) ?r ~steps ~seed cfg =
  let dirty_sizes = ref [] in
  List.iter
    (fun jobs ->
      let ev = Evolve.create ~seed cfg in
      let inc =
        Incremental.create ~ctx:(ctx_with_jobs jobs) ?r (Evolve.space ev)
      in
      let errs0 =
        mismatches ~jobs_list:[ jobs ] ?r ~label:"step=0"
          (Incremental.current inc) (Evolve.space ev)
      in
      if errs0 <> [] then failwith (String.concat "\n" errs0);
      for s = 1 to steps do
        let space, dirty = Evolve.step ev in
        if jobs = List.hd jobs_list then
          dirty_sizes := Array.length dirty :: !dirty_sizes;
        let res = Incremental.step inc ~dirty space in
        let errs =
          mismatches ~jobs_list:[ jobs ] ?r
            ~label:(Printf.sprintf "step=%d" s)
            res space
        in
        if errs <> [] then failwith (String.concat "\n" errs)
      done)
    jobs_list;
  List.rev !dirty_sizes

(* Explicit-perturbation variant for the QCheck property: start from
   [base], replace the rows/columns of [dirty] with fresh cells from
   [cell] (a pure function of the pair), leave everything else
   bit-untouched, and check one incremental step against full
   recomputes. *)
let perturb_space base ~dirty ~cell =
  let n = Decay.Decay_space.n base in
  let in_dirty = Array.make n false in
  Array.iter (fun i -> in_dirty.(i) <- true) dirty;
  Decay.Decay_space.of_fn ~name:"perturbed" n (fun i j ->
      if in_dirty.(i) || in_dirty.(j) then cell i j
      else Decay.Decay_space.decay base i j)

let check_one_step ?(jobs_list = [ 1; 4 ]) ?r base ~dirty next =
  List.concat_map
    (fun jobs ->
      let inc = Incremental.create ~ctx:(ctx_with_jobs jobs) ?r base in
      let res = Incremental.step inc ~dirty next in
      mismatches ~jobs_list:[ jobs ] ?r
        ~label:(Printf.sprintf "one-step jobs=%d" jobs)
        res next)
    jobs_list

(* -------------------------------------------------------------- suite *)

let small_cfg =
  {
    Evolve.default with
    n = 18;
    side = 20.;
    speed_min = 0.5;
    speed_max = 2.5;
    pause_min = 0.5;
    pause_max = 3.;
    corr_dist = 6.;
  }

(* The acceptance trace: 100 seeded churn steps, every step checked
   bit-identical to full recompute at jobs 1 and 4, γ included. *)
let test_hundred_step_trace () =
  let dirty =
    check_trace ~jobs_list:[ 1; 4 ] ~r:4. ~steps:100 ~seed:2026 small_cfg
  in
  Testutil.check_int "100 steps checked" 100 (List.length dirty);
  Testutil.check_true "mobility actually produced churn"
    (List.exists (fun k -> k > 0) dirty)

(* Radio-environment base decay (walls + propagation model) through the
   same differential gauntlet — the adapter path must be as exact as the
   geometric default. *)
let test_radio_base_trace () =
  let env =
    Core.Radio.Environment.office ~rooms_x:3 ~rooms_y:3 ~room_size:7.
      Core.Radio.Material.drywall
  in
  let cfg = { small_cfg with n = 12 } in
  List.iter
    (fun jobs ->
      let ev = Core.Radio.Churn.evolve ~seed:9 env cfg in
      let inc =
        Incremental.create ~ctx:(ctx_with_jobs jobs) ~r:3. (Evolve.space ev)
      in
      for s = 1 to 25 do
        let space, dirty = Evolve.step ev in
        let res = Incremental.step inc ~dirty space in
        let errs =
          mismatches ~jobs_list:[ jobs ] ~r:3.
            ~label:(Printf.sprintf "radio step=%d" s)
            res space
        in
        if errs <> [] then Alcotest.fail (String.concat "\n" errs)
      done)
    [ 1; 4 ]

(* The step and dirty-row counters must match the trace. *)
let test_step_accounting () =
  let cfg = { small_cfg with n = 24 } in
  let ev = Evolve.create ~seed:5 cfg in
  let inc = Incremental.create (Evolve.space ev) in
  let total_dirty = ref 0 in
  for _ = 1 to 40 do
    let space, dirty = Evolve.step ev in
    total_dirty := !total_dirty + Array.length dirty;
    ignore (Incremental.step inc ~dirty space)
  done;
  let st = Incremental.stats inc in
  Testutil.check_int "steps counted" 40 st.Incremental.steps;
  Testutil.check_int "dirty nodes counted" !total_dirty
    st.Incremental.dirty_nodes

(* A step must refuse a space of another size and a dirty index outside
   [0, n), before touching its state. *)
let test_step_rejects_node_count_change () =
  let base = Testutil.random_asym_space ~n:8 41 in
  let inc = Incremental.create base in
  Alcotest.check_raises "9-node space after 8"
    (Invalid_argument "Incremental.step: node count changed (8 -> 9)")
    (fun () ->
      ignore
        (Incremental.step inc ~dirty:[| 8 |]
           (Testutil.random_asym_space ~n:9 42)));
  Testutil.check_true "state kept" (Incremental.space inc == base)

let test_step_rejects_bad_dirty_index () =
  let base = Testutil.random_asym_space ~n:8 43 in
  let inc = Incremental.create base in
  List.iter
    (fun i ->
      Alcotest.check_raises
        (Printf.sprintf "dirty index %d" i)
        (Invalid_argument
           (Printf.sprintf "Incremental.step: dirty index %d out of range" i))
        (fun () -> ignore (Incremental.step inc ~dirty:[| 0; i |] base)))
    [ 8; -1 ];
  Testutil.check_int "no step counted" 0
    (Incremental.stats inc).Incremental.steps

let suite =
  [
    ( "differential",
      [
        Testutil.case "100-step churn trace bit-identical (jobs 1 and 4)"
          test_hundred_step_trace;
        Testutil.case "radio-environment base trace bit-identical"
          test_radio_base_trace;
        Testutil.case "step and dirty-node counts" test_step_accounting;
        Testutil.case "step rejects a node-count change"
          test_step_rejects_node_count_change;
        Testutil.case "step rejects an out-of-range dirty index"
          test_step_rejects_bad_dirty_index;
      ] );
  ]
