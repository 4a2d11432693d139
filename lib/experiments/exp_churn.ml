(* E31 — scheduling under mobility churn.

   A 40-step random-waypoint trace over a shadowed geometric base;
   Incremental carries ζ/φ/γ across the steps.  On top of the trace: the
   t=0 capacity schedule is re-checked for SINR feasibility each step, and
   longest-queue-first dynamic scheduling is re-run on the drifted final
   space. *)

module T = Core.Prelude.Table
module Rng = Core.Prelude.Rng
module Decay = Core.Decay
module Evolve = Decay.Evolve
module Incremental = Decay.Incremental
module Metricity = Decay.Metricity
module I = Core.Sinr.Instance
module Feas = Core.Sinr.Feasibility
module Power = Core.Sinr.Power
module Dynamic = Core.Sched.Dynamic

let steps = 40
let r_sep = 4.

let lqf_stable space pairs ~zeta seed =
  let inst = I.make ~zeta space pairs in
  let rates = Array.make (List.length pairs) 0.12 in
  let res =
    Dynamic.run ~slots:1500 ~policy:Dynamic.Longest_queue_first
      ~arrival_rates:rates (Rng.create seed) inst
  in
  res.Dynamic.stable

let e31_churn_scheduling () =
  let cfg =
    {
      Evolve.default with
      n = 36;
      side = 25.;
      speed_min = 0.5;
      speed_max = 1.5;
      pause_min = 8.;
      pause_max = 20.;
      corr_dist = 8.;
      shadow_std_db = 4.;
    }
  in
  let ev = Evolve.create ~name:"e31" ~seed:3101 cfg in
  let inc =
    Incremental.create ~ctx:Decay.Ctx.uncached ~r:r_sep (Evolve.space ev)
  in
  let res0 = Incremental.current inc in
  let zeta0 = res0.Incremental.zeta.Metricity.value in
  let gamma0 =
    match res0.Incremental.gamma with Some g -> g.Incremental.g_value | None -> 0.
  in
  (* A t=0 workload: links sampled from the initial space, scheduled by
     exact capacity search. *)
  let inst0 =
    I.random_links_in_space ~zeta:zeta0 (Rng.create 3102) ~n_links:8
      ~max_decay:600. (Evolve.space ev)
  in
  let pairs =
    Array.to_list
      (Array.map
         (fun l -> (l.Core.Sinr.Link.sender, l.Core.Sinr.Link.receiver))
         inst0.I.links)
  in
  let schedule = Core.Capacity.Exact.capacity inst0 in
  let sched_ids =
    List.map (fun l -> l.Core.Sinr.Link.id) schedule
  in
  let power = Power.uniform 1. in
  let t =
    T.create ~title:"E31  Churn: incremental analysis + schedule survival under mobility"
      [ "step"; "dirty"; "zeta"; "phi"; "gamma"; "sched ok" ]
  in
  let row step dirty (res : Incremental.result) feas =
    T.add_row t
      [
        T.I step; T.I dirty;
        T.F res.Incremental.zeta.Metricity.value;
        T.F res.Incremental.phi.Metricity.value;
        T.F
          (match res.Incremental.gamma with
          | Some g -> g.Incremental.g_value
          | None -> nan);
        T.S (if feas then "feasible" else "broken");
      ]
  in
  let survival = ref steps in
  let max_dzeta = ref 0. and max_dgamma = ref 0. in
  let check_feasible space (res : Incremental.result) =
    let inst_t =
      I.make ~zeta:res.Incremental.zeta.Metricity.value space pairs
    in
    let links_t =
      List.filter
        (fun l -> List.mem l.Core.Sinr.Link.id sched_ids)
        (Array.to_list inst_t.I.links)
    in
    Feas.is_feasible inst_t power links_t
  in
  row 0 0 res0 (check_feasible (Evolve.space ev) res0);
  for s = 1 to steps do
    let space, dirty = Evolve.step ev in
    let res = Incremental.step inc ~dirty space in
    let feas = check_feasible space res in
    if (not feas) && !survival = steps then survival := s - 1;
    max_dzeta :=
      Float.max !max_dzeta
        (Float.abs (res.Incremental.zeta.Metricity.value -. zeta0));
    (match res.Incremental.gamma with
    | Some g ->
        max_dgamma :=
          Float.max !max_dgamma (Float.abs (g.Incremental.g_value -. gamma0))
    | None -> ());
    if s mod 5 = 0 then row s (Array.length dirty) res feas
  done;
  let final = Incremental.current inc in
  let stable0 = lqf_stable inst0.I.space pairs ~zeta:zeta0 3103
  and stable_t =
    lqf_stable (Incremental.space inc) pairs
      ~zeta:final.Incremental.zeta.Metricity.value 3104
  in
  T.print t;
  Printf.printf
    "drift: max |dzeta| = %.3f, max |dgamma| = %.3f; schedule survived %d/%d \
     steps; LQF stable t=0: %b, t=%d: %b\n%!"
    !max_dzeta !max_dgamma !survival steps stable0 steps stable_t;
  Outcome.make
    ~measured:(float_of_int !survival)
    ~bound:1.
    ~detail:
      (Printf.sprintf "steps the t=0 schedule stayed feasible (of %d)" steps)
    (!survival >= 1 && stable0 && stable_t)
