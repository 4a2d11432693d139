(* bg — command-line front end for the Beyond Geometry library.

   Subcommands:
     bg analyze <file.csv>         full parameter report of a decay matrix
     bg generate <kind> ...        emit a decay matrix (zoo / radio) as CSV
     bg evolve ...                 mobility trace + per-step re-analysis
     bg capacity <file.csv> ...    run a capacity algorithm on random links
     bg experiment <id>            run one claim experiment (E1..E31)
     bg protocols <file.csv>       run the distributed protocol suite
     bg stats <file.csv>           measurement-style statistics
     bg trace report|flame|diff    analyze a --trace JSONL file offline
     bg bench [--record|--check]   kernel bench / perf-regression gate
     bg serve                      batched JSONL analysis daemon
     bg loadgen                    workload replayer / benchmark for serve
     bg top                        live daemon telemetry (socket or file)
     bg slo                        score recorded telemetry against SLOs
     bg zoo                        list the built-in constructions *)

open Cmdliner
module J = Core.Prelude.Jsonl

(* Every user-facing failure — missing file, unreadable CSV, a validation
   reject — prints one clear line on stderr and exits 2, the same code
   Cmdliner's own CLI parse errors are mapped to below.  Backtraces are
   for bugs, not for bad input. *)
let user_error fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bg: " ^ s);
      exit 2)
    fmt

let or_user_error f =
  try f () with
  | Invalid_argument msg | Failure msg -> user_error "%s" msg
  | Sys_error msg -> user_error "%s" msg
  | J.Bad msg -> user_error "malformed JSON: %s" msg
  | Core.Prelude.Parallel.Timeout -> user_error "wall-clock budget exceeded"

let space_of_file path = or_user_error (fun () -> Core.Decay.Decay_io.load path)

(* Shared --timeout flag: cooperative wall-clock budget in seconds for the
   analysis sweeps; 0 (the default) means unlimited. *)
let timeout_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the parameter sweeps (0 = unlimited). An \
           exceeded budget reports a clean error (exit 2) for analysis runs \
           and a TIMEOUT verdict for experiments.")

(* All resource flags are validated up front, before any file is opened
   or domain spawned: a nonsense value is a one-line exit-2 answer, not
   a crash (or silent misbehaviour) minutes into a run. *)
let validate_timeout timeout =
  if Float.is_nan timeout || timeout < 0. then
    user_error "--timeout must be a non-negative number of seconds (got %g)"
      timeout;
  timeout

let validate_retries retries =
  if retries < 0 then user_error "--retries must be non-negative (got %d)" retries;
  retries

let with_optional_timeout timeout f =
  if timeout > 0. then
    Core.Prelude.Parallel.with_deadline ~seconds:timeout f
  else f ()

(* Shared --jobs flag: omitted means "use the whole machine"
   (Domain.recommended_domain_count); any value below 1 — including the
   0 that used to be a hidden alias for auto — is rejected up front.
   The resolved count becomes the ambient default, so sweeps buried
   inside experiments pick it up too.  Results never depend on it. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel sweeps (default: one per \
           available core). Must be at least 1; the output is identical \
           at every job count.")

let apply_jobs jobs =
  let jobs =
    match jobs with
    | None -> Core.Prelude.Parallel.auto_jobs ()
    | Some j when j < 1 -> user_error "--jobs must be at least 1 (got %d)" j
    | Some j -> j
  in
  Core.Prelude.Parallel.set_default_jobs jobs;
  jobs

(* Shared observability flags (analyze / experiment / bench): --trace FILE
   installs the JSONL sink for the whole run, --metrics prints the
   metrics registry at the end.  [finish_obs] runs on every exit path of
   an observed subcommand, including the nonzero-exit ones. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL observability trace to $(docv): one event per \
           completed span (sweeps, cache lookups, experiments) plus a \
           final flush of the metrics registry. Off by default; the \
           instrumentation costs ~nothing when off.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the metrics registry (kernel pruning counters, cache \
           hits/misses, pool and repair statistics) as a table when the \
           command finishes.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "With --trace: also capture GC and CPU deltas on every span \
           (minor/major/promoted words, allocated bytes, collections, \
           CPU seconds) and give each parallel pool task its own span, \
           so `bg trace report` can attribute allocation per span kind \
           and per worker domain. No effect without --trace.")

(* An unwritable trace path must be a clean exit-2 error at startup, not
   a Sys_error escaping at first flush mid-run.  [append] is how a
   supervised worker respawn continues its predecessors' file. *)
let apply_obs ?(profile = false) ?(append = false) trace =
  Option.iter
    (fun path ->
      (try Core.Prelude.Obs.set_trace_file ~append path
       with Sys_error msg -> user_error "cannot open trace file: %s" msg);
      Core.Prelude.Obs.set_profile profile)
    trace

let finish_obs metrics =
  Core.Prelude.Obs.flush_metrics ();
  if metrics then Core.Prelude.Obs.print_summary ()

(* ------------------------------------------------------------- analyze *)

let gamma_at =
  Arg.(
    value
    & opt (list float) []
    & info [ "gamma-at" ] ~docv:"R,.."
        ~doc:"Also evaluate the fading parameter gamma(r) at these separations.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Decay matrix CSV.")

let repair_arg =
  Arg.(
    value
    & opt
        (some
           (enum
              [ ("reject", `Reject); ("clamp", `Clamp);
                ("symmetrize", `Symmetrize); ("drop", `Drop) ]))
        None
    & info [ "repair" ] ~docv:"POLICY"
        ~doc:
          "Validate-and-repair the matrix before analysis. One of: reject \
           (diagnose only, fail on any defect), clamp (replace bad cells \
           with the worst observed decay), symmetrize (patch bad cells from \
           their mirror), drop (remove nodes with bad links). The repair \
           summary is printed to stderr; an unrepairable matrix is a clean \
           error (exit 2).")

let space_of_file_repaired file repair =
  match repair with
  | None -> space_of_file file
  | Some kind ->
      or_user_error (fun () ->
          let module V = Core.Decay.Validate in
          let module Io = Core.Decay.Decay_io in
          let text = In_channel.with_open_text file In_channel.input_all in
          let name = Filename.remove_extension (Filename.basename file) in
          (* The clamp value is data-driven: the worst decay actually
             observed in this file (see Validate.suggested_clamp). *)
          let policy =
            match kind with
            | `Reject -> V.Reject
            | `Clamp ->
                let _, raw = Io.parse ~name text in
                V.Clamp (V.suggested_clamp raw)
            | `Symmetrize -> V.Symmetrize
            | `Drop -> V.Drop_nodes
          in
          match Io.of_csv_repaired ~name ~policy text with
          | Ok (space, report) ->
              Printf.eprintf "bg: %s: %s\n%!" file (V.repair_to_string report);
              space
          | Error diag -> user_error "%s: %s" file (V.describe diag))

let analyze_cmd =
  let run file gamma_at jobs repair timeout trace profile metrics =
    let jobs = apply_jobs jobs in
    let timeout = validate_timeout timeout in
    apply_obs ~profile trace;
    let space = space_of_file_repaired file repair in
    let report =
      or_user_error (fun () ->
          with_optional_timeout timeout (fun () ->
              Core.Analysis.run
                ~config:
                  { Core.Analysis.gamma_at; ctx = Core.Decay.Ctx.make ~jobs () }
                space))
    in
    Core.Prelude.Table.print (Core.Analysis.to_table report);
    finish_obs metrics
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Compute every decay-space parameter of a matrix.")
    Term.(
      const run $ file_arg $ gamma_at $ jobs_arg $ repair_arg $ timeout_arg
      $ trace_arg $ profile_arg $ metrics_arg)

(* ------------------------------------------------------------ generate *)

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let nodes_arg =
  Arg.(value & opt int 16 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")

let generate_cmd =
  let kind =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("uniform", `Uniform); ("star", `Star); ("welzl", `Welzl);
                  ("three-point", `Three_point); ("plane", `Plane);
                  ("office", `Office); ("clutter", `Clutter) ]))
          None
      & info [] ~docv:"KIND"
          ~doc:
            "One of: uniform, star, welzl, three-point, plane, office, clutter.")
  in
  let alpha =
    Arg.(value & opt float 3. & info [ "alpha" ] ~docv:"A" ~doc:"Path-loss exponent (plane).")
  in
  let q = Arg.(value & opt float 1e4 & info [ "q" ] ~docv:"Q" ~doc:"three-point q.") in
  let raw_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"FILE"
          ~doc:
            "Write the matrix to $(docv) in the raw binary format \
             (Decay_io.save_raw) instead of CSV on stdout.  The plane \
             kind streams cells row by row without materializing the \
             matrix, so sizes far beyond RAM work; pair with bg estimate, \
             which memory-maps raw files.")
  in
  let run kind n seed alpha q raw =
    let rng = Core.Prelude.Rng.create seed in
    match (raw, kind) with
    | Some path, `Plane ->
        (* Out-of-core path: 2 floats per node in memory, one row at a
           time on the way out.  n = 50k (a 20 GB file) is fine. *)
        let pts =
          Array.of_list (Core.Decay.Spaces.random_points rng ~n ~side:25.)
        in
        Core.Decay.Decay_io.save_raw_fn ~n:(Array.length pts)
          (fun i j -> Core.Geom.Point.dist pts.(i) pts.(j) ** alpha)
          path
    | _ ->
        let space =
          match kind with
          | `Uniform -> Core.Decay.Spaces.uniform n
          | `Star -> Core.Decay.Spaces.star ~k:(max 1 (n - 2)) ~r:2.
          | `Welzl -> Core.Decay.Spaces.welzl ~n:(max 1 (n - 2)) ~eps:0.25
          | `Three_point -> Core.Decay.Spaces.three_point ~q
          | `Plane ->
              Core.Decay.Decay_space.of_points ~alpha
                (Core.Decay.Spaces.random_points rng ~n ~side:25.)
          | `Office ->
              let env =
                Core.Radio.Environment.office ~rooms_x:3 ~rooms_y:3 ~room_size:6.
                  Core.Radio.Material.drywall
              in
              let pts = Core.Decay.Spaces.random_points rng ~n ~side:17. in
              Core.Radio.Measure.decay_space ~seed env (Core.Radio.Node.of_points pts)
          | `Clutter ->
              let env =
                Core.Radio.Environment.random_clutter rng ~side:25. ~n_walls:30
                  [ Core.Radio.Material.concrete; Core.Radio.Material.metal ]
              in
              let pts = Core.Decay.Spaces.random_points rng ~n ~side:24. in
              Core.Radio.Measure.decay_space ~seed env (Core.Radio.Node.of_points pts)
        in
        (match raw with
        | Some path -> Core.Decay.Decay_io.save_raw space path
        | None -> print_string (Core.Decay.Decay_io.to_csv space))
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Emit a decay matrix from the construction zoo or the radio simulator.")
    Term.(const run $ kind $ nodes_arg $ seed_arg $ alpha $ q $ raw_out)

(* -------------------------------------------------------------- evolve *)

let evolve_cmd =
  let module Evolve = Core.Decay.Evolve in
  let module Incr = Core.Decay.Incremental in
  let module Met = Core.Decay.Metricity in
  let steps_arg =
    Arg.(
      value & opt int 50
      & info [ "steps" ] ~docv:"T" ~doc:"Mobility steps to simulate.")
  in
  let dt_arg =
    Arg.(
      value & opt float 1.
      & info [ "dt" ] ~docv:"S" ~doc:"Seconds of motion per step.")
  in
  let speed_arg =
    Arg.(
      value
      & opt (pair ~sep:',' float float) (1., 3.)
      & info [ "speed" ] ~docv:"MIN,MAX"
          ~doc:
            "Waypoint speed range in m/s; 0,0 freezes every node (the \
             trace then re-emits one bit-identical space per step).")
  in
  let pause_arg =
    Arg.(
      value
      & opt (pair ~sep:',' float float) (2., 8.)
      & info [ "pause" ] ~docv:"MIN,MAX"
          ~doc:"Pause range in seconds at each reached waypoint.")
  in
  let corr_arg =
    Arg.(
      value & opt float 10.
      & info [ "corr-dist" ] ~docv:"D"
          ~doc:
            "Shadow-fading decorrelation distance in metres (the \
             Gudmundson mixing length).")
  in
  let shadow_arg =
    Arg.(
      value & opt float 4.
      & info [ "shadow" ] ~docv:"DB"
          ~doc:"Log-normal shadow-fading standard deviation in dB.")
  in
  let side_arg =
    Arg.(
      value & opt float 30.
      & info [ "side" ] ~docv:"L" ~doc:"Side of the square arena in metres.")
  in
  let r_arg =
    Arg.(
      value & opt float 4.
      & info [ "r" ] ~docv:"R"
          ~doc:
            "Also track the fading parameter gamma(R) across the trace; \
             0 disables gamma.")
  in
  let env_arg =
    Arg.(
      value
      & opt (enum [ ("geometric", `Geo); ("office", `Office) ]) `Geo
      & info [ "env" ] ~docv:"KIND"
          ~doc:
            "Base decay model under the shadow/fading field: geometric \
             (pure power law on positions) or office (multi-wall radio \
             propagation over a 3x3 drywall floor plan).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the JSONL trace to $(docv) instead of stdout.")
  in
  let run n steps dt (speed_min, speed_max) (pause_min, pause_max) corr_dist
      shadow side seed r env out jobs timeout trace profile metrics =
    if n < 3 then user_error "--n must be at least 3 (got %d)" n;
    if steps < 0 then user_error "--steps must be non-negative (got %d)" steps;
    if not (dt > 0. && Float.is_finite dt) then
      user_error "--dt must be positive (got %g)" dt;
    if speed_min < 0. || speed_max < speed_min then
      user_error "--speed needs 0 <= MIN <= MAX (got %g,%g)" speed_min
        speed_max;
    if pause_min < 0. || pause_max < pause_min then
      user_error "--pause needs 0 <= MIN <= MAX (got %g,%g)" pause_min
        pause_max;
    if not (corr_dist > 0.) then
      user_error "--corr-dist must be positive (got %g)" corr_dist;
    if shadow < 0. then user_error "--shadow must be non-negative (got %g)" shadow;
    if not (side > 0.) then user_error "--side must be positive (got %g)" side;
    if r < 0. then user_error "--r must be non-negative (got %g)" r;
    let timeout = validate_timeout timeout in
    ignore (apply_jobs jobs);
    apply_obs ~profile trace;
    let cfg =
      {
        Evolve.default with
        n;
        side;
        speed_min;
        speed_max;
        pause_min;
        pause_max;
        dt;
        corr_dist;
        shadow_std_db = shadow;
      }
    in
    let ev =
      or_user_error (fun () ->
          match env with
          | `Geo -> Evolve.create ~name:"evolve" ~seed cfg
          | `Office ->
              let env =
                Core.Radio.Environment.office ~rooms_x:3 ~rooms_y:3
                  ~room_size:(side /. 3.) Core.Radio.Material.drywall
              in
              Core.Radio.Churn.evolve ~name:"evolve" ~seed env cfg)
    in
    let r_opt = if r = 0. then None else Some r in
    let oc = match out with None -> stdout | Some p -> open_out p in
    let emit j =
      output_string oc (J.to_string j);
      output_char oc '\n'
    in
    let gamma_fields g dg =
      match (g : Incr.gamma_info option) with
      | None -> []
      | Some g ->
          [ ("gamma", J.Num g.Incr.g_value); ("dgamma", J.Num dg) ]
    in
    Fun.protect
      ~finally:(fun () -> if out <> None then close_out oc)
      (fun () ->
        or_user_error (fun () ->
            with_optional_timeout timeout @@ fun () ->
            let inc = Incr.create ?r:r_opt (Evolve.space ev) in
            let res0 = Incr.current inc in
            let zeta0 = res0.Incr.zeta.Met.value
            and phi0 = res0.Incr.phi.Met.value in
            let gamma0 =
              match res0.Incr.gamma with
              | Some g -> g.Incr.g_value
              | None -> 0.
            in
            let step_line s k (res : Incr.result) =
              emit
                (J.Obj
                   ([ ("type", J.Str "evolve_step"); ("step", J.Num (float_of_int s));
                      ("dirty", J.Num (float_of_int k));
                      ("zeta", J.Num res.Incr.zeta.Met.value);
                      ("phi", J.Num res.Incr.phi.Met.value) ]
                   @ gamma_fields res.Incr.gamma
                       (match res.Incr.gamma with
                       | Some g -> g.Incr.g_value -. gamma0
                       | None -> 0.)
                   @ [ ("dzeta", J.Num (res.Incr.zeta.Met.value -. zeta0));
                       ("dphi", J.Num (res.Incr.phi.Met.value -. phi0)) ]))
            in
            step_line 0 0 res0;
            for s = 1 to steps do
              let space, dirty = Evolve.step ev in
              let res = Incr.step inc ~dirty space in
              step_line s (Array.length dirty) res
            done;
            let st = Incr.stats inc in
            emit
              (J.Obj
                 [ ("type", J.Str "evolve_summary");
                   ("n", J.Num (float_of_int n));
                   ("steps", J.Num (float_of_int steps));
                   ("seed", J.Num (float_of_int seed));
                   ("dirty_rows", J.Num (float_of_int st.Incr.dirty_nodes));
                   ("pairs_full", J.Num (float_of_int st.Incr.pairs_full)) ])));
    finish_obs metrics
  in
  Cmd.v
    (Cmd.info "evolve"
       ~doc:
         "Simulate a time-varying decay space (random-waypoint mobility \
          under a correlated shadow-fading field) and recompute \
          zeta/phi/gamma at every step, emitting one JSONL line per step \
          plus a summary.")
    Term.(
      const run $ nodes_arg $ steps_arg $ dt_arg $ speed_arg $ pause_arg
      $ corr_arg $ shadow_arg $ side_arg $ seed_arg $ r_arg $ env_arg
      $ out_arg $ jobs_arg $ timeout_arg $ trace_arg
      $ profile_arg $ metrics_arg)

(* ------------------------------------------------------------ capacity *)

let capacity_cmd =
  let algo =
    Arg.(
      value
      & opt
          (enum
             [ ("alg1", Core.Solve.Alg1);
               ("greedy", Core.Solve.Affectance_greedy);
               ("strongest", Core.Solve.Strongest_first);
               ("exact", Core.Solve.Exact) ])
          Core.Solve.Alg1
      & info [ "algo" ] ~docv:"ALGO" ~doc:"alg1 | greedy | strongest | exact.")
  in
  let links =
    Arg.(value & opt int 8 & info [ "links" ] ~docv:"K" ~doc:"Links to sample.")
  in
  let run file algo links seed =
    let space = space_of_file file in
    let zeta = Core.Decay.Metricity.zeta space in
    let inst =
      Core.Sinr.Instance.random_links_in_space ~zeta
        (Core.Prelude.Rng.create seed) ~n_links:links
        ~max_decay:(Core.Decay.Decay_space.max_decay space)
        space
    in
    let chosen = Core.Solve.capacity ~algo inst in
    Printf.printf "space: %s (n=%d, zeta=%.3f)\n"
      (Core.Decay.Decay_space.name space)
      (Core.Decay.Decay_space.n space)
      zeta;
    Printf.printf "algorithm: %s\n" (Core.Solve.capacity_algo_name algo);
    Printf.printf "selected %d / %d links:\n" (List.length chosen) links;
    List.iter
      (fun l ->
        Printf.printf "  link %d: %d -> %d (decay %.4g)\n" l.Core.Sinr.Link.id
          l.Core.Sinr.Link.sender l.Core.Sinr.Link.receiver
          (Core.Sinr.Link.self_decay space l))
      chosen;
    let feasible =
      Core.Sinr.Feasibility.is_feasible inst (Core.Sinr.Power.uniform 1.) chosen
    in
    Printf.printf "feasible: %b\n" feasible
  in
  Cmd.v
    (Cmd.info "capacity"
       ~doc:"Sample links in a decay matrix and run a capacity algorithm.")
    Term.(const run $ file_arg $ algo $ links $ seed_arg)

(* ---------------------------------------------------------- experiment *)

let experiment_cmd =
  (* Advertise the actual registered range rather than a hard-coded one. *)
  let id_range =
    match Bg_experiments.Registry.all with
    | [] -> "none registered"
    | first :: rest ->
        let last = List.fold_left (fun _ e -> e) first rest in
        Printf.sprintf "%s through %s" first.Bg_experiments.Registry.id
          last.Bg_experiments.Registry.id
  in
  let ids =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"ID"
          ~doc:(Printf.sprintf "Experiment ids, %s (or 'all')." id_range))
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Retry a crashing experiment up to K times with exponential \
             backoff before recording it as CRASH.")
  in
  let run ids jobs timeout retries trace profile metrics =
    ignore (apply_jobs jobs);
    let timeout = validate_timeout timeout in
    let retries = validate_retries retries in
    apply_obs ~profile trace;
    let entries =
      if List.exists (fun s -> String.lowercase_ascii s = "all") ids then
        Bg_experiments.Registry.all
      else
        List.map
          (fun id ->
            match Bg_experiments.Registry.find id with
            | Some e -> e
            | None -> user_error "unknown experiment: %s" id)
          ids
    in
    (* Each experiment runs isolated: a crash or an exceeded budget becomes
       a CRASH/TIMEOUT row, the rest of the list still runs, and the exit
       code reflects every outcome. *)
    let timeout_s = if timeout > 0. then Some timeout else None in
    let results =
      Bg_experiments.Isolate.run_entries ?timeout_s ~retries entries
    in
    Bg_experiments.Isolate.print_results results;
    finish_obs metrics;
    let code = Bg_experiments.Isolate.exit_code results in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Run paper-claim experiments, each isolated so one crash or \
          timeout cannot lose the rest of the run.")
    Term.(
      const run $ ids $ jobs_arg $ timeout_arg $ retries_arg $ trace_arg
      $ profile_arg $ metrics_arg)

(* ---------------------------------------------------------------- stats *)

let stats_cmd =
  let run file =
    let space = space_of_file file in
    let s = Core.Decay.Statistics.summarize space in
    let t =
      Core.Prelude.Table.create
        ~title:("decay statistics: " ^ Core.Decay.Decay_space.name space)
        [ "statistic"; "value" ]
    in
    let open Core.Prelude.Table in
    add_row t [ S "nodes"; I s.Core.Decay.Statistics.n ];
    add_row t [ S "min decay (dB)"; F2 s.Core.Decay.Statistics.min_db ];
    add_row t [ S "median decay (dB)"; F2 s.Core.Decay.Statistics.median_db ];
    add_row t [ S "max decay (dB)"; F2 s.Core.Decay.Statistics.max_db ];
    add_row t
      [ S "dynamic range (dB)"; F2 s.Core.Decay.Statistics.dynamic_range_db ];
    add_row t [ S "worst asymmetry (dB)"; F2 s.Core.Decay.Statistics.asymmetry_db ];
    add_row t
      [ S "zeta upper bound";
        F2 (Core.Decay.Metricity.zeta_upper_bound space) ];
    print t
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print measurement-style statistics of a decay matrix.")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------ protocols *)

let protocols_cmd =
  let radius_pct =
    Arg.(
      value & opt float 25.
      & info [ "radius-percentile" ] ~docv:"P"
          ~doc:"Neighbourhood radius as a percentile of the decays.")
  in
  let run file radius_pct seed =
    let space = space_of_file file in
    let decays =
      Core.Decay.Statistics.decays_db space
      |> Array.map (fun db -> 10. ** (db /. 10.))
    in
    let radius = Core.Prelude.Stats.percentile decays radius_pct in
    let rng = Core.Prelude.Rng.create seed in
    Printf.printf "space: %s (n=%d), neighbourhood radius: decay <= %.4g\n\n"
      (Core.Decay.Decay_space.name space)
      (Core.Decay.Decay_space.n space)
      radius;
    let t =
      Core.Prelude.Table.create ~title:"distributed protocol suite"
        [ "protocol"; "rounds"; "outcome" ]
    in
    let open Core.Prelude.Table in
    let bc = Core.Distrib.Broadcast.run rng space ~source:0 ~radius in
    add_row t
      [ S "broadcast (from node 0)"; I bc.Core.Distrib.Broadcast.rounds;
        S (Printf.sprintf "informed %d" bc.Core.Distrib.Broadcast.informed) ];
    let lb = Core.Distrib.Local_broadcast.run rng space ~radius in
    add_row t
      [ S "local broadcast"; I lb.Core.Distrib.Local_broadcast.rounds;
        S (Printf.sprintf "%d/%d pairs" lb.Core.Distrib.Local_broadcast.deliveries
             lb.Core.Distrib.Local_broadcast.pairs) ];
    let col = Core.Distrib.Coloring.run rng space ~radius in
    add_row t
      [ S "coloring"; I col.Core.Distrib.Coloring.rounds;
        S (Printf.sprintf "%d colors, proper: %b" col.Core.Distrib.Coloring.palette
             col.Core.Distrib.Coloring.proper) ];
    let dom = Core.Distrib.Dominating_set.run rng space ~radius in
    add_row t
      [ S "dominating set"; I dom.Core.Distrib.Dominating_set.rounds;
        S (Printf.sprintf "%d leaders, dominating: %b"
             (List.length dom.Core.Distrib.Dominating_set.leaders)
             dom.Core.Distrib.Dominating_set.dominating) ];
    print t
  in
  Cmd.v
    (Cmd.info "protocols"
       ~doc:"Run the distributed protocol suite on a decay matrix.")
    Term.(const run $ file_arg $ radius_pct $ seed_arg)

(* ---------------------------------------------------------------- bench *)

let bench_cmd =
  let max_n_arg =
    Arg.(
      value & opt int 512
      & info [ "kernels-max-n" ] ~docv:"N"
          ~doc:"Largest decay-space size the kernel benchmark sweeps.")
  in
  let json_arg =
    Arg.(
      value
      & opt string "BENCH_kernels.json"
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Where to write the machine-readable results.")
  in
  let record_arg =
    Arg.(
      value & flag
      & info [ "record" ]
          ~doc:
            "Run the perf-regression suite (mean/stddev over --reps \
             repetitions) and append one sample line — git sha, jobs, \
             per-benchmark mean/stddev — to the history file (see \
             --history).")
  in
  let history_arg =
    Arg.(
      value
      & opt string "BENCH_history.jsonl"
      & info [ "history" ] ~docv:"FILE"
          ~doc:"Where --record appends its JSONL history line.")
  in
  let check_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "check" ] ~docv:"BASELINE"
          ~doc:
            "Run the perf-regression suite and compare against the \
             baselines in $(docv) (e.g. bench/baselines.json). \
             Noise-aware: a benchmark regresses only beyond \
             max(3 sigma, 15%) of its baseline mean (soft, exit 3); \
             beyond max(3 sigma, 50%) it is a hard regression (exit 4).")
  in
  let write_baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "write-baseline" ] ~docv:"FILE"
          ~doc:
            "Run the perf-regression suite and write its samples as a \
             fresh baselines file for later --check runs.")
  in
  let reps_arg =
    Arg.(
      value & opt int 5
      & info [ "reps" ] ~docv:"N"
          ~doc:"Repetitions per benchmark for the regression suite.")
  in
  let large_arg =
    Arg.(
      value & flag
      & info [ "large" ]
          ~doc:
            "Include the large-n smoke entries in the regression suite:              exact zeta and phi sweeps at n = 2048 over the ambient pool.              Each sweep takes seconds, so this is opt-in; the gate treats              the extra entries like any other benchmark (a baseline              without them simply passes them).")
  in
  let run max_n json jobs record history check write_baseline reps large
      trace profile metrics =
    ignore (apply_jobs jobs);
    apply_obs ~profile trace;
    if record || check <> None || write_baseline <> None then begin
      (* The regression gate: one suite run serves --record, --check and
         --write-baseline in any combination. *)
      let samples =
        or_user_error (fun () -> Benchkit.Regress.run_suite ~reps ~large ())
      in
      Core.Prelude.Table.print
        (Benchkit.Regress.samples_table ~title:"perf-regression suite"
           samples);
      if record then begin
        or_user_error (fun () ->
            Benchkit.Regress.append_history ~path:history samples);
        Printf.printf "bench history appended to %s\n%!" history
      end;
      Option.iter
        (fun path ->
          or_user_error (fun () ->
              Benchkit.Regress.write_baselines path samples);
          Printf.printf "baselines written to %s\n%!" path)
        write_baseline;
      match check with
      | None -> finish_obs metrics
      | Some baseline_path ->
          let rows =
            or_user_error (fun () ->
                Benchkit.Regress.compare_samples
                  ~baseline:(Benchkit.Regress.load_baselines baseline_path)
                  ~current:samples)
          in
          Core.Prelude.Table.print (Benchkit.Regress.check_table rows);
          finish_obs metrics;
          let v = Benchkit.Regress.overall rows in
          (match v with
          | Benchkit.Regress.Pass -> ()
          | v ->
              Printf.eprintf "bg bench --check: %s against %s\n%!"
                (Benchkit.Regress.verdict_name v)
                baseline_path);
          exit (Benchkit.Regress.exit_code v)
    end
    else begin
      or_user_error (fun () -> Benchkit.Kernels.run ~max_n ~json_path:json ());
      finish_obs metrics
    end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the flat log-domain kernel benchmark (naive vs optimized \
          zeta and phi sweeps, pruning hit-rates, min-plus rows, \
          disabled-span overhead) and record BENCH_kernels.json; or, with \
          --record/--check/--write-baseline, run the perf-regression \
          suite against committed baselines.")
    Term.(
      const run $ max_n_arg $ json_arg $ jobs_arg
      $ record_arg $ history_arg $ check_arg $ write_baseline_arg $ reps_arg
      $ large_arg $ trace_arg $ profile_arg $ metrics_arg)

(* ------------------------------------------------------------- estimate *)

let estimate_cmd =
  let module Est = Core.Decay.Estimators in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Decay matrix: CSV, or the raw binary format written by \
             Decay_io.save_raw (detected by its magic tag and \
             memory-mapped, so matrices far larger than RAM work).")
  in
  let kernel_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("zeta", `Zeta); ("phi", `Phi); ("gamma", `Gamma);
               ("zeta-triples", `Triples) ])
          `Zeta
      & info [ "kernel" ] ~docv:"K"
          ~doc:
            "Quantity to estimate: zeta / phi (sub-space replicates), \
             gamma (listener sampling; needs --r), or zeta-triples \
             (triple sampling).")
  in
  let nodes_arg =
    Arg.(
      value & opt int 48
      & info [ "nodes" ] ~docv:"K"
          ~doc:
            "Sub-space size per replicate (zeta/phi) or listeners per \
             replicate (gamma).")
  in
  let replicates_arg =
    Arg.(
      value & opt int 8
      & info [ "replicates" ] ~docv:"N" ~doc:"Replicates per estimate.")
  in
  let confidence_arg =
    Arg.(
      value & opt float 0.9
      & info [ "confidence" ] ~docv:"C"
          ~doc:"Nominal coverage of the reported interval, in (0, 1).")
  in
  let samples_arg =
    Arg.(
      value & opt int 20_000
      & info [ "samples" ] ~docv:"N"
          ~doc:"Total sampled triples (zeta-triples only).")
  in
  let r_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "r" ] ~docv:"R" ~doc:"Separation for gamma.")
  in
  let est_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Random seed; equal seeds reproduce the estimate bit-for-bit \
             at every job count.")
  in
  (* Raw matrices are mmapped unvalidated (out-of-core: an eager check
     would touch every page), CSV goes through the strict parser. *)
  let load path =
    or_user_error (fun () ->
        if Core.Decay.Decay_io.is_raw path then
          Core.Decay.Decay_io.load_raw_mmap path
        else Core.Decay.Decay_io.load path)
  in
  let run file kernel nodes replicates confidence samples r seed jobs trace
      profile metrics =
    let jobs = apply_jobs jobs in
    apply_obs ~profile trace;
    let space = load file in
    let o = Est.of_space space in
    let ctx = Core.Decay.Ctx.make ~jobs () in
    let rng = Core.Prelude.Rng.create seed in
    let name, e =
      or_user_error (fun () ->
          match kernel with
          | `Zeta -> ("zeta", Est.zeta ~ctx ~replicates ~confidence ~nodes rng o)
          | `Phi -> ("phi", Est.phi ~ctx ~replicates ~confidence ~nodes rng o)
          | `Triples ->
              ( "zeta",
                Est.zeta_triples ~replicates ~confidence ~samples rng o )
          | `Gamma -> (
              match r with
              | None -> user_error "--kernel gamma requires --r R"
              | Some r ->
                  ( Printf.sprintf "gamma(r = %g)" r,
                    Est.gamma ~ctx ~replicates ~confidence
                      ~listeners:nodes rng o ~r )))
    in
    Format.printf "%s >= %a  (n = %d, seed %d)@."
      name Est.pp_estimate e (Core.Decay.Decay_space.n space) seed;
    finish_obs metrics
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:
         "Estimate zeta, phi or gamma of a large decay matrix by \
          stratified sampling, with a certified lower bound and a \
          confidence interval — for sizes where the exact cubic kernels \
          of `bg analyze` are out of reach.  Raw binary matrices are \
          memory-mapped, so memory stays bounded regardless of n.")
    Term.(
      const run $ file_arg $ kernel_arg $ nodes_arg $ replicates_arg
      $ confidence_arg $ samples_arg $ r_arg $ est_seed_arg $ jobs_arg
      $ trace_arg $ profile_arg $ metrics_arg)

(* ---------------------------------------------------------------- trace *)

(* Offline consumers of --trace files: aggregate report, flame output,
   regression diff.  All parse/IO failures are clean exit-2 errors. *)

let trace_pos_arg ~at ~docv =
  Arg.(
    required
    & pos at (some file) None
    & info [] ~docv ~doc:"JSONL trace file (written by --trace FILE).")

let trace_files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"TRACE"
        ~doc:
          "JSONL trace file(s) (written by --trace FILE). Several files \
           — e.g. a loadgen client trace plus the daemon's — are merged \
           into one causal forest: span ids are remapped per process \
           and server spans re-parent under the client span whose id \
           rode the wire.")

let load_spans path =
  or_user_error (fun () ->
      let spans = Obs_tools.Trace.load path in
      if spans = [] then
        user_error "%s: no span events (is this a --trace file?)" path;
      spans)

let load_merged = function
  | [ path ] -> load_spans path
  | paths -> Obs_tools.Trace.merge (List.map load_spans paths)

let trace_report_cmd =
  let id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"TRACE_ID"
          ~doc:
            "Show one logical request's causal tree instead of the \
             aggregate: every span tagged with $(docv) (a loadgen p99 \
             exemplar, a client.request trace id) plus its descendants, \
             indented in start order.")
  in
  let run paths id =
    let spans = load_merged paths in
    match id with
    | Some tid ->
        let sub = Obs_tools.Trace.filter_trace ~id:tid spans in
        if sub = [] then
          user_error "trace id %s not found in %s" tid
            (String.concat ", " paths);
        Core.Prelude.Table.print
          (Obs_tools.Trace.tree_table
             ~title:(Printf.sprintf "causal tree: %s" tid)
             sub)
    | None ->
        Core.Prelude.Table.print
          (Obs_tools.Trace.report_table
             ~title:
               (Printf.sprintf "trace report: %s" (String.concat " + " paths))
             spans);
        Core.Prelude.Table.print (Obs_tools.Trace.critical_path_table spans)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate JSONL trace(s) into a per-span-kind table (count, \
          total/self/child wall time, allocation when recorded with \
          --profile, p50/p99 from log2 buckets) plus the critical path \
          of the slowest experiment. Multiple files merge into one \
          cross-process forest; --id renders a single request's causal \
          tree.")
    Term.(const run $ trace_files_arg $ id_arg)

let trace_flame_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("folded", `Folded); ("speedscope", `Speedscope) ]) `Folded
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: folded (flamegraph.pl-compatible folded \
             stacks, self time in microseconds) or speedscope (evented \
             JSON profile, one per domain, for speedscope.app).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of stdout.")
  in
  let run paths format out =
    let spans = load_merged paths in
    let name =
      String.concat "+" (List.map Filename.basename paths)
    in
    let text =
      match format with
      | `Folded -> Obs_tools.Trace.folded_to_string spans
      | `Speedscope -> Obs_tools.Trace.speedscope ~name spans ^ "\n"
    in
    match out with
    | None -> print_string text
    | Some f ->
        or_user_error (fun () ->
            Out_channel.with_open_text f (fun oc ->
                Out_channel.output_string oc text))
  in
  Cmd.v
    (Cmd.info "flame"
       ~doc:
         "Render JSONL trace(s) (merged when several) as folded stacks \
          (flamegraph.pl) or a speedscope profile.")
    Term.(const run $ trace_files_arg $ format_arg $ out_arg)

let trace_diff_cmd =
  let run old_path new_path =
    let old_spans = load_spans old_path and new_spans = load_spans new_path in
    (* Disjoint kind sets mean the traces describe different programs —
       a diff would be all "new"/"gone" noise; refuse cleanly. *)
    let new_kinds = Obs_tools.Trace.kinds new_spans in
    if
      not
        (List.exists
           (fun k -> List.mem k new_kinds)
           (Obs_tools.Trace.kinds old_spans))
    then
      user_error "%s and %s share no span kinds — nothing to compare"
        old_path new_path;
    Core.Prelude.Table.print
      (Obs_tools.Trace.diff_table ~old_spans ~new_spans)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Per-span-kind regression table between two traces of the same \
          workload: count and total-time deltas, worst regressions \
          first.")
    Term.(
      const run
      $ trace_pos_arg ~at:0 ~docv:"OLD"
      $ trace_pos_arg ~at:1 ~docv:"NEW")

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Analyze observability traces offline: aggregate report, flame \
          output (folded stacks / speedscope), and trace-vs-trace \
          regression diff.")
    [ trace_report_cmd; trace_flame_cmd; trace_diff_cmd ]

(* ---------------------------------------------------------------- serve *)

let batch_size_arg =
  Arg.(
    value & opt int 32
    & info [ "batch-size" ] ~docv:"N"
        ~doc:"Requests taken per batch; duplicates within a batch coalesce.")

let max_queue_arg =
  Arg.(
    value & opt int 256
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission bound: requests arriving at a full queue are answered \
           immediately with a typed 'rejected' response.")

let cache_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"FILE"
        ~doc:
          "Persist the result cache to $(docv) (a JSONL snapshot, written \
           atomically). Loaded on startup, so a restarted daemon answers \
           repeated requests from disk instead of recomputing.")

let cache_entries_arg =
  Arg.(
    value & opt int 4096
    & info [ "cache-entries" ] ~docv:"N"
        ~doc:"Result-cache capacity; least recently used entries evict.")

let request_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "request-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per computed request; an overrun answers a \
           typed error instead of stalling the batch pipeline.")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Seeded fault injection (testing only): a comma-separated spec \
           of torn=P, drop=P, corrupt=P, stall=P:SECONDS and \
           crash=POINT:N clauses (POINT one of mid-batch, pre-snapshot, \
           mid-snapshot). Equal spec and --chaos-seed replay identical \
           fault schedules.")

let chaos_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "chaos-seed" ] ~docv:"N"
        ~doc:"Seed for the --chaos fault schedule.")

let degrade_watermark_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "degrade-watermark" ] ~docv:"N"
        ~doc:
          "Enable degraded mode: when the backlog behind a batch reaches \
           $(docv), cache-missing zeta/phi/gamma requests are answered \
           from the estimator tier (tagged degraded:true, with a \
           confidence interval) instead of waiting for exact sweeps.")

let degrade_above_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "degrade-above" ] ~docv:"N"
        ~doc:
          "Enable degraded mode for big spaces: requests on spaces with \
           at least $(docv) nodes always answer from the estimator tier.")

(* Validate the serve flag set up front (exit 2, before any daemon or
   store side effects) and return the builders the two modes share:
   [make_chaos] and [make_config] — --supervise must validate without
   opening the store in the parent. *)
let serve_settings ~batch_size ~max_queue ~cache ~cache_entries
    ~request_timeout ~chaos ~chaos_seed ~degrade_watermark ~degrade_above
    ~slo ~telemetry ~telemetry_interval =
  if batch_size < 1 then
    user_error "--batch-size must be at least 1 (got %d)" batch_size;
  if max_queue < 1 then
    user_error "--max-queue must be at least 1 (got %d)" max_queue;
  if cache_entries < 1 then
    user_error "--cache-entries must be at least 1 (got %d)" cache_entries;
  (match request_timeout with
  | Some t when not (t > 0.) ->
      user_error "--request-timeout must be positive (got %g)" t
  | _ -> ());
  let chaos_spec =
    match chaos with
    | None -> None
    | Some text -> (
        match Bg_serve.Chaos.parse text with
        | Ok spec -> Some spec
        | Error msg -> user_error "--chaos: %s" msg)
  in
  (match degrade_watermark with
  | Some w when w < 1 ->
      user_error "--degrade-watermark must be at least 1 (got %d)" w
  | _ -> ());
  (match degrade_above with
  | Some n when n < 3 -> user_error "--degrade-above must be at least 3 (got %d)" n
  | _ -> ());
  let degrade =
    match (degrade_watermark, degrade_above) with
    | None, None -> None
    | w, a ->
        let d = Bg_serve.Server.default_degrade in
        Some
          {
            d with
            Bg_serve.Server.queue_watermark =
              Option.value w ~default:d.Bg_serve.Server.queue_watermark;
            big_n = Option.value a ~default:d.Bg_serve.Server.big_n;
          }
  in
  let slo_spec =
    match slo with
    | None -> None
    | Some text -> (
        match Bg_serve.Slo.parse_spec text with
        | Ok spec -> Some spec
        | Error msg -> user_error "--slo: %s" msg)
  in
  if not (telemetry_interval > 0.) then
    user_error "--telemetry-interval must be positive (got %g)"
      telemetry_interval;
  let make_chaos () =
    Option.map
      (fun spec -> Bg_serve.Chaos.create ~seed:chaos_seed spec)
      chaos_spec
  in
  let make_config ~jobs () =
    let chaos = make_chaos () in
    let store =
      Bg_serve.Store.open_ ~max_entries:cache_entries ?path:cache ?chaos ()
    in
    let telemetry =
      Option.map
        (fun path ->
          try Bg_serve.Telemetry.create ~interval_s:telemetry_interval path
          with Sys_error msg ->
            user_error "cannot open telemetry file: %s" msg)
        telemetry
    in
    (* A supervised worker learns its lineage from the environment the
       supervisor exported before the spawn. *)
    let lineage =
      Option.map
        (fun (restarts, supervisor_started_s, prior_uptime_s) ->
          { Bg_serve.Server.restarts; supervisor_started_s; prior_uptime_s })
        (Bg_serve.Supervisor.read_lineage ())
    in
    {
      Bg_serve.Server.ctx = Core.Decay.Ctx.make ~jobs ();
      batch_size;
      max_queue;
      request_timeout_s = request_timeout;
      store = Some store;
      degrade;
      chaos;
      slo = Option.map (fun spec -> Bg_serve.Slo.create spec) slo_spec;
      telemetry;
      lineage;
    }
  in
  make_config

(* The registry's serve.* summary goes to stderr: in stdio mode stdout
   carries the response stream and must stay clean JSONL. *)
let print_serve_summary () =
  let module Obs = Core.Prelude.Obs in
  let snap = Obs.snapshot () in
  let c = Bg_serve.Telemetry.counter snap in
  let lat = Bg_serve.Telemetry.buckets snap "serve.latency_s" in
  Printf.eprintf
    "bg serve: %d accepted, %d rejected, %d errors | %d computed, %d \
     cache hits, %d coalesced, %d degraded | %d batches | latency p50 \
     %.4gs p99 %.4gs\n\
     %!"
    (c "serve.accepted") (c "serve.rejected") (c "serve.failed")
    (c "serve.computed") (c "serve.store_hits") (c "serve.coalesced")
    (c "serve.degraded") (c "serve.batches")
    (Obs.quantile_of_buckets lat 0.50)
    (Obs.quantile_of_buckets lat 0.99)

let serve_slo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "Track service-level objectives over a sliding window: a \
           comma-separated spec of latency-quantile bounds (p99<=0.05, \
           seconds) and error-rate bounds (err<=1%). Burn rates and a \
           health verdict are reported by every ping/metrics reply.")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Append periodic metric snapshots (counter/gauge/histogram \
           values and deltas) to $(docv) as a bounded JSONL ring. `bg \
           top --telemetry` tails it; `bg slo` replays it against an \
           SLO spec. Append-mode, so supervised respawns continue one \
           ring.")

let telemetry_interval_arg =
  Arg.(
    value & opt float 1.
    & info [ "telemetry-interval" ] ~docv:"SECONDS"
        ~doc:"Seconds between --telemetry snapshots.")

let supervise_arg =
  Arg.(
    value & flag
    & info [ "supervise" ]
        ~doc:
          "Run the daemon under a supervisor that respawns it after a \
           crash (capped exponential backoff). The worker is this same \
           command line, re-run with the BG_SUPERVISE_RESTARTS lineage \
           in its environment, so every flag reaches it; it appends to \
           the --trace file, which the supervisor truncates once, and \
           prints the --metrics table. The worker inherits the \
           supervisor's stdio, so clients keep their pipes across \
           restarts; the WAL-backed --cache preserves every journaled \
           answer. Supervision ends on a clean exit or a usage error.")

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) (any number of \
             concurrent clients) instead of stdin/stdout.")
  in
  let max_requests_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:
            "Socket mode: stop after answering $(docv) requests (smoke \
             tests and bounded sessions).")
  in
  let run socket max_requests batch_size max_queue cache cache_entries
      request_timeout chaos chaos_seed degrade_watermark degrade_above slo
      telemetry telemetry_interval supervise jobs trace profile metrics =
    let jobs = apply_jobs jobs in
    (match max_requests with
    | Some n when n < 1 ->
        user_error "--max-requests must be at least 1 (got %d)" n
    | _ -> ());
    let make_config =
      serve_settings ~batch_size ~max_queue ~cache ~cache_entries
        ~request_timeout ~chaos ~chaos_seed ~degrade_watermark ~degrade_above
        ~slo ~telemetry ~telemetry_interval
    in
    (* The supervisor re-executes this command line; the lineage it
       exports is how the child knows that it is the worker. *)
    let worker = Bg_serve.Supervisor.read_lineage () <> None in
    if supervise && not worker then begin
      (* Validation already ran above; the worker re-runs it cheaply.
         The store opens in the worker only, so each incarnation replays
         the WAL itself.  The workers also own the trace file and the
         metrics: the supervisor truncates the trace exactly once here
         and every worker appends to it, so one supervised run (however
         many respawns) yields one mergeable file. *)
      Option.iter
        (fun path ->
          try Out_channel.with_open_bin path (fun _ -> ())
          with Sys_error msg -> user_error "cannot open trace file: %s" msg)
        trace;
      let outcome = Bg_serve.Supervisor.run () in
      Printf.eprintf "bg serve: supervisor exiting after %d restart(s)\n%!"
        outcome.Bg_serve.Supervisor.restarts;
      match outcome.Bg_serve.Supervisor.final_status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> exit c
      | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> exit 1
    end
    else begin
      apply_obs ~profile ~append:worker trace;
      let config = make_config ~jobs () in
      or_user_error (fun () ->
          match socket with
          | None -> Bg_serve.Server.serve_stdio config
          | Some path -> Bg_serve.Server.serve_socket ?max_requests config path);
      print_serve_summary ();
      finish_obs metrics
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batched analysis daemon: JSONL requests (zeta, phi, \
          gamma, summarize, estimate, ping) on stdin or a Unix socket, \
          JSONL responses out. Requests pass a bounded admission queue \
          (overload gets a typed rejection), batch-mates with the same \
          space digest coalesce onto one computation, and results land \
          in a crash-safe cache (WAL + snapshot) that persists across \
          restarts with --cache. Under load or on huge spaces, \
          --degrade-watermark/--degrade-above answer from the estimator \
          tier instead of shedding; --chaos injects seeded faults for \
          resilience testing; --supervise restarts a crashed daemon. \
          Observability: the metrics wire op answers a full registry \
          scrape at admission, --slo tracks latency/error objectives \
          with burn rates in every ping, --telemetry appends periodic \
          snapshot deltas for `bg top` / `bg slo`, and --trace records \
          spans that `bg trace report` merges with client traces into \
          per-request causal trees.")
    Term.(
      const run $ socket_arg $ max_requests_arg $ batch_size_arg
      $ max_queue_arg $ cache_file_arg $ cache_entries_arg
      $ request_timeout_arg $ chaos_arg $ chaos_seed_arg
      $ degrade_watermark_arg $ degrade_above_arg $ serve_slo_arg
      $ telemetry_arg $ telemetry_interval_arg $ supervise_arg $ jobs_arg
      $ trace_arg $ profile_arg $ metrics_arg)

(* -------------------------------------------------------------- loadgen *)

let loadgen_cmd =
  let module L = Bg_serve.Loadgen in
  let requests_arg =
    Arg.(
      value & opt int L.default_workload.requests
      & info [ "requests" ] ~docv:"N" ~doc:"Total requests in the trace.")
  in
  let spaces_arg =
    Arg.(
      value & opt int L.default_workload.spaces
      & info [ "spaces" ] ~docv:"N" ~doc:"Distinct decay spaces in the pool.")
  in
  let lg_nodes_arg =
    Arg.(
      value & opt int L.default_workload.nodes
      & info [ "nodes" ] ~docv:"N" ~doc:"Nodes per generated space.")
  in
  let zipf_arg =
    Arg.(
      value & opt float L.default_workload.zipf_s
      & info [ "zipf" ] ~docv:"S"
          ~doc:
            "Skew of the space-popularity law (0 = uniform; larger \
             values concentrate the trace on a few hot spaces).")
  in
  let window_arg =
    Arg.(
      value & opt int 32
      & info [ "window" ] ~docv:"N"
          ~doc:"Closed-loop concurrency: requests in flight at once.")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable report (workload + results).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-request deadline: attempts unanswered after $(docv) \
             seconds are re-sent with jittered exponential backoff \
             (requests are idempotent by cache key, so retries are safe).")
  in
  let client_retries_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "client-retries" ] ~docv:"N"
          ~doc:
            "Retry budget per request beyond the first attempt; \
             exhausted requests are reported as given up.")
  in
  let lg_slo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo" ] ~docv:"SPEC"
          ~doc:
            "Score the finished run against service-level objectives \
             (same grammar as `bg serve --slo`, e.g. p99<=0.05,err<=1%). \
             Requests that gave up count as failures. A violated \
             objective makes the run exit 3.")
  in
  let serve_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "serve-trace" ] ~docv:"FILE"
          ~doc:
            "Pass --trace $(docv) to the spawned daemon, so the run \
             leaves a server-side span file; together with this \
             command's own --trace (the client side), `bg trace report \
             FILE1 FILE2` merges them into per-request causal trees.")
  in
  let run requests spaces nodes zipf seed window json deadline
      client_retries slo serve_trace chaos chaos_seed supervise batch_size
      max_queue cache cache_entries request_timeout jobs trace profile
      metrics =
    apply_obs ~profile trace;
    let slo_spec =
      Option.map
        (fun text ->
          match Bg_serve.Slo.parse_spec text with
          | Ok spec -> spec
          | Error msg -> user_error "--slo: %s" msg)
        slo
    in
    if requests < 1 then
      user_error "--requests must be at least 1 (got %d)" requests;
    if spaces < 1 then user_error "--spaces must be at least 1 (got %d)" spaces;
    if nodes < 1 then user_error "--nodes must be at least 1 (got %d)" nodes;
    if window < 1 then user_error "--window must be at least 1 (got %d)" window;
    (match jobs with
    | Some j when j < 1 -> user_error "--jobs must be at least 1 (got %d)" j
    | _ -> ());
    (match deadline with
    | Some d when not (d > 0.) ->
        user_error "--deadline must be positive (got %g)" d
    | _ -> ());
    (match client_retries with
    | Some n when n < 0 ->
        user_error "--client-retries must be nonnegative (got %d)" n
    | _ -> ());
    (* Parse the chaos spec here too: a bad spec should be this
       command's exit-2, not a cryptic child death mid-run. *)
    (match chaos with
    | Some text -> (
        match Bg_serve.Chaos.parse text with
        | Ok _ -> ()
        | Error msg -> user_error "--chaos: %s" msg)
    | None -> ());
    let client =
      match (deadline, client_retries) with
      | None, None -> None
      | d, r ->
          let c = Bg_serve.Client.default_config in
          let config =
            {
              c with
              Bg_serve.Client.deadline_s =
                (match d with
                | Some _ -> d
                | None -> c.Bg_serve.Client.deadline_s);
              max_retries = Option.value r ~default:c.Bg_serve.Client.max_retries;
            }
          in
          Some (Bg_serve.Client.create ~config ~seed ())
    in
    let workload = { L.seed; requests; spaces; nodes; zipf_s = zipf } in
    let trace_reqs = or_user_error (fun () -> L.generate workload) in
    (* The daemon under test is this very binary: loadgen spawns
       `bg serve` over pipes, so the benchmark measures the real wire
       path (parse, admission, batching, store) end to end. *)
    let argv =
      Array.of_list
        ([ Sys.executable_name; "serve"; "--batch-size";
           string_of_int batch_size; "--max-queue"; string_of_int max_queue;
           "--cache-entries"; string_of_int cache_entries ]
        @ (match cache with Some f -> [ "--cache"; f ] | None -> [])
        @ (match request_timeout with
          | Some t -> [ "--request-timeout"; string_of_float t ]
          | None -> [])
        @ (match jobs with
          | Some j -> [ "--jobs"; string_of_int j ]
          | None -> [])
        @ (match chaos with
          | Some s -> [ "--chaos"; s; "--chaos-seed"; string_of_int chaos_seed ]
          | None -> [])
        (* Under --supervise the daemon's own supervise branch truncates
           the file once and respawns workers in append mode. *)
        @ (match serve_trace with Some f -> [ "--trace"; f ] | None -> [])
        @ (if supervise then [ "--supervise" ] else []))
    in
    let report =
      or_user_error (fun () ->
          L.drive_subprocess ~window ?client argv trace_reqs)
    in
    Format.printf "%a@." L.pp_report report;
    let slo_statuses =
      Option.map
        (fun spec -> Bg_serve.Slo.eval_samples spec report.L.slo_samples)
        slo_spec
    in
    Option.iter
      (List.iter (fun st ->
           Format.printf "slo %s: %s  (burn %.2f, %d/%d bad)@."
             (Bg_serve.Slo.objective_name st.Bg_serve.Slo.objective)
             (if st.Bg_serve.Slo.healthy then "ok" else "VIOLATED")
             st.Bg_serve.Slo.window_burn st.Bg_serve.Slo.window_bad
             st.Bg_serve.Slo.window_total))
      slo_statuses;
    Option.iter
      (fun path ->
        or_user_error (fun () ->
            Core.Decay.Decay_io.with_atomic_out path (fun oc ->
                let num_i i = J.Num (float_of_int i) in
                let j =
                  J.Obj
                    ([ ("suite", J.Str "serve");
                       ( "workload",
                         J.Obj
                           [ ("seed", num_i seed); ("requests", num_i requests);
                             ("spaces", num_i spaces); ("nodes", num_i nodes);
                             ("zipf", J.Num zipf); ("window", num_i window) ] );
                       ( "resilience",
                         J.Obj
                           ((match chaos with
                            | Some s ->
                                [ ("chaos", J.Str s);
                                  ("chaos_seed", num_i chaos_seed) ]
                            | None -> [])
                           @ (match deadline with
                             | Some d -> [ ("deadline_s", J.Num d) ]
                             | None -> [])
                           @ (match client_retries with
                             | Some n -> [ ("client_retries", num_i n) ]
                             | None -> [])
                           @ [ ("supervise", J.Bool supervise) ]) );
                       ("report", L.report_to_json report) ]
                    @
                    match slo_statuses with
                    | None -> []
                    | Some statuses ->
                        [ ( "slo",
                            J.Arr
                              (List.map Bg_serve.Slo.status_to_json statuses)
                          ) ])
                in
                output_string oc (J.to_string j);
                output_char oc '\n'));
        Printf.printf "report written to %s\n%!" path)
      json;
    finish_obs metrics;
    (* Every request must be answered — computed, rejected or failed.
       A silently dropped request is a daemon bug and a benchmark lie. *)
    if report.L.answered < report.L.sent then begin
      Printf.eprintf "bg loadgen: %d of %d requests never answered\n%!"
        (report.L.sent - report.L.answered)
        report.L.sent;
      exit 1
    end;
    (* Exit 3 mirrors the perf gate's soft-fail: the run completed, the
       objective did not. *)
    Option.iter
      (fun statuses ->
        if Bg_serve.Slo.violated statuses then begin
          Printf.eprintf "bg loadgen: SLO violated (%s)\n%!"
            (String.concat ", "
               (List.filter_map
                  (fun st ->
                    if st.Bg_serve.Slo.healthy then None
                    else
                      Some
                        (Bg_serve.Slo.objective_name st.Bg_serve.Slo.objective))
                  statuses));
          exit 3
        end)
      slo_statuses
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Generate a reproducible production-shaped workload (zipf-skewed \
          repeats over a pool of decay spaces) and replay it against a \
          spawned `bg serve` daemon, closed-loop at --window concurrency. \
          With --deadline/--client-retries the driver retries lost or \
          late answers under seeded backoff; \
          --chaos/--supervise pass fault injection and supervision \
          through to the daemon. Reports throughput, p50/p99 latency, \
          cache outcomes, p99 trace-id exemplars and resilience \
          counters; exits 1 if any request goes unanswered and 3 if a \
          --slo objective is violated.")
    Term.(
      const run $ requests_arg $ spaces_arg $ lg_nodes_arg $ zipf_arg
      $ seed_arg $ window_arg $ json_out_arg $ deadline_arg
      $ client_retries_arg $ lg_slo_arg $ serve_trace_arg $ chaos_arg
      $ chaos_seed_arg $ supervise_arg $ batch_size_arg $ max_queue_arg
      $ cache_file_arg $ cache_entries_arg $ request_timeout_arg $ jobs_arg
      $ trace_arg $ profile_arg $ metrics_arg)

(* ------------------------------------------------------------------ top *)

(* The one bg top table, for a polled metrics reply or a telemetry ring
   line: [snap] is the daemon's registry and [prev] the one [dt] seconds
   before it, which throughput needs; [extra] holds the rows only a live
   daemon's reply carries (lineage and SLO). *)
let top_table ~title ~uptime_s ~prev snap extra =
  let module T = Bg_serve.Telemetry in
  let open Core.Prelude.Table in
  let c = T.counter snap in
  let served = Bg_serve.Server.served snap in
  let throughput =
    match prev with
    | Some (p, dt) when dt > 0. ->
        float_of_int (Bg_serve.Server.served (T.diff ~prev:p snap)) /. dt
    | _ -> 0.
  in
  let q name p = Core.Prelude.Obs.quantile_of_buckets (T.buckets snap name) p in
  let pair a b = S (Printf.sprintf "%d / %d" a b) in
  let t = create ~title [ "metric"; "value" ] in
  List.iter (add_row t)
    ([ [ S "uptime"; S (Printf.sprintf "%.1fs" uptime_s) ];
       [ S "queue depth"; I (int_of_float (T.gauge snap "serve.queue_depth")) ];
       [ S "throughput"; S (Printf.sprintf "%.1f req/s" throughput) ];
       [ S "accepted / served"; pair (c "serve.accepted") served ];
       [ S "hit rate";
         S
           (Printf.sprintf "%.3f"
              (if served > 0 then
                 float_of_int (c "serve.store_hits") /. float_of_int served
               else 0.)) ];
       [ S "rejected / failed"; pair (c "serve.rejected") (c "serve.failed") ];
       [ S "degraded / coalesced";
         pair (c "serve.degraded") (c "serve.coalesced") ];
       [ S "latency p50 / p99";
         S
           (Printf.sprintf "%.4gs / %.4gs" (q "serve.latency_s" 0.5)
              (q "serve.latency_s" 0.99)) ];
       [ S "queue wait p99";
         S (Printf.sprintf "%.4gs" (q "serve.queue_wait_s" 0.99)) ];
       [ S "WAL appends"; I (c "store.wal_appends") ];
       [ S "WAL recovered / torn";
         pair (c "store.wal_recovered") (c "store.wal_torn") ] ]
    @ extra);
  print t

(* The rows only a live daemon's metrics reply carries: supervisor
   lineage and SLO burn.  A missing field reads as zero. *)
let reply_rows result =
  let open Core.Prelude.Table in
  let num k j = Option.value ~default:0. (J.mem_num k j) in
  [ S "restarts / total uptime";
    S
      (Printf.sprintf "%d / %.1fs"
         (int_of_float (num "restarts" result))
         (num "total_uptime_s" result)) ]
  ::
  (match J.member "slo" result with
  | Some (J.Arr statuses) ->
      List.map
        (fun st ->
          let burn =
            Option.fold ~none:0. ~some:(num "burn") (J.member "window" st)
          in
          [ S ("slo " ^ Option.value ~default:"?" (J.mem_str "objective" st));
            S
              (Printf.sprintf "%s (burn %.2f)"
                 (if Option.value ~default:true (J.mem_bool "healthy" st) then
                    "ok"
                  else "VIOLATED")
                 burn) ])
        statuses
  | _ -> [])

let top_cmd =
  let module P = Bg_serve.Protocol in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Poll a live daemon's metrics wire op over its Unix socket \
             (answered at admission, so it works during overload).")
  in
  let telemetry_file_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Tail a --telemetry ring file instead of polling a socket \
             (works on a dead daemon's last snapshots too).")
  in
  let interval_arg =
    Arg.(
      value & opt float 1.
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between refreshes.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after $(docv) refreshes (0 = run until interrupted).")
  in
  let prometheus_arg =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Print a Prometheus text-exposition scrape of the daemon's \
             registry (polled, or the ring's last snapshot) instead of the \
             table.")
  in
  let run socket telemetry interval iterations prometheus =
    if not (interval > 0.) then
      user_error "--interval must be positive (got %g)" interval;
    if iterations < 0 then
      user_error "--iterations must be non-negative (got %d)" iterations;
    let show ~title ~uptime_s ~prev snap extra =
      if prometheus then print_string (Bg_serve.Telemetry.prometheus snap)
      else top_table ~title ~uptime_s ~prev snap extra
    in
    let poll =
      match (socket, telemetry) with
      | Some _, Some _ -> user_error "--socket and --telemetry are exclusive"
      | None, None -> user_error "one of --socket or --telemetry is required"
      | Some path, None ->
          let client = Bg_serve.Client.create ~seed:0 () in
          let scrape =
            { P.id = "metrics"; op = P.Metrics; space = None; trace = None }
          in
          (* One throughput sample needs two polls; remember the last. *)
          let last = ref None in
          fun () -> (
            let r = Bg_serve.Loadgen.drive_socket ~client path [ scrape ] in
            match r.Bg_serve.Loadgen.responses with
            | [ P.Done { result; _ } ] ->
                let now = Core.Prelude.Obs.now_s () in
                let snap = Bg_serve.Telemetry.of_json result in
                show ~title:"bg top"
                  ~uptime_s:
                    (Option.value ~default:0. (J.mem_num "uptime_s" result))
                  ~prev:(Option.map (fun (p, at) -> (p, now -. at)) !last)
                  snap (reply_rows result);
                last := Some (snap, now)
            | [ (P.Rejected { reason; _ } | P.Failed { reason; _ }) ] ->
                user_error "metrics poll rejected: %s" reason
            | _ ->
                user_error
                  "metrics poll failed: no answer from %s (gave up after %d \
                   attempts)"
                  path (r.Bg_serve.Loadgen.retries + 1))
      | None, Some path -> (
          fun () ->
            let module T = Bg_serve.Telemetry in
            match List.rev (or_user_error (fun () -> T.read path)) with
            | [] -> user_error "%s: no telemetry snapshots" path
            | last :: rest ->
                show
                  ~title:(Printf.sprintf "bg top (telemetry seq %d)" last.T.seq)
                  ~uptime_s:last.T.uptime_s
                  ~prev:
                    (match rest with
                    | p :: _ -> Some (p.T.values, last.T.t_s -. p.T.t_s)
                    | [] -> None)
                  last.T.values [])
    in
    let clear () =
      if Unix.isatty Unix.stdout && not prometheus then
        print_string "\027[2J\027[H"
    in
    let rec loop i =
      clear ();
      poll ();
      flush stdout;
      if iterations = 0 || i < iterations then begin
        Unix.sleepf interval;
        loop (i + 1)
      end
    in
    loop 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a serving daemon: poll the metrics wire op over \
          --socket (or tail a --telemetry ring file) and render one \
          refreshing table of throughput, hit rate, queue depth, \
          latency quantiles and degraded/WAL counters, plus restart and \
          SLO burn rows from a live daemon. --prometheus emits a \
          text-exposition scrape of either source instead.")
    Term.(
      const run $ socket_arg $ telemetry_file_arg $ interval_arg
      $ iterations_arg $ prometheus_arg)

(* ------------------------------------------------------------------ slo *)

let slo_cmd =
  let spec_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:
            "The objectives to score, same grammar as `bg serve --slo` \
             (e.g. p99<=0.05,err<=1%).")
  in
  let telemetry_pos_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TELEMETRY"
          ~doc:"A --telemetry ring file recorded by `bg serve`.")
  in
  let run spec_text path =
    let spec =
      match Bg_serve.Slo.parse_spec spec_text with
      | Ok s -> s
      | Error msg -> user_error "--spec: %s" msg
    in
    let lines = or_user_error (fun () -> Bg_serve.Telemetry.read path) in
    if lines = [] then user_error "%s: no telemetry snapshots" path;
    let statuses =
      Bg_serve.Slo.eval_telemetry spec
        (List.map (fun l -> l.Bg_serve.Telemetry.deltas) lines)
    in
    let t =
      Core.Prelude.Table.create
        ~title:(Printf.sprintf "SLO report: %s over %s" spec_text path)
        [ "objective"; "events"; "bad"; "burn"; "verdict" ]
    in
    let open Core.Prelude.Table in
    List.iter
      (fun st ->
        add_row t
          [ S (Bg_serve.Slo.objective_name st.Bg_serve.Slo.objective);
            I st.Bg_serve.Slo.window_total; I st.Bg_serve.Slo.window_bad;
            F2 st.Bg_serve.Slo.window_burn;
            S (if st.Bg_serve.Slo.healthy then "ok" else "VIOLATED") ])
      statuses;
    print t;
    if Bg_serve.Slo.violated statuses then exit 3
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Score recorded telemetry against service-level objectives: \
          replay a --telemetry ring file, sum the latency-histogram and \
          admission-counter deltas per objective, and report burn rates \
          (latency at log2-bucket resolution). Exits 3 when an \
          objective is violated.")
    Term.(const run $ spec_arg $ telemetry_pos_arg)

(* ------------------------------------------------------------------ zoo *)

let zoo_cmd =
  let run () =
    let t =
      Core.Prelude.Table.create ~title:"construction zoo"
        [ "kind"; "paper reference"; "property" ]
    in
    let open Core.Prelude.Table in
    add_row t [ S "uniform"; S "Sec. 4.1"; S "independence dim 1, unbounded doubling" ];
    add_row t [ S "star"; S "Sec. 3.4"; S "unbounded doubling, bounded fading value" ];
    add_row t [ S "welzl"; S "Sec. 4.1"; S "doubling dim 1, unbounded independence" ];
    add_row t [ S "three-point"; S "Sec. 4.2"; S "phi < 2 while zeta unbounded" ];
    add_row t [ S "plane"; S "Sec. 2.2"; S "GEO-SINR: zeta = alpha" ];
    add_row t [ S "office / clutter"; S "Sec. 1"; S "multi-wall radio simulation" ];
    print t
  in
  Cmd.v (Cmd.info "zoo" ~doc:"List the built-in decay-space constructions.")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "bg" ~version:"1.0.0"
       ~doc:"Decay-space wireless models (Beyond Geometry, PODC 2014).")
    [ analyze_cmd; generate_cmd; evolve_cmd; capacity_cmd; experiment_cmd;
      stats_cmd; protocols_cmd; bench_cmd; estimate_cmd; trace_cmd;
      serve_cmd; loadgen_cmd; top_cmd; slo_cmd; zoo_cmd ]

let () =
  (* Cmdliner reports its own parse errors with Exit.cli_error (124);
     fold those into the same exit code 2 that user_error uses so every
     "you gave me bad input" path looks alike to scripts. *)
  let code = Cmd.eval main in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
