(* Bechamel micro-benchmarks for the library's hot paths: metricity
   computation, capacity algorithms, feasibility checks, the fading
   estimator, the radio pipeline and the serve wire protocol.  One
   OLS-estimated cost per operation, rendered as the table
   EXPERIMENTS.md records.  Run it as
   `dune exec bench/main.exe`; the claim experiments run through
   `bg experiment`, the kernel bench and perf gate through `bg bench`. *)

open Bechamel

let planar_instance n_links =
  Core.Sinr.Instance.random_planar (Core.Prelude.Rng.create 77) ~n_links
    ~side:30. ~alpha:3. ~lmin:1. ~lmax:2.

(* One Loadgen space (n = 32) as a zeta request, and the same request
   with its space in the decimal [matrix] form, which the wire still
   accepts. *)
let protocol_request () =
  let module P = Bg_serve.Protocol in
  let module J = Core.Prelude.Jsonl in
  let req =
    List.hd
      (Bg_serve.Loadgen.generate
         { Bg_serve.Loadgen.seed = 1; requests = 1; spaces = 1; nodes = 32;
           zipf_s = 1.1 })
  in
  let matrix =
    match req.P.space with
    | Some (P.Inline (name, rows)) ->
        J.Obj
          [ ("name", J.Str name);
            ( "matrix",
              J.Arr
                (Array.to_list rows
                |> List.map (fun row ->
                       J.Arr (Array.to_list row |> List.map (fun v -> J.Num v))))
            ) ]
    | _ -> invalid_arg "protocol_request: Loadgen spaces are inline"
  in
  let decimal =
    match P.request_to_json req with
    | J.Obj fields ->
        J.to_string
          (J.Obj
             (List.map
                (fun (k, v) -> if k = "space" then (k, matrix) else (k, v))
                fields))
    | _ -> invalid_arg "protocol_request: a request is an object"
  in
  (req, P.request_to_string req, decimal)

let tests () =
  let pts30 =
    Core.Decay.Spaces.random_points (Core.Prelude.Rng.create 1) ~n:30 ~side:20.
  in
  let space30 = Core.Decay.Decay_space.of_points ~alpha:3. pts30 in
  let inst40 = planar_instance 40 in
  let inst16 = planar_instance 16 in
  let links40 = Array.to_list inst40.Core.Sinr.Instance.links in
  let power = Core.Sinr.Power.uniform 1. in
  let rng = Core.Prelude.Rng.create 3 in
  let env =
    Core.Radio.Environment.office ~rooms_x:3 ~rooms_y:3 ~room_size:6.
      Core.Radio.Material.drywall
  in
  let nodes =
    Core.Radio.Node.of_points
      (Core.Decay.Spaces.random_points (Core.Prelude.Rng.create 4) ~n:20 ~side:17.)
  in
  let req32, f64_line, decimal_line = protocol_request () in
  let office24 = Benchkit.Regress.office_space 24 in
  let office24_zeta = Core.Decay.Metricity.zeta office24 in
  let graph24 = Core.Graph.Graph.random (Core.Prelude.Rng.create 5) 24 0.2 in
  Test.make_grouped ~name:"bg"
    [
      Test.make ~name:"zeta exact (n=30)"
        (Staged.stage (fun () ->
             Core.Decay.Metricity.zeta space30));
      Test.make ~name:"zeta sampled (2k triples, n=30)"
        (Staged.stage (fun () ->
             Core.Decay.Estimators.zeta_triples ~samples:2000 rng
               (Core.Decay.Estimators.of_space space30)));
      Test.make ~name:"phi (n=30)"
        (Staged.stage (fun () ->
             Core.Decay.Metricity.phi space30));
      Test.make ~name:"alg1 (40 links)"
        (Staged.stage (fun () -> Core.Capacity.Alg1.run inst40));
      Test.make ~name:"affectance greedy (40 links)"
        (Staged.stage (fun () -> Core.Capacity.Greedy.affectance_greedy inst40));
      Test.make ~name:"exact capacity (16 links)"
        (Staged.stage (fun () -> Core.Capacity.Exact.capacity inst16));
      Test.make ~name:"feasibility check (40 links)"
        (Staged.stage (fun () ->
             Core.Sinr.Feasibility.is_feasible inst40 power links40));
      Test.make ~name:"gamma(r=1) greedy (n=30)"
        (Staged.stage (fun () ->
             Core.Decay.Fading.gamma
               ~ctx:(Core.Decay.Ctx.make ~exact_limit:0 ())
               space30 ~r:1.));
      Test.make ~name:"radio decay matrix (20 nodes)"
        (Staged.stage (fun () -> Core.Radio.Measure.decay_space env nodes));
      Test.make ~name:"radio decay matrix (256 nodes)"
        (Staged.stage (fun () -> Benchkit.Regress.office_space 256));
      Test.make ~name:"first-fit schedule (40 links)"
        (Staged.stage (fun () -> Core.Sched.Scheduler.first_fit inst40));
      Test.make ~name:"weighted exact (16 links)"
        (Staged.stage
           (let w = Array.make 16 1.5 in
            fun () -> Core.Capacity.Weighted.exact inst16 w));
      Test.make ~name:"auction w/ payments (16 links)"
        (Staged.stage
           (let bids =
              Array.init 16 (fun i -> 1. +. float_of_int (i mod 5))
            in
            fun () -> Core.Capacity.Auction.run inst16 ~bids));
      Test.make ~name:"conflict graph build (40 links)"
        (Staged.stage (fun () -> Core.Sched.Conflict_graph.build inst40));
      Test.make ~name:"rayleigh success prob (40 interferers)"
        (Staged.stage (fun () ->
             Core.Sinr.Rayleigh.success_probability inst40 power
               ~interferers:links40 (List.hd links40)));
      Test.make ~name:"zeta subsampled (8 x 12 of 30)"
        (Staged.stage (fun () ->
             Core.Decay.Estimators.zeta ~replicates:8 ~nodes:12 rng
               (Core.Decay.Estimators.of_space space30)));
      Test.make ~name:"protocol parse decimal (n=32)"
        (Staged.stage (fun () ->
             Bg_serve.Protocol.request_of_string decimal_line));
      Test.make ~name:"protocol parse f64 (n=32)"
        (Staged.stage (fun () -> Bg_serve.Protocol.request_of_string f64_line));
      Test.make ~name:"protocol encode f64 (n=32)"
        (Staged.stage (fun () -> Bg_serve.Protocol.request_to_string req32));
      Test.make ~name:"dimension assouad (n=24)"
        (Staged.stage (fun () -> Core.Decay.Dimension.assouad office24));
      Test.make ~name:"dimension quasi_doubling (n=24)"
        (Staged.stage (fun () ->
             Core.Decay.Dimension.quasi_doubling ~zeta:office24_zeta office24));
      Test.make ~name:"mis exact (k=24)"
        (Staged.stage (fun () -> Core.Graph.Mis.exact graph24));
      Test.make ~name:"min connectivity power (n=30)"
        (Staged.stage (fun () ->
             Core.Distrib.Connectivity.min_uniform_power space30 ~beta:1.5
               ~noise:0.5));
    ]

let run () =
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~kde:None ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] (tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Core.Prelude.Table.create ~title:"micro-benchmarks (monotonic clock, OLS)"
      [ "operation"; "time/op"; "r^2" ]
  in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> Float.nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> Float.nan
      in
      let human =
        if estimate >= 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
        else if estimate >= 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
        else if estimate >= 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
        else Printf.sprintf "%.0f ns" estimate
      in
      Core.Prelude.Table.add_row table
        [ Core.Prelude.Table.S name; Core.Prelude.Table.S human;
          Core.Prelude.Table.F2 r2 ])
    (List.sort compare rows);
  Core.Prelude.Table.print table

let () = run ()
