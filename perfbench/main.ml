(* perfbench — the repository's one benchmark command.

     sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for about S seconds on inputs generated from seed
   N, checks its outputs, prints a human-readable report, and ends with
   one JSON line {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
   untraced; with --trace 1 they are its per_layer list, from a traced
   run.  Exits 1 when any output is wrong. *)

open Perfbench
module J = Obs_tools.Jsonl

let workloads =
  [ ("serve_zipf", Serve_zipf.run);
    ("offline_analysis", Offline.run);
    ("churn_mobility", Churn.run) ]

(* The metric names and units BENCHMARK.json promises, in its order. *)
let spec key =
  let field k m =
    match J.mem_str k m with
    | Some s -> s
    | None -> failwith ("BENCHMARK.json: a metric without " ^ k)
  in
  match J.member key (J.parse (J.read_file "BENCHMARK.json")) with
  | Some (J.Arr ms) -> List.map (fun m -> (field "name" m, field "unit" m)) ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some r when (!trace = 0 || !trace = 1) && !seconds > 0. -> r
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let traced = !trace = 1 in
  Core.Prelude.Parallel.set_default_jobs (Core.Prelude.Parallel.auto_jobs ());
  let root = ".perfbench" in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  Sys.mkdir dir 0o755;
  let o =
    Fun.protect
      ~finally:(fun () ->
        Bench.rm_rf dir;
        try Sys.rmdir root with Sys_error _ -> ())
      (fun () -> run ~seed:!seed ~seconds:!seconds ~traced ~dir)
  in
  let measured =
    if traced then o.Bench.metrics
    else o.metrics @ [ Bench.metric "peak_rss_mb" "MB" (Stats.peak_rss_mb ()) ]
  in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let value =
          match List.find_opt (fun (m : Bench.metric) -> m.name = name) measured with
          | Some m when m.unit_ = unit_ -> m.value
          | Some m -> failwith (Printf.sprintf "%s: unit %s, not %s" name m.unit_ unit_)
          (* a count or ratio of a layer this workload does not drive *)
          | None when traced && unit_ <> "s" -> 0.
          | None -> failwith (name ^ ": not measured by " ^ !workload)
        in
        (name, J.Obj [ ("value", J.Num value); ("unit", J.Str unit_) ]))
      (spec (if traced then "per_layer" else "end_to_end"))
  in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (o.failed = 0));
            ("attempted", J.Num (float_of_int o.attempted));
            ("failed", J.Num (float_of_int o.failed));
            ("metrics", J.Obj metrics) ]));
  exit (if o.failed = 0 then 0 else 1)
