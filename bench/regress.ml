(* The perf-history and regression gate behind `bg bench --record` /
   `--check` / `--write-baseline`.

   A fixed suite of small, stable kernels is timed with mean/stddev over
   several repetitions (unlike the kernel bench's best-of, which tracks
   the floor: the gate needs the noise estimate too).  Samples are
   appended to BENCH_history.jsonl with the git sha, and compared
   against a committed baselines file with noise-aware thresholds built
   from the baseline mean and stddev:

     soft regression   best-of-reps > base mean + max(3 sigma, 15% of base)
     hard regression   best-of-reps > base mean + max(3 sigma, 50% of base)

   A sub-threshold delta is noise, not a finding.  The thresholds are
   per-benchmark; the overall verdict is the worst row.  Baselines are
   machine-specific — re-record with --write-baseline when the reference
   hardware changes; CI additionally self-calibrates (records a fresh
   baseline on the runner before checking) so the gate measures the
   code, not the machine. *)

module D = Core.Decay.Decay_space
module Met = Core.Decay.Metricity
module Fad = Core.Decay.Fading
module Obs = Core.Prelude.Obs
module T = Core.Prelude.Table
module J = Core.Prelude.Jsonl

type sample = {
  name : string;
  reps : int;
  mean_s : float;
  stddev_s : float;
  best_s : float;
}

let measure ~name ~reps f =
  ignore (f ()); (* warm caches and allocators outside the timed reps *)
  let times =
    Array.init (max 1 reps) (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  let n = Array.length times in
  let mean = Array.fold_left ( +. ) 0. times /. float_of_int n in
  let var =
    if n < 2 then 0.
    else
      Array.fold_left (fun acc t -> acc +. ((t -. mean) ** 2.)) 0. times
      /. float_of_int (n - 1)
  in
  {
    name;
    reps = n;
    mean_s = mean;
    stddev_s = sqrt var;
    best_s = Array.fold_left Float.min infinity times;
  }

(* ---------------------------------------------------------------- suite *)

let geo_space n =
  D.of_points ~alpha:3.
    (Core.Decay.Spaces.random_points (Core.Prelude.Rng.create 2024) ~n
       ~side:30.)

(* [n] nodes at random points of a 3 x 3 office floor with drywall
   walls, measured by the radio simulator. *)
let office_space n =
  let module R = Core.Radio in
  let env =
    R.Environment.office ~rooms_x:3 ~rooms_y:3 ~room_size:6. R.Material.drywall
  in
  R.Measure.decay_space ~seed:7 env
    (R.Node.of_points
       (Core.Decay.Spaces.random_points (Core.Prelude.Rng.create 2024) ~n
          ~side:17.))

(* A synthetic ~160-line trace for the parser benchmark: representative
   span lines without needing a file on disk. *)
let synthetic_trace =
  lazy
    (String.concat "\n"
       (List.init 160 (fun i ->
            Printf.sprintf
              "{\"type\":\"span\",\"id\":%d,\"parent\":%d,\"domain\":0,\
               \"name\":\"zeta_sweep\",\"start_s\":%.6f,\"dur_s\":%.6f,\
               \"ok\":true,\"attrs\":{\"n\":%d,\"jobs\":1}}"
              (i + 1)
              (if i = 0 then 0 else 1 + (i / 2))
              (1e9 +. (0.001 *. float_of_int i))
              0.0005 (64 + i))))

let seq = Core.Decay.Ctx.make ~jobs:1 ()

(* The space the full-sweep entry times: a 128-node geometric space with
   the rows and columns of nodes 0, 32, 64 and 96 rewritten from a pure
   hash of the pair, so every rebuild is bit-identical. *)
let perturbed_space base =
  let n = D.n base in
  D.of_fn ~name:"bench-perturbed" n (fun i j ->
      if i = j then 0.
      else if i mod 32 = 0 || j mod 32 = 0 then
        let h =
          ((i * 73856093) lxor (j * 19349663) lxor (7 * 83492791)) land 0xFFFF
        in
        1. +. (float_of_int h /. 64.)
      else D.decay base i j)

let run_suite ?(reps = 5) ?(large = false) () =
  let s96 = geo_space 96 and s64 = geo_space 64 in
  let zeta_seq =
    measure ~name:"zeta_seq_n96" ~reps (fun () ->
        Met.zeta_witness ~ctx:seq s96)
  in
  let phi_seq =
    measure ~name:"phi_seq_n64" ~reps (fun () ->
        Met.phi ~ctx:seq s64)
  in
  let gamma =
    measure ~name:"gamma_n64_r4" ~reps (fun () ->
        Fad.gamma ~ctx:seq s64 ~r:4.)
  in
  let parse =
    let text = Lazy.force synthetic_trace in
    measure ~name:"jsonl_parse_160" ~reps (fun () -> J.parse_lines text)
  in
  let span_off =
    (* 100k disabled-span calls per rep: the per-call cost is a few ns,
       far below one clock read. *)
    let k = ref 0 in
    measure ~name:"span_off_100k" ~reps (fun () ->
        for _ = 1 to 100_000 do
          Obs.with_span "noop" (fun () -> incr k)
        done)
  in
  let serve =
    (* The serving path end to end, in process: parse + admission +
       digest-coalescing batches + store lookups + WAL journaling over a
       zipf trace.  A fresh engine and store (with a real on-disk WAL —
       the gate must price the journal's write path) per rep keeps every
       rep cold. *)
    let reqs =
      Bg_serve.Loadgen.generate
        { Bg_serve.Loadgen.seed = 17; requests = 400; spaces = 60;
          nodes = 10; zipf_s = 1.1 }
    in
    measure ~name:"serve_inproc_400" ~reps (fun () ->
        let dir = Filename.temp_file "bg-bench-store" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o700;
        let path = Filename.concat dir "store.jsonl" in
        Fun.protect
          ~finally:(fun () ->
            Array.iter
              (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
              (Sys.readdir dir);
            try Unix.rmdir dir with _ -> ())
          (fun () ->
            let store = Bg_serve.Store.open_ ~path () in
            let t =
              Bg_serve.Server.create
                {
                  Bg_serve.Server.ctx = seq;
                  batch_size = 32;
                  max_queue = 256;
                  request_timeout_s = None;
                  store = Some store;
                  degrade = None;
                  chaos = None;
                  slo = None;
                  telemetry = None;
                  lineage = None;
                }
            in
            let r = Bg_serve.Loadgen.drive_inproc ~window:32 t reqs in
            Bg_serve.Store.close store;
            if r.Bg_serve.Loadgen.answered <> r.Bg_serve.Loadgen.sent then
              failwith "serve_inproc_400: dropped requests"))
  in
  let full_sweep =
    let next = perturbed_space (geo_space 128) in
    measure ~name:"full_sweep_n128" ~reps (fun () ->
        ignore (Met.zeta_witness ~ctx:seq next);
        ignore (Met.phi ~ctx:seq next))
  in
  let geo_sweeps =
    (* Both sweeps on a geometric space of perfbench's offline size, where
       the bounds prune almost nothing and the min-plus pass runs. *)
    let s256 = geo_space 256 in
    measure ~name:"geo_sweeps_n256" ~reps (fun () ->
        ignore (Met.zeta_witness ~ctx:seq s256);
        ignore (Met.phi_witness ~ctx:seq s256))
  in
  let analysis =
    (* The whole `bg analyze` report, gamma at r = 4, on the kind of small
       walled space perfbench's offline workload reports on: mostly the
       Dimension estimators. *)
    let office = office_space 24 in
    measure ~name:"analysis_n24" ~reps (fun () ->
        Core.Analysis.run
          ~config:{ Core.Analysis.ctx = seq; gamma_at = [ 4. ] }
          office)
  in
  let radio =
    (* The radio simulator's build of a 256-node office (perfbench's
       offline site size), sequential like the entries above: the build
       takes the ambient job count, so pin it to 1 while timing. *)
    let jobs = Core.Prelude.Parallel.default_jobs () in
    Core.Prelude.Parallel.set_default_jobs 1;
    Fun.protect
      ~finally:(fun () -> Core.Prelude.Parallel.set_default_jobs jobs)
      (fun () ->
        measure ~name:"radio_office_n256" ~reps (fun () -> office_space 256))
  in
  let base =
    [ zeta_seq; phi_seq; gamma; parse; span_off; serve; full_sweep;
      geo_sweeps; analysis; radio ]
  in
  if not large then base
  else begin
    (* Large-n smoke entries (`bg bench --large`): the tiled exact kernels
       at n = 2048 under the same noise-aware gate, parallel over the
       ambient pool.  Fewer reps: each sweep is seconds, so clock
       quantization is irrelevant and the gate's 3-sigma band stays
       meaningful. *)
    let s2048 = geo_space 2048 in
    let large_reps = max 1 (min reps 3) in
    let zeta_large =
      measure ~name:"zeta_par_n2048" ~reps:large_reps (fun () ->
          Met.zeta_witness s2048)
    in
    let phi_large =
      measure ~name:"phi_par_n2048" ~reps:large_reps (fun () ->
          Met.phi s2048)
    in
    base @ [ zeta_large; phi_large ]
  end

let samples_table ~title samples =
  let t =
    T.create ~title [ "benchmark"; "reps"; "mean (ms)"; "stddev (ms)"; "best (ms)" ]
  in
  List.iter
    (fun s ->
      T.add_row t
        [ T.S s.name; T.I s.reps; T.F4 (s.mean_s *. 1e3);
          T.F4 (s.stddev_s *. 1e3); T.F4 (s.best_s *. 1e3) ])
    samples;
  t

(* ----------------------------------------------------------------- JSON *)

let sample_to_json s =
  J.Obj
    [ ("name", J.Str s.name); ("reps", J.Num (float_of_int s.reps));
      ("mean_s", J.Num s.mean_s); ("stddev_s", J.Num s.stddev_s);
      ("best_s", J.Num s.best_s) ]

let sample_of_json j =
  match
    ( J.mem_str "name" j, J.mem_num "reps" j, J.mem_num "mean_s" j,
      J.mem_num "stddev_s" j, J.mem_num "best_s" j )
  with
  | Some name, Some reps, Some mean_s, Some stddev_s, Some best_s ->
      { name; reps = int_of_float reps; mean_s; stddev_s; best_s }
  | _ -> failwith "bench baselines: malformed sample entry"

let git_sha () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some sha when sha <> "" -> sha
  | _ -> (
      try
        let read path =
          String.trim (In_channel.with_open_text path In_channel.input_all)
        in
        let head = read ".git/HEAD" in
        match String.split_on_char ' ' head with
        | [ "ref:"; r ] -> read (Filename.concat ".git" r)
        | _ -> head
      with _ -> "unknown")

let write_baselines path samples =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"version\": 1,\n";
  Printf.fprintf oc "  \"recorded_unix\": %.0f,\n" (Unix.time ());
  Printf.fprintf oc "  \"sha\": %s,\n" (J.to_string (J.Str (git_sha ())));
  Printf.fprintf oc "  \"benchmarks\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "    %s%s\n"
        (J.to_string (sample_to_json s))
        (if i = List.length samples - 1 then "" else ","))
    samples;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let load_baselines path =
  let j = J.parse (J.read_file path) in
  match J.member "benchmarks" j with
  | Some (J.Arr entries) -> List.map sample_of_json entries
  | _ -> failwith (path ^ ": no \"benchmarks\" array")

let append_history ~path samples =
  let line =
    J.to_string
      (J.Obj
         [ ("type", J.Str "bench_history"); ("sha", J.Str (git_sha ()));
           ("unix_time", J.Num (Unix.time ()));
           ("jobs", J.Num (float_of_int (Core.Prelude.Parallel.default_jobs ())));
           ("samples", J.Arr (List.map sample_to_json samples)) ])
  in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  output_string oc line;
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------- checking *)

type verdict = Pass | Soft | Hard

type check_row = {
  r_name : string;
  base : sample option;
  cur : sample;
  soft_at : float; (* absolute mean threshold, nan without a baseline *)
  hard_at : float;
  row_verdict : verdict;
}

(* 20 us absolute floor: below that, gettimeofday quantization and
   scheduler jitter dominate any real signal. *)
let noise_floor_s = 20e-6

let threshold base frac =
  base.mean_s
  +. Float.max noise_floor_s
       (Float.max (3. *. base.stddev_s) (frac *. base.mean_s))

let compare_samples ~baseline ~current =
  List.map
    (fun cur ->
      match List.find_opt (fun b -> b.name = cur.name) baseline with
      | None ->
          {
            r_name = cur.name;
            base = None;
            cur;
            soft_at = Float.nan;
            hard_at = Float.nan;
            row_verdict = Pass;
          }
      | Some b ->
          let soft_at = threshold b 0.15 and hard_at = threshold b 0.50 in
          {
            r_name = cur.name;
            base = Some b;
            cur;
            soft_at;
            hard_at;
            row_verdict =
              (* Judged on the best-of-reps floor, not the mean: a real
                 slowdown lifts the whole distribution including the
                 floor, while one scheduler-preempted rep only inflates
                 the mean (and would flag a self-comparison on a busy
                 1-core runner). *)
              (if cur.best_s > hard_at then Hard
               else if cur.best_s > soft_at then Soft
               else Pass);
          })
    current

let overall rows =
  List.fold_left
    (fun acc r ->
      match (acc, r.row_verdict) with
      | Hard, _ | _, Hard -> Hard
      | Soft, _ | _, Soft -> Soft
      | Pass, Pass -> Pass)
    Pass rows

let exit_code = function Pass -> 0 | Soft -> 3 | Hard -> 4

let verdict_name = function
  | Pass -> "ok"
  | Soft -> "SOFT REGRESSION"
  | Hard -> "HARD REGRESSION"

let check_table rows =
  let t =
    T.create
      ~title:
        "perf regression check (soft: best > base + max(3s, 15%); hard: +50%)"
      [ "benchmark"; "base mean (ms)"; "mean (ms)"; "best (ms)"; "ratio";
        "soft at (ms)"; "verdict" ]
  in
  List.iter
    (fun r ->
      match r.base with
      | None ->
          T.add_row t
            [ T.S r.r_name; T.S "-"; T.F4 (r.cur.mean_s *. 1e3);
              T.F4 (r.cur.best_s *. 1e3); T.S "-"; T.S "-";
              T.S "no baseline" ]
      | Some b ->
          T.add_row t
            [ T.S r.r_name; T.F4 (b.mean_s *. 1e3);
              T.F4 (r.cur.mean_s *. 1e3); T.F4 (r.cur.best_s *. 1e3);
              T.F2 (r.cur.best_s /. Float.max 1e-12 b.mean_s);
              T.F4 (r.soft_at *. 1e3); T.S (verdict_name r.row_verdict) ])
    rows;
  t
