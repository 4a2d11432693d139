(* serve_zipf: the serving stack end to end.

   A zipf(1.1) trace over a pool of small spaces is replayed closed-loop
   — 32 callers, each waiting for its reply — through Server.run_loop
   with bg serve's defaults: batch 32, queue 256, an on-disk Store with
   its WAL, one job per core.  Between the two halves of the trace the
   daemon restarts (Store.close, Store.open_ on the same path, a fresh
   Server.create), so the first half exercises Store writes and the
   second recovery plus reads.  Request lines are rendered once before
   any timing: encoding is the generator's cost, not the server's.
   Every round is cold: a fresh store directory and cleared kernel
   caches. *)

open Perfbench
module P = Bg_serve.Protocol
module Server = Bg_serve.Server
module Store = Bg_serve.Store
module Loadgen = Bg_serve.Loadgen
module J = Obs_tools.Jsonl
module Trace = Obs_tools.Trace
module Obs = Core.Prelude.Obs
module D = Core.Decay

let shape seed =
  { Loadgen.seed; requests = 4000; spaces = 300; nodes = 32; zipf_s = 1.1 }

let window = 32

(* What one closed-loop pass saw: per-request send and reply times and
   reply lines, plus the batch boundaries the io record exposes — the
   first reply of each batch (after its group-commit fsync) and the
   flush after its last reply. *)
type pass = {
  sent : float array;
  got : float array;
  replies : string array;
  first_replies : float array;
  flushes : float array;
  wall_s : float;
}

let drive server lines lo hi =
  let n = hi - lo in
  let sent = Array.make n 0. and got = Array.make n 0. in
  let replies = Array.make n "" in
  let next = ref lo and inflight = ref 0 in
  let firsts = ref [] and flushes = ref [] and fresh = ref true in
  let read ~block:_ =
    if !next >= hi then if !inflight = 0 then `Eof else `Nothing
    else if !inflight >= window then `Nothing
    else begin
      let i = !next - lo in
      incr next;
      incr inflight;
      sent.(i) <- Obs.now_s ();
      `Req
        ( lines.(lo + i),
          fun line ->
            let t = Obs.now_s () in
            if !fresh then begin
              firsts := t :: !firsts;
              fresh := false
            end;
            got.(i) <- t;
            replies.(i) <- line;
            decr inflight )
    end
  in
  let flush () =
    flushes := Obs.now_s () :: !flushes;
    fresh := true
  in
  let t0 = Obs.now_s () in
  ignore (Server.run_loop server { Server.read; flush });
  {
    sent;
    got;
    replies;
    first_replies = Array.of_list (List.rev !firsts);
    flushes = Array.of_list (List.rev !flushes);
    wall_s = Obs.now_s () -. t0;
  }

(* ------------------------------------------------------------ a round *)

type round = { setup_s : float; passes : pass list }

let round ~dir ~ctx ~lines r =
  D.Metricity.clear_caches ();
  D.Fading.clear_caches ();
  let rdir = Filename.concat dir (Printf.sprintf "store-%d" r) in
  Sys.mkdir rdir 0o755;
  let path = Filename.concat rdir "results.jsonl" in
  let setup = ref 0. in
  let timed f =
    let t = Obs.now_s () in
    let v = f () in
    setup := !setup +. (Obs.now_s () -. t);
    v
  in
  let start () =
    let store =
      timed (fun () -> Bench.stage "store.open" (fun () -> Store.open_ ~path ()))
    in
    let server =
      timed (fun () ->
          Bench.stage "server.create" (fun () ->
              Server.create { Server.default_config with ctx; store = Some store }))
    in
    (store, server)
  in
  let half = Array.length lines / 2 in
  let store, server = start () in
  let p1 = Bench.stage "server.run_loop" (fun () -> drive server lines 0 half) in
  (* The restart: both opens, both creates and this close are set-up. *)
  timed (fun () -> Bench.stage "store.close" (fun () -> Store.close store));
  let store, server = start () in
  let p2 =
    Bench.stage "server.run_loop" (fun () ->
        drive server lines half (Array.length lines))
  in
  Bench.stage "store.close" (fun () -> Store.close store);
  Bench.rm_rf rdir;
  { setup_s = !setup; passes = [ p1; p2 ] }

(* ------------------------------------------------------- correctness *)

(* The server's result object for [op], recomputed by a direct call to
   the kernel layer. *)
let expected ~ctx op space =
  let wj (w : D.Metricity.witness) =
    J.Obj
      [ ("x", J.Num (float_of_int w.x)); ("y", J.Num (float_of_int w.y));
        ("z", J.Num (float_of_int w.z)) ]
  in
  match op with
  | P.Zeta ->
      let w = D.Metricity.zeta_witness ~ctx space in
      J.Obj [ ("zeta", J.Num w.value); ("witness", wj w) ]
  | P.Phi ->
      let w = D.Metricity.phi_witness ~ctx space in
      J.Obj [ ("phi", J.Num w.value); ("witness", wj w) ]
  | P.Gamma r ->
      J.Obj [ ("gamma", J.Num (D.Fading.gamma ~ctx space ~r)); ("r", J.Num r) ]
  | P.Summarize ->
      let s = D.Statistics.summarize ~ctx space in
      J.Obj
        [ ("n", J.Num (float_of_int s.n)); ("min_db", J.Num s.min_db);
          ("max_db", J.Num s.max_db); ("median_db", J.Num s.median_db);
          ("dynamic_range_db", J.Num s.dynamic_range_db);
          ("asymmetry_db", J.Num s.asymmetry_db) ]
  | P.Estimate { nodes; replicates; seed } ->
      let e =
        D.Estimators.zeta ~ctx ~replicates ~nodes (Core.Prelude.Rng.create seed)
          (D.Estimators.of_space space)
      in
      J.Obj
        [ ("zeta_lower", J.Num e.point); ("hi", J.Num e.hi);
          ("confidence", J.Num e.confidence) ]
  | P.Ping | P.Metrics -> J.Null

(* Structural equality with floats compared bit for bit. *)
let rec same a b =
  match (a, b) with
  | J.Num x, J.Num y -> Stats.bits_equal x y
  | J.Obj xs, J.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (k', y) -> k = k' && same x y) xs ys
  | J.Arr xs, J.Arr ys -> List.length xs = List.length ys && List.for_all2 same xs ys
  | a, b -> a = b

(* Distinct (space, op) keys of a trace, each with its space built once,
   and one uncached reference answer per key. *)
type refs = {
  keys : (string, P.op * D.Decay_space.t) Hashtbl.t;
  answers : (string, J.t) Hashtbl.t;
}

let key_of (r : P.request) =
  match r.space with
  | Some (P.Inline (name, _)) -> name ^ "/" ^ P.op_key r.op
  | _ -> invalid_arg "serve_zipf: trace requests carry inline spaces"

let refs_of reqs =
  let spaces = Hashtbl.create 512 and keys = Hashtbl.create 1024 in
  Array.iter
    (fun (r : P.request) ->
      match r.space with
      | Some (P.Inline (name, rows)) ->
          let space =
            match Hashtbl.find_opt spaces name with
            | Some s -> s
            | None ->
                let s = D.Decay_space.of_matrix ~name rows in
                Hashtbl.replace spaces name s;
                s
          in
          Hashtbl.replace keys (key_of r) (r.op, space)
      | _ -> ())
    reqs;
  { keys; answers = Hashtbl.create 1024 }

let reference ~ctx refs r =
  let key = key_of r in
  match Hashtbl.find_opt refs.answers key with
  | Some v -> v
  | None ->
      let op, space = Hashtbl.find refs.keys key in
      let v = expected ~ctx op space in
      Hashtbl.replace refs.answers key v;
      v

(* Failed answers in a pass: anything but an exact [ok] answer, under
   the id that was asked, equal to the reference. *)
let check ~ctx refs reqs lo (p : pass) =
  let failed = ref 0 in
  Array.iteri
    (fun i line ->
      let req = reqs.(lo + i) in
      match P.response_of_string line with
      | Ok (P.Done { id; result; degraded = false; _ })
        when id = req.P.id && same result (reference ~ctx refs req) -> ()
      | _ -> incr failed)
    p.replies;
  !failed

(* ---------------------------------------------------------- the ledger *)

let layer_of_op = function
  | "zeta" | "phi" -> "metricity.kernel"
  | "gamma" -> "fading.kernel"
  | "summarize" -> "statistics.kernel"
  | _ -> "estimators.kernel"

(* A run_loop pass cut at the boundaries it stamps: the drain (reads and
   Protocol parsing) up to each serve.batch span; the batch itself, split
   into kernel compute (the union of its serve.kernel intervals, charged
   to layers pro rata by op) and Server's own time; the group-commit
   fsync up to the batch's first reply (which also encodes that reply);
   the remaining encodes and replies up to the flush; and after the last
   batch the exit flush and store snapshot.  The pieces telescope, so
   they sum to the pass span exactly.  Per-batch fsync samples are
   pushed onto [syncs]. *)
let pass_stages spans (p : pass) (s : Trace.span) ~syncs =
  let lo, hi = Bench.interval s in
  let inside (x : Trace.span) = x.start_s >= lo && x.start_s <= hi in
  let batches =
    List.filter
      (fun (x : Trace.span) ->
        x.name = "serve.batch" && x.domain = s.domain && inside x)
      spans
    |> List.sort Bench.by_start |> Array.of_list
  in
  let kernels =
    List.filter_map
      (fun (x : Trace.span) ->
        if x.name = "serve.kernel" && inside x then
          Some (Bench.interval x, Option.value (Trace.attr_str x "op") ~default:"?")
        else None)
      spans
    |> List.sort_uniq compare
  in
  let nb = Array.length batches in
  if Array.length p.first_replies <> nb || Array.length p.flushes <> nb + 1 then
    failwith "serve_zipf: batch boundaries do not match the trace";
  let acc = ref [] in
  let add name total program =
    acc := { Stats.name; total_s = total; program_s = program } :: !acc
  in
  let prev = ref lo in
  Array.iteri
    (fun k (b : Trace.span) ->
      let bl, bh = Bench.interval b in
      add "protocol.parse" (bl -. !prev) 0.;
      let mine =
        List.concat_map
          (fun (iv, op) -> List.map (fun c -> (c, op)) (Stats.clip (bl, bh) [ iv ]))
          kernels
      in
      let compute = Stats.union_length (List.map fst mine) in
      let busy = List.fold_left (fun a ((x, y), _) -> a +. (y -. x)) 0. mine in
      List.iter
        (fun ((x, y), op) ->
          let t = compute *. (y -. x) /. busy in
          add (layer_of_op op) t t)
        mine;
      add "server.batch" (b.dur_s -. compute) (b.dur_s -. compute);
      let sync = p.first_replies.(k) -. bh in
      syncs := sync :: !syncs;
      add "store.sync" sync 0.;
      add "protocol.encode" (p.flushes.(k) -. p.first_replies.(k)) 0.;
      prev := p.flushes.(k))
    batches;
  add "store.flush" (hi -. !prev) 0.;
  List.rev !acc

(* ----------------------------------------------------------------- run *)

type measured = {
  rounds : round list;
  lat : float array;  (** client-side send to reply, every request *)
  wall_s : float;  (** summed run_loop time *)
  failed : int;
}

let measure ~dir ~ctx ~refs ~rctx ~reqs ~lines ~first seconds =
  let rounds = ref [] and failed = ref 0 in
  let half = Array.length lines / 2 in
  Bench.for_seconds seconds (fun i ->
      let r = round ~dir ~ctx ~lines (first + i) in
      (match r.passes with
      | [ p1; p2 ] ->
          failed :=
            !failed
            + Bench.stage "check.reference" (fun () ->
                  check ~ctx:rctx refs reqs 0 p1 + check ~ctx:rctx refs reqs half p2)
      | _ -> ());
      rounds := r :: !rounds);
  let rounds = List.rev !rounds in
  let passes = List.concat_map (fun r -> r.passes) rounds in
  let lat =
    Array.concat
      (List.map (fun p -> Array.mapi (fun i g -> g -. p.sent.(i)) p.got) passes)
  in
  {
    rounds;
    lat;
    wall_s = List.fold_left (fun a (p : pass) -> a +. p.wall_s) 0. passes;
    failed = !failed;
  }

(* jobs=1 against jobs=nproc over the trace's distinct zeta/phi/gamma
   sweeps, untraced: the answers must agree bit for bit, and the time
   ratio is the parallel speedup. *)
let jobs_check refs nproc =
  let sweeps =
    Hashtbl.fold
      (fun _ (op, space) acc ->
        match op with P.Zeta | P.Phi | P.Gamma _ -> (op, space) :: acc | _ -> acc)
      refs.keys []
  in
  let time jobs =
    let ctx = { D.Ctx.uncached with jobs = Some jobs } in
    let t0 = Obs.now_s () in
    let out = List.map (fun (op, space) -> expected ~ctx op space) sweeps in
    (Obs.now_s () -. t0, out)
  in
  let t1, o1 = time 1 in
  let tn, on = time nproc in
  (t1 /. tn, List.length (List.filter not (List.map2 same o1 on)))

let run ~seed ~seconds ~traced ~dir =
  let nproc = Core.Prelude.Parallel.auto_jobs () in
  let ctx = D.Ctx.make ~jobs:nproc () in
  let rctx = { D.Ctx.uncached with jobs = Some nproc } in
  let reqs = Array.of_list (Loadgen.generate (shape seed)) in
  let lines = Array.map P.request_to_string reqs in
  let refs = refs_of reqs in
  let measure = measure ~dir ~ctx ~refs ~rctx ~reqs ~lines in
  let attempted m = Array.length m.lat in
  let report m =
    let p50 = Stats.percentile m.lat 0.5 and p99 = Stats.percentile m.lat 0.99 in
    let rps = float_of_int (attempted m) /. m.wall_s in
    Printf.printf "serve_zipf: %d rounds x %d requests, closed loop, %d in flight\n"
      (List.length m.rounds) (Array.length lines) window;
    Printf.printf "  throughput_rps %.2f req/s\n" rps;
    Printf.printf "  latency_p50_s %s\n  latency_p99_s %s%s\n" (Stats.pct_label p50)
      (Stats.pct_label p99)
      (if Stats.reportable p99 then "" else "  [fewer than 10 samples beyond]");
    Printf.printf "  failed_frac %.6f (%d / %d)\n"
      (float_of_int m.failed /. float_of_int (attempted m))
      m.failed (attempted m);
    (rps, p50, p99)
  in
  if not traced then begin
    let m = measure ~first:0 seconds in
    let rps, p50, p99 = report m in
    let setups = Array.of_list (List.map (fun r -> r.setup_s) m.rounds) in
    let setup = Stats.median setups in
    Printf.printf "  setup_s %.6f s (median of %d restarts)\n" setup (Array.length setups);
    {
      Bench.attempted = attempted m;
      failed = m.failed;
      metrics =
        [ Bench.metric "op_p50_s" "s" p50.value; Bench.metric "op_tail_s" "s" p99.value;
          Bench.metric "ops_per_s" "1/s" rps;
          Bench.metric "setup_s" "s" setup ];
    }
  end
  else begin
    (* The trace holds a few spans per request, so the traced part is
       kept short enough to load back quickly; the untraced baseline it
       is compared with takes the rest of the time. *)
    let part = Float.min 6. (seconds /. 2.) in
    let base = measure ~first:0 (seconds -. part) in
    let m, t =
      Bench.traced ~path:(Filename.concat dir "trace.jsonl") (fun () ->
          measure ~first:1000 part)
    in
    let speedup, bad = jobs_check refs nproc in
    let m = { m with failed = m.failed + bad } in
    ignore (report m);
    let syncs = ref [] in
    let passes = ref (List.concat_map (fun r -> r.passes) m.rounds) in
    let expand (s : Trace.span) =
      if s.name = "bench.server.run_loop" then (
        match !passes with
        | p :: rest ->
            passes := rest;
            Some (pass_stages t.spans p s ~syncs)
        | [] -> failwith "serve_zipf: more run_loop spans than passes")
      else None
    in
    let l = Bench.ledger ~expand t in
    let overhead = 100. *. ((Stats.median m.lat /. Stats.median base.lat) -. 1.) in
    Stats.print_ledger ~title:"serve_zipf" ~overhead_pct:overhead l;
    let syncs = Array.of_list !syncs in
    let c name = float_of_int (Stats.counter t.delta name) in
    let hits = c "memo.store.hits" and misses = c "memo.store.misses" in
    let compute =
      List.fold_left
        (fun a (s : Stats.stage) ->
          if String.ends_with ~suffix:".kernel" s.name then a +. s.total_s else a)
        0. l.stages
    in
    Printf.printf "  server.compute_s %.6f s (the kernel stages inside batches)\n" compute;
    Printf.printf "  store.sync_s per batch: %s; %s\n"
      (Stats.pct_label (Stats.percentile syncs 0.5))
      (Stats.pct_label (Stats.tail syncs));
    Printf.printf "  latency p99: client %.6f s, server serve.latency_s %.6f s (log2 buckets)\n"
      (Stats.percentile m.lat 0.99).value
      (Stats.hist_quantile t.delta "serve.latency_s" 0.99);
    Printf.printf "  server.queue_wait_p50_s %.6f s (log2 buckets)\n"
      (Stats.hist_quantile t.delta "serve.queue_wait_s" 0.5);
    Bench.print_queue_wait t;
    Printf.printf "  parallel.speedup %.3f (jobs=1 over jobs=%d on the trace's sweeps)\n"
      speedup nproc;
    Bench.print_ratio "store.hit_rate (hits / lookups)" (hits, hits +. misses);
    Bench.print_ratio "kernel.pruned_fraction (pruned / triples)"
      (Bench.pruning (Bench.named t.spans "zeta_sweep" @ Bench.named t.spans "phi_sweep"));
    {
      Bench.attempted = attempted m;
      failed = m.failed;
      metrics =
        Bench.common t ~ops:(attempted m) ~ledger:l ~overhead_pct:overhead ~speedup
        @ [ Bench.metric "protocol.request_bytes" "B"
              (Array.fold_left (fun a l -> a +. float_of_int (String.length l)) 0. lines
              /. float_of_int (Array.length lines));
            Bench.metric "server.batch_fill" "count" (Stats.hist_mean t.delta "serve.batch_fill");
            Bench.metric "server.computed" "count" (c "serve.computed");
            Bench.metric "server.coalesced" "count" (c "serve.coalesced");
            Bench.metric "store.hit_rate" "1" (Bench.ratio (hits, hits +. misses));
            Bench.metric "store.lookups" "count" (hits +. misses);
            Bench.metric "store.wal_appends" "count" (c "store.wal_appends");
            Bench.metric "store.wal_syncs" "count" (c "store.wal_syncs") ];
    }
  end
