module Ctx = Core.Decay.Ctx
module T = Core.Prelude.Table
module Obs = Core.Prelude.Obs
module P = Bg_serve.Protocol
module Server = Bg_serve.Server
module Store = Bg_serve.Store
module Chaos = Bg_serve.Chaos
module Client = Bg_serve.Client
module L = Bg_serve.Loadgen
module Slo = Bg_serve.Slo

(* E30 — resilient serving under injected faults: a seeded zipf workload
   driven through the chaos harness (dropped, torn and corrupted reply
   lines, plus a mid-batch crash) with a retrying client and a
   WAL-backed store.  The claims:

   - exactly one answer per request id, however many wire attempts the
     faults force;
   - the injected crash loses at most the in-flight batch: reopening the
     store recovers every journaled entry, and a warm re-drive recomputes
     nothing;
   - no corrupt payload survives into the durable answers — every cached
     result equals the direct computation, bit for bit.

   Everything flows from two integers (workload seed, chaos seed): which
   reply lines are dropped, torn or corrupted, and at which byte offsets,
   replays exactly.  The table's retries and corrupt columns still vary
   by a line or two between runs of one binary (43-46 retries and 14-17
   corrupt lines seen): every reply prints two wall-clock fields,
   queue_wait_s and elapsed_s, whose printed length moves the bytes that
   land at those offsets, and whether a mangled line still parses
   decides a retry.  With both fields forced to 0 the counts repeat
   exactly.  The verdict never reads these two columns. *)

let rm_f p = try Sys.remove p with Sys_error _ -> ()

let with_temp_store f =
  let dir = Filename.temp_file "bg_e30" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "store.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      rm_f path;
      rm_f (path ^ ".wal");
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f path)

let workload =
  { L.seed = 30; requests = 160; spaces = 20; nodes = 10; zipf_s = 1.1 }

let chaos_seed = 3003

let faulty_spec =
  {
    Chaos.none with
    Chaos.drop = 0.08;
    torn = 0.05;
    corrupt = 0.05;
    crash = Some (Chaos.Mid_batch, 4);
  }

let engine ?chaos ?store () =
  Server.create
    {
      Server.ctx = Ctx.make ~jobs:1 ();
      batch_size = 16;
      max_queue = 256;
      request_timeout_s = None;
      store;
      degrade = None;
      chaos;
      slo = None;
      telemetry = None;
      lineage = None;
    }

(* No deadline: the in-process driver detects lost replies at batch
   boundaries, not by clock.  The budget must outlast an ~18% per-attempt
   fault rate. *)
let client () =
  Client.create
    ~config:
      { Client.default_config with Client.deadline_s = None; max_retries = 10 }
    ~seed:77 ()

let answer_of eng r =
  match Server.process_batch eng [ (r, Obs.now_s ()) ] with
  | [ P.Done { result; cache; _ } ] -> Some (result, cache)
  | _ -> None

let e30_resilient_serving () =
  with_temp_store @@ fun path ->
  let reqs = L.generate workload in
  let t =
    T.create ~title:"E30  resilient serving: seeded chaos, crash, recovery"
      [ "phase"; "sent"; "answered"; "ok"; "retries"; "corrupt"; "note" ]
  in
  let row phase (r : L.report) note =
    T.add_row t
      [ T.S phase; T.I r.L.sent; T.I r.L.answered; T.I r.L.ok;
        T.I r.L.retries; T.I r.L.corrupt_lines; T.S note ]
  in
  (* Phase 1 — chaotic serve until the injected mid-batch crash.  The
     store is abandoned without flush or close: a power cut, so only
     group-committed (fsync'd) journal entries survive. *)
  let chaos1 = Chaos.create ~action:Chaos.Raise ~seed:chaos_seed faulty_spec in
  let store1 = Store.open_ ~path ~flush_every:1_000_000 () in
  let crashed =
    match
      L.drive_inproc ~window:16 ~client:(client ())
        (engine ~chaos:chaos1 ~store:store1 ())
        reqs
    with
    | (_ : L.report) -> false
    | exception Chaos.Injected_crash _ -> true
  in
  T.add_row t
    [ T.S "crash"; T.S "-"; T.S "-"; T.S "-"; T.S "-"; T.S "-";
      T.S (if crashed then "injected mid-batch crash fired" else "NO CRASH") ];
  (* Phase 2 — reopen (journal replay) and re-drive the whole trace under
     the same wire faults, crash disarmed.  Retries must get every id
     answered exactly once. *)
  let store2 = Store.open_ ~path ~flush_every:1_000_000 () in
  let recovered = Store.wal_recovered store2 in
  let torn = Store.wal_torn store2 in
  let chaos2 =
    Chaos.create ~action:Chaos.Raise ~seed:(chaos_seed + 1)
      { faulty_spec with Chaos.crash = None }
  in
  let after =
    L.drive_inproc ~window:16 ~client:(client ())
      (engine ~chaos:chaos2 ~store:store2 ())
      reqs
  in
  Store.close store2;
  row "chaotic re-drive" after
    (Printf.sprintf "WAL: %d recovered, %d torn" recovered torn);
  (* Phase 3 — warm, fault-free re-drive: everything must come from the
     recovered cache. *)
  let store3 = Store.open_ ~path () in
  let warm = L.drive_inproc ~window:16 (engine ~store:store3 ()) reqs in
  row "warm re-drive" warm
    (Printf.sprintf "hit rate %.3f, %d misses" (L.hit_rate warm) warm.L.misses);
  (* Ground truth — every distinct cached answer equals the direct
     computation: chaos mangled wires, never the durable results. *)
  let distinct =
    List.rev
      (List.fold_left
         (fun acc r ->
           let key =
             match r.P.space with
             | Some (P.Inline (name, _)) -> name ^ "/" ^ P.op_key r.P.op
             | _ -> assert false
           in
           if List.mem_assoc key acc then acc else (key, r) :: acc)
         [] reqs)
  in
  let warm_eng = engine ~store:store3 () in
  let clean_eng = engine () in
  let mismatches, uncached =
    List.fold_left
      (fun (bad, cold) (_, r) ->
        match (answer_of warm_eng r, answer_of clean_eng r) with
        | Some (cached, P.Hit), Some (direct, _) ->
            ((if cached = direct then bad else bad + 1), cold)
        | Some _, Some _ -> (bad, cold + 1)
        | _ -> (bad + 1, cold))
      (0, 0) distinct
  in
  Store.close store3;
  T.add_row t
    [ T.S "ground truth"; T.I (List.length distinct); T.S "-"; T.S "-";
      T.S "-"; T.S "-";
      T.S (Printf.sprintf "%d mismatches, %d uncached" mismatches uncached) ];
  (* SLO verdict over the chaotic re-drive.  The error objective is
     load-bearing (chaos may slow requests with retries but must not
     fail them); the latency burn is recorded for the table but kept out
     of the pass criterion — wall-clock on a loaded CI box is not a
     claim of the paper. *)
  let slo_statuses =
    match Slo.parse_spec "err<=1%,p99<=1.0" with
    | Ok spec -> Slo.eval_samples spec after.L.slo_samples
    | Error m -> invalid_arg m
  in
  let slo_note =
    String.concat ", "
      (List.map
         (fun st ->
           Printf.sprintf "%s burn %.2f %s"
             (Slo.objective_name st.Slo.objective)
             st.Slo.window_burn
             (if st.Slo.healthy then "ok" else "VIOLATED"))
         slo_statuses)
  in
  let err_healthy =
    List.for_all
      (fun st ->
        match st.Slo.objective with
        | Slo.Error_rate _ -> st.Slo.healthy
        | Slo.Latency _ -> true)
      slo_statuses
  in
  T.add_row t
    [ T.S "slo verdict"; T.I after.L.sent; T.S "-"; T.S "-"; T.S "-"; T.S "-";
      T.S slo_note ];
  T.print t;
  let exactly_once =
    after.L.answered = after.L.sent && after.L.ok = after.L.sent
    && after.L.gave_up = 0
  in
  let pass =
    crashed && recovered > 0 && exactly_once && warm.L.misses = 0
    && L.hit_rate warm >= 0.5
    && mismatches = 0 && uncached = 0 && err_healthy
  in
  Outcome.make ~measured:(L.hit_rate warm) ~bound:0.5
    ~detail:
      (Printf.sprintf
         "crash=%b wal_recovered=%d exactly_once=%b retries=%d corrupt=%d \
          warm_misses=%d mismatches=%d slo=[%s]"
         crashed recovered exactly_once after.L.retries after.L.corrupt_lines
         warm.L.misses mismatches slo_note)
    pass
