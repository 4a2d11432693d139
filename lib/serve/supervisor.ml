(* Daemon supervision for `bg serve --supervise`.

   The supervisor process owns the original stdio and simply respawns
   the worker (the same executable with the same arguments; the lineage
   variables below tell it that it is the worker) whenever it dies
   abnormally — killed by a signal (chaos SIGKILL, OOM) or a nonzero
   exit that isn't a usage error.  The worker inherits the
   supervisor's stdin/stdout directly, so across a restart clients keep
   talking to the same pipe: bytes the dead worker never read are still
   in the pipe for its successor, only the in-flight partial line and
   unanswered batch are lost — exactly what a retrying Client recovers.

   Restart pacing is capped exponential backoff (no jitter: one
   supervisor, nothing to de-synchronize), so a worker that dies at
   birth in a loop cannot spin the machine.  A clean exit (0) or a usage
   error (2) ends supervision — restarting a daemon that was told to
   stop, or one that can never start, helps nobody. *)

module Obs = Core.Prelude.Obs

let c_restarts = Obs.counter "supervisor.restarts"

type outcome = {
  restarts : int;
  final_status : Unix.process_status;
}

(* Worker lineage rides environment variables: each incarnation is told
   how many respawns preceded it, when supervision began, and how long
   its predecessors ran in total — so a ping answered by worker #3 can
   report the whole supervised history, not just its own uptime. *)
let lineage_env = "BG_SUPERVISE_RESTARTS"
let started_env = "BG_SUPERVISE_STARTED_S"
let prior_uptime_env = "BG_SUPERVISE_PRIOR_UPTIME_S"

let read_lineage () =
  match Sys.getenv_opt lineage_env with
  | None | Some "" -> None
  | Some restarts ->
      let float_env name =
        match Sys.getenv_opt name with
        | None -> 0.
        | Some s -> ( match float_of_string_opt s with Some f -> f | None -> 0.)
      in
      Some
        ( (match int_of_string_opt restarts with Some n -> max 0 n | None -> 0),
          float_env started_env,
          float_env prior_uptime_env )

(* OCaml signal numbers are internal (negative); name the common ones. *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" s

let status_line = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)

let max_restarts = 16
let backoff_base_s = 0.05
let backoff_cap_s = 2.

let run () =
  let child = ref None in
  (* Forward termination to the worker so `kill <supervisor>` stops the
     whole tree; the worker's own handlers then drain and flush. *)
  let forward signal_no =
    match !child with
    | Some pid -> ( try Unix.kill pid signal_no with Unix.Unix_error _ -> ())
    | None -> ()
  in
  let old_int =
    try Some (Sys.signal Sys.sigint (Sys.Signal_handle forward))
    with Invalid_argument _ -> None
  in
  let old_term =
    try Some (Sys.signal Sys.sigterm (Sys.Signal_handle forward))
    with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (Sys.set_signal Sys.sigint) old_int;
      Option.iter (Sys.set_signal Sys.sigterm) old_term)
    (fun () ->
      let supervise_started = Unix.gettimeofday () in
      let prior_uptime = ref 0. in
      let rec loop restarts =
        Unix.putenv lineage_env (string_of_int restarts);
        Unix.putenv started_env (Printf.sprintf "%.6f" supervise_started);
        Unix.putenv prior_uptime_env (Printf.sprintf "%.6f" !prior_uptime);
        let spawned_at = Unix.gettimeofday () in
        let pid =
          Unix.create_process Sys.executable_name Sys.argv Unix.stdin
            Unix.stdout Unix.stderr
        in
        child := Some pid;
        let rec wait () =
          match Unix.waitpid [] pid with
          | _, status -> status
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        in
        let status = wait () in
        prior_uptime := !prior_uptime +. (Unix.gettimeofday () -. spawned_at);
        child := None;
        match status with
        | Unix.WEXITED 0 | Unix.WEXITED 2 -> { restarts; final_status = status }
        | _ ->
            if restarts >= max_restarts then begin
              Printf.eprintf
                "bg serve: worker %s; restart limit (%d) reached, giving up\n%!"
                (status_line status) max_restarts;
              { restarts; final_status = status }
            end
            else begin
              let delay =
                Float.min backoff_cap_s
                  (backoff_base_s *. Float.of_int (1 lsl min restarts 20))
              in
              Printf.eprintf
                "bg serve: worker %s; restarting in %.2fs (restart %d/%d)\n%!"
                (status_line status) delay (restarts + 1) max_restarts;
              Obs.incr c_restarts;
              Unix.sleepf delay;
              loop (restarts + 1)
            end
      in
      loop 0)
