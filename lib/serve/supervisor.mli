(** Daemon supervision for [bg serve --supervise]: respawn a crashed
    worker with capped exponential backoff.

    The worker inherits the supervisor's stdin/stdout {e directly}, so a
    restart is invisible at the transport level: request bytes the dead
    worker never consumed are still in the pipe for its successor; only
    the in-flight partial line and the unanswered batch are lost — which
    is precisely what a retrying {!Client} recovers, and the WAL-backed
    {!Store} preserves everything already journaled.

    Supervision ends on a clean exit (0) or a usage error (2); any other
    exit, or death by signal (chaos [SIGKILL], OOM), restarts after a
    capped exponential delay.  SIGINT/SIGTERM at the supervisor are
    forwarded to the worker, whose own handlers drain and flush.
    Restarts are counted under [supervisor.restarts]. *)

type outcome = {
  restarts : int;  (** how many times the worker was respawned *)
  final_status : Unix.process_status;  (** the last worker's exit *)
}

(** {2 Worker lineage}

    Supervisor-side counters persist {e across} respawns by riding the
    worker's environment: before each spawn the supervisor exports how
    many restarts preceded this incarnation, the wall-clock instant
    supervision began, and the summed uptime of every dead predecessor.
    A worker folds these into {!Server.lineage} so every [ping] reply
    carries the whole supervised history. *)

val lineage_env : string
(** [BG_SUPERVISE_RESTARTS] — respawns before this worker (0 for the
    first). *)

val started_env : string
(** [BG_SUPERVISE_STARTED_S] — [Unix.gettimeofday] when supervision
    began. *)

val prior_uptime_env : string
(** [BG_SUPERVISE_PRIOR_UPTIME_S] — seconds of worker uptime accumulated
    by dead predecessors. *)

val read_lineage : unit -> (int * float * float) option
(** [(restarts, supervisor_started_s, prior_uptime_s)] from the
    environment; [None] when {!lineage_env} is unset or empty, i.e. when
    not running under a supervisor.  A process that reads [Some _] is a
    supervised worker.  Malformed values degrade to [0], never to an
    error. *)

val run : unit -> outcome
(** [run ()] re-executes [Sys.executable_name] with this process's own
    arguments ([Sys.argv]) and inherited stdio, and supervises it: at
    most 16 restarts, 50 ms base delay doubling to a 2 s cap.  The child
    learns that it is the worker from the exported {!lineage_env}. *)
