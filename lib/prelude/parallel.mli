(** A supervised fixed-size domain pool and deterministic chunked
    map-reduce.

    The O(n^3) parameter sweeps of the decay layer (metricity, the relaxed
    triangle constant, the fading parameter) are embarrassingly parallel in
    their outer loop.  This module provides the shared substrate: a pool of
    worker domains spawned {e once} and reused across calls (domain spawn
    costs milliseconds — far more than a typical chunk), plus
    {!map_reduce_chunks}, which splits an index range into contiguous
    chunks, maps them (in parallel when a pool has workers) and combines
    the partial results {e in chunk order}.

    {b Determinism.}  Chunks are contiguous, ordered sub-ranges of
    [\[lo, hi)], and [combine] is folded left-to-right over the chunk
    results.  A consumer whose [combine] is associative over its chunked
    fold — e.g. "keep the maximum, ties broken by first occurrence", which
    the metricity witnesses use — therefore returns bit-for-bit the same
    value at every [jobs] count.  [jobs] controls work splitting only,
    never the result.

    {b Fault tolerance.}  A raising task cancels the rest of its batch
    (queued-but-unstarted tasks are skipped) and the first recorded
    exception re-raises in the caller with its original backtrace — a
    crash is never swallowed and never hangs the sweep.  Worker domains
    survive rogue task exceptions (recorded, loop restarted) and any
    worker that does exit while the pool is open is respawned by {!heal},
    which every {!run} performs first.  Wall-clock budgets are cooperative:
    the ambient {!with_deadline} bound, the one deadline mechanism, is
    checked at task and chunk boundaries and raises the typed
    {!Timeout}. *)

exception Timeout
(** Raised (in the caller) when a deadline-bounded batch exceeds its
    wall-clock budget.  See {!with_deadline}. *)

type t
(** A pool of worker domains plus the calling domain. *)

val create : ?num_domains:int -> unit -> t
(** [create ()] spawns [num_domains] worker domains (default
    [Domain.recommended_domain_count () - 1], clamped at 0).  With 0
    workers the pool is still usable: all work runs on the caller. *)

val num_domains : t -> int
(** Worker domains the pool is meant to keep alive (the caller is not
    counted); [0] after {!shutdown}. *)

val num_live : t -> int
(** Worker domains currently alive.  Equals {!num_domains} unless a worker
    died and {!heal} has not yet run. *)

val trapped_exceptions : t -> int
(** Exceptions that escaped a task into a worker's own loop (a rogue
    direct queue user, an asynchronous exception) since the pool was
    created.  Tasks submitted through {!run} capture their exceptions, so
    this stays [0] in normal operation; a nonzero value means a worker
    self-healed. *)

val heal : t -> unit
(** Respawn any worker domains that have exited while the pool is open,
    restoring {!num_live} to {!num_domains}.  Called automatically at the
    start of every {!run}; exposed for tests and long-lived servers.
    No-op on a closed or fully healthy pool. *)

val worker_task_counts : t -> (int * int) list
(** Per-domain task execution counts for this pool, as
    [(domain_id, tasks_run)] pairs sorted by domain id.  The calling
    domain appears too when it drained queued tasks itself.

    The pool also publishes process-wide metrics into the {!Obs}
    registry: [parallel.worker_tasks], [parallel.caller_tasks],
    [parallel.heal_events], [parallel.trapped_exceptions],
    [parallel.timeouts] (counters) and [parallel.queue_wait_s]
    (histogram of enqueue-to-start latency). *)

val shutdown : t -> unit
(** Terminate and join the pool's workers.  Idempotent.  Pending tasks are
    drained before workers exit. *)

val get_default : unit -> t
(** The global shared pool, created on first use with the default size.
    Library entry points taking [?pool] fall back to this. *)

val auto_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the natural [jobs] value for
    "use the whole machine". *)

val default_jobs : unit -> int
(** The ambient job count used when an optional [?jobs] argument is
    omitted.  Starts at 1 (fully sequential) so nothing parallelizes
    behind a caller's back. *)

val set_default_jobs : int -> unit
(** Set the ambient job count (clamped to >= 1).  The [bg --jobs] flag
    uses this so that deeply nested sweeps (e.g. inside experiments, which
    take no [jobs] argument) pick up the requested parallelism.  Results
    are unaffected by construction; only wall-clock time changes. *)

val resolve_jobs : int option -> int
(** [resolve_jobs (Some j)] is [max 1 j]; [resolve_jobs None] is
    {!default_jobs}[ ()].  The idiom for [?jobs] parameters. *)

val with_deadline : seconds:float -> (unit -> 'a) -> 'a
(** [with_deadline ~seconds f] runs [f] under an ambient wall-clock budget
    of [seconds]: every {!run} / {!map_reduce_chunks} reached from [f]
    (on any domain) polls the deadline at task/chunk boundaries and raises
    {!Timeout} once it has passed.  Nested budgets take the minimum (an
    inner call can only tighten).  The bound is cooperative — code that
    never reaches a checkpoint is not interrupted; long-running loops can
    poll explicitly with {!check_deadline}.  The previous ambient deadline
    is restored on exit, normal or exceptional. *)

val check_deadline : unit -> unit
(** Raise {!Timeout} if the ambient {!with_deadline} deadline has passed.
    The explicit polling point for long sequential loops. *)

val run : ?pool:t -> (unit -> 'a) array -> 'a array
(** Execute the thunks, possibly in parallel, and return their results in
    input order.  The caller participates in the work (so a 0-worker pool
    degrades to a plain sequential loop).  If any thunk raises, the first
    recorded exception cancels the batch's not-yet-started thunks and is
    re-raised in the caller with its original backtrace (with a
    sequential/1-job pool "first recorded" is exactly "lowest index").
    The ambient {!with_deadline} bound is checked before each thunk
    starts and surfaces as {!Timeout}. *)

val map_reduce_chunks :
  jobs:int ->
  lo:int ->
  hi:int ->
  neutral:'a ->
  map:(int -> int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  'a
(** [map_reduce_chunks ~jobs ~lo ~hi ~neutral ~map ~combine] splits
    [\[lo, hi)] into at most [jobs] contiguous chunks, evaluates
    [map chunk_lo chunk_hi] for each (in parallel when [jobs > 1] and the
    pool has workers) and folds [combine] over the results in ascending
    chunk order.  [neutral] is returned for an empty range.  With
    [jobs <= 1] and no active {!with_deadline} budget this is exactly
    [map lo hi] — no combine, no overhead; under a budget the sequential
    pass is sliced so the deadline is polled between slices (the
    combine-in-chunk-order contract keeps the result bit-identical).  A
    [map] that raises cancels the remaining chunks and re-raises in the
    caller; an exceeded budget raises {!Timeout}.  Parallel work always
    runs on the shared {!get_default} pool. *)

val map_reduce_stripes :
  jobs:int ->
  units:int ->
  neutral:'a ->
  map:(stripes:int -> int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  'a
(** [map_reduce_stripes ~jobs ~units ~neutral ~map ~combine] deals
    [units] units of work in interleaved stripes: unit [u] goes to stripe
    [u mod stripes], with [stripes = min jobs units].  [map ~stripes s]
    runs stripe [s] and owns its loop over the units [s], [s + stripes],
    ..., so it can thread state from one unit to the next.  Stripes run
    through {!map_reduce_chunks} and [combine] folds their results in
    stripe order; [neutral] is returned when [units <= 0].  Interleaving
    balances work that shrinks or grows along the range, such as the
    pairs right of a matrix diagonal, row by row. *)
