(* A fixed-size supervised domain pool.  Workers are spawned once and block
   on a condition variable between bursts of work; tasks are plain closures
   pulled from a shared queue.  The caller of [run] participates in the
   work, so a pool with zero workers (single-core machines) degrades to a
   sequential loop with no domain traffic at all.

   Fault tolerance: [run] captures the first exception a task raises
   (with its backtrace), flips a cancellation flag so queued-but-unstarted
   tasks of the same batch are skipped, and re-raises in the caller once
   the batch has drained.  A task exception never reaches a worker's own
   loop, but if one somehow does (a rogue direct [Queue] user, an
   asynchronous exception), the worker records it and restarts its loop
   instead of dying; as a second line of defence, [heal] — called on
   every [run] — respawns any worker domain that has actually exited
   while the pool is open.  Sweeps can also be bounded in wall-clock time:
   an ambient absolute deadline is checked at task and chunk boundaries
   and surfaces as the typed {!Timeout} exception. *)

exception Timeout

(* Pool metrics (process-wide, batch-granularity: a "task" here is a
   whole chunk of a sweep, so a couple of clock reads per task cost
   nothing against the chunk itself). *)
let m_worker_tasks = Obs.counter "parallel.worker_tasks"
let m_caller_tasks = Obs.counter "parallel.caller_tasks"
let m_heal_events = Obs.counter "parallel.heal_events"
let m_trapped = Obs.counter "parallel.trapped_exceptions"
let m_timeouts = Obs.counter "parallel.timeouts"
let m_queue_wait = Obs.histogram "parallel.queue_wait_s"

type t = {
  mutable domains : unit Domain.t array;
  mutable target : int; (* intended worker count while open *)
  alive : int Atomic.t; (* spawned workers that have not exited *)
  trapped : int Atomic.t; (* exceptions that escaped a task into a worker *)
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work_ready : Condition.t;
  task_tally : (int, int ref) Hashtbl.t; (* domain id -> tasks run; under lock *)
  mutable closed : bool;
}

(* Caller must hold [pool.lock]. *)
let bump_tally pool =
  let id = (Domain.self () :> int) in
  match Hashtbl.find_opt pool.task_tally id with
  | Some r -> incr r
  | None -> Hashtbl.replace pool.task_tally id (ref 1)

let worker_loop pool =
  let rec next () =
    match Queue.take_opt pool.queue with
    | Some task -> Some task
    | None ->
        if pool.closed then None
        else begin
          Condition.wait pool.work_ready pool.lock;
          next ()
        end
  in
  let rec loop () =
    Mutex.lock pool.lock;
    let task = next () in
    if task <> None then bump_tally pool;
    Mutex.unlock pool.lock;
    match task with
    | None -> ()
    | Some task ->
        Obs.incr m_worker_tasks;
        (* Tasks wrap their own exceptions; this safety net records a rogue
           task's escape instead of silently swallowing it, and the worker
           lives on. *)
        (try task () with
        | _ ->
            Atomic.incr pool.trapped;
            Obs.incr m_trapped);
        loop ()
  in
  loop ()

let spawn_worker pool =
  (* Count the worker alive from the moment it is requested so [heal]
     cannot over-spawn while a fresh domain is still starting up. *)
  Atomic.incr pool.alive;
  Domain.spawn (fun () ->
      Fun.protect
        ~finally:(fun () -> Atomic.decr pool.alive)
        (fun () ->
          (* Self-healing in place: if anything escapes the loop machinery
             itself, restart the loop rather than losing the domain. *)
          let rec go () =
            match worker_loop pool with
            | () -> ()
            | exception _ ->
                Atomic.incr pool.trapped;
                Obs.incr m_trapped;
                if not pool.closed then go ()
          in
          go ()))

let create ?num_domains () =
  let n =
    match num_domains with
    | Some n -> max 0 n
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let pool =
    {
      domains = [||];
      target = n;
      alive = Atomic.make 0;
      trapped = Atomic.make 0;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_ready = Condition.create ();
      task_tally = Hashtbl.create 16;
      closed = false;
    }
  in
  pool.domains <- Array.init n (fun _ -> spawn_worker pool);
  pool

let num_domains pool = pool.target
let num_live pool = Atomic.get pool.alive
let trapped_exceptions pool = Atomic.get pool.trapped

let heal pool =
  if (not pool.closed) && Atomic.get pool.alive < pool.target then begin
    Mutex.lock pool.lock;
    let missing = pool.target - Atomic.get pool.alive in
    if (not pool.closed) && missing > 0 then begin
      pool.domains <-
        Array.append pool.domains
          (Array.init missing (fun _ -> spawn_worker pool));
      Obs.add m_heal_events missing
    end;
    Mutex.unlock pool.lock
  end

let worker_task_counts pool =
  Mutex.lock pool.lock;
  let l = Hashtbl.fold (fun id r acc -> (id, !r) :: acc) pool.task_tally [] in
  Mutex.unlock pool.lock;
  List.sort (fun (a, _) (b, _) -> compare a b) l

let shutdown pool =
  Mutex.lock pool.lock;
  pool.closed <- true;
  pool.target <- 0;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.lock;
  (* A worker that died of a trapped asynchronous exception re-raises it
     on join; the failure is already recorded, so don't let it poison the
     shutdown path. *)
  Array.iter (fun d -> try Domain.join d with _ -> ()) pool.domains;
  pool.domains <- [||]

let default_pool = ref None

let get_default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let p = create () in
      default_pool := Some p;
      p

let auto_jobs () = Domain.recommended_domain_count ()

let ambient_jobs = ref 1
let default_jobs () = !ambient_jobs
let set_default_jobs j = ambient_jobs := max 1 j
let resolve_jobs = function Some j -> max 1 j | None -> default_jobs ()

(* ------------------------------------------------------------ deadlines *)

let now () = Unix.gettimeofday ()

(* The ambient deadline is global (not domain-local) on purpose: sweeps
   fan work out over worker domains, and every participant must observe
   the caller's budget.  Batches of deadline-bounded work run one at a
   time (the CLI, the experiment runner), so a single slot suffices. *)
let ambient_deadline : float option Atomic.t = Atomic.make None

let deadline_passed = function Some t -> now () > t | None -> false

let check_deadline () =
  if deadline_passed (Atomic.get ambient_deadline) then begin
    Obs.incr m_timeouts;
    raise Timeout
  end

let with_deadline ~seconds f =
  let saved = Atomic.get ambient_deadline in
  let t = now () +. Float.max 0. seconds in
  let t = match saved with Some s -> Float.min s t | None -> t in
  Atomic.set ambient_deadline (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set ambient_deadline saved) f

(* ----------------------------------------------------------------- run *)

let run ?pool fns =
  let n = Array.length fns in
  if n = 0 then [||]
  else begin
    let deadline = Atomic.get ambient_deadline in
    let pool = match pool with Some p -> p | None -> get_default () in
    heal pool;
    let results = Array.make n None in
    let pending = ref n in
    let done_lock = Mutex.create () in
    let done_cond = Condition.create () in
    (* First error wins: it cancels every not-yet-started task of this
       batch and is re-raised (with its backtrace) in the caller. *)
    let cancelled = Atomic.make false in
    let first_error = ref None in
    let record_error e bt =
      Mutex.lock done_lock;
      if !first_error = None then begin
        first_error := Some (e, bt);
        Atomic.set cancelled true;
        if e = Timeout then Obs.incr m_timeouts
      end;
      Mutex.unlock done_lock
    in
    (* Under profiling, each pool task gets its own span: tasks running
       in worker domains become root spans of that domain (the span's
       [domain] field plus its GC deltas expose per-worker allocation
       skew), while caller-run tasks nest under the sweep's span.  Gated
       on profiling — plain tracing keeps the established trace shape. *)
    let in_task_span i body =
      if Obs.tracing () && Obs.profiling () then
        Obs.with_span ~attrs:[ ("index", Obs.I i) ] "parallel.task" body
      else body ()
    in
    let task i () =
      if not (Atomic.get cancelled) then
        if deadline_passed deadline then
          record_error Timeout (Printexc.get_callstack 0)
        else begin
          match fns.(i) () with
          | v -> results.(i) <- Some v
          | exception e -> record_error e (Printexc.get_raw_backtrace ())
        end;
      Mutex.lock done_lock;
      decr pending;
      if !pending = 0 then Condition.signal done_cond;
      Mutex.unlock done_lock
    in
    (* Hand tasks 1..n-1 to the pool; the caller runs task 0 itself and
       then helps drain the queue, so every task runs exactly once even
       with zero workers. *)
    if n > 1 then begin
      Mutex.lock pool.lock;
      let enqueued_at = now () in
      for i = 1 to n - 1 do
        Queue.add
          (fun () ->
            Obs.observe m_queue_wait (now () -. enqueued_at);
            in_task_span i (task i))
          pool.queue
      done;
      Condition.broadcast pool.work_ready;
      Mutex.unlock pool.lock
    end;
    Obs.incr m_caller_tasks;
    in_task_span 0 (task 0);
    let rec help () =
      Mutex.lock pool.lock;
      let t = Queue.take_opt pool.queue in
      if t <> None then bump_tally pool;
      Mutex.unlock pool.lock;
      match t with
      | Some t ->
          Obs.incr m_caller_tasks;
          t ();
          help ()
      | None -> ()
    in
    help ();
    Mutex.lock done_lock;
    while !pending > 0 do
      Condition.wait done_cond done_lock
    done;
    Mutex.unlock done_lock;
    match !first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map
          (function Some v -> v | None -> assert false)
          results
  end

let map_reduce_chunks ~jobs ~lo ~hi ~neutral ~map ~combine =
  if hi <= lo then neutral
  else begin
    (* The wall-clock bound is ambient ([with_deadline]): a [?deadline]
       argument here could never be erased (every parameter is labeled),
       so the budget travels out-of-band instead. *)
    let deadline = Atomic.get ambient_deadline in
    let check () = if deadline_passed deadline then raise Timeout in
    let len = hi - lo in
    let jobs = max 1 (min jobs len) in
    if jobs = 1 then
      match deadline with
      | None -> map lo hi
      | Some _ ->
          (* Sequential but deadline-bounded: slice the range so the
             deadline is polled between slices.  The slices are contiguous
             and combined left-to-right, so the result is bit-for-bit the
             one chunked consumers already guarantee at any jobs count. *)
          let slices = min len 16 in
          let size = (len + slices - 1) / slices in
          let acc = ref None in
          let clo = ref lo in
          while !clo < hi do
            check ();
            let chi = min hi (!clo + size) in
            let part = map !clo chi in
            (acc :=
               match !acc with
               | None -> Some part
               | Some a -> Some (combine a part));
            clo := chi
          done;
          (match !acc with Some a -> a | None -> neutral)
    else begin
      check ();
      let size = (len + jobs - 1) / jobs in
      let chunks = (len + size - 1) / size in
      let parts =
        run
          (Array.init chunks (fun k ->
               let clo = lo + (k * size) in
               let chi = min hi (clo + size) in
               fun () -> map clo chi))
      in
      (* Fold in ascending chunk order: ties in [combine] resolve exactly
         as they would in one left-to-right sequential pass. *)
      let acc = ref parts.(0) in
      for k = 1 to chunks - 1 do
        acc := combine !acc parts.(k)
      done;
      !acc
    end
  end
