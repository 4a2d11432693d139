(* Wall-clock best-of-N timing, shared by the kernel bench and the
   perf-regression suite behind the `bg bench` subcommand.  Best-of (not
   mean) because the quantity tracked across PRs is the code's floor,
   not the machine's jitter. *)

let time_best ~reps f =
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let v = f () in
    let dt = Unix.gettimeofday () -. t0 in
    last := Some v;
    if dt < !best then best := dt
  done;
  (Option.get !last, !best)

(* Per-call cost, in nanoseconds, of a thunk cheap enough to need many
   iterations per clock read. *)
let per_call_ns ~iters f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  dt /. float_of_int iters *. 1e9
