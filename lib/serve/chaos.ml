(* Seeded fault injection at the serving layer's I/O and compute
   boundaries — the serving analogue of Bg_decay.Corrupt.

   A chaos spec names response-stream faults (torn / dropped / corrupted
   lines), per-request stalls, and one crash point with a countdown.
   All randomness flows through one SplitMix64 stream created from an
   explicit seed, drawn in a fixed order (one decision per response
   line, one per request), so equal (spec, seed) inject bit-identical
   fault schedules on every run — E30 and the chaos-smoke CI job replay
   the same failures deterministically.

   Torn writes are simulated at line granularity: the victim line's
   prefix is carried into the next delivery to the same target (the
   reply function it was torn from, compared physically), producing
   exactly the garbled merged line a real torn write followed by a fresh
   write produces on that byte stream.  The carry lives in the mangler,
   so every transport (stdio, socket, in-process) tears identically; a
   socket daemon's other connections never see the fragment. *)

module Rng = Core.Prelude.Rng
module Obs = Core.Prelude.Obs

type crash_point = Mid_batch | Pre_snapshot | Mid_snapshot

let crash_point_name = function
  | Mid_batch -> "mid-batch"
  | Pre_snapshot -> "pre-snapshot"
  | Mid_snapshot -> "mid-snapshot"

let crash_point_of_name = function
  | "mid-batch" -> Some Mid_batch
  | "pre-snapshot" -> Some Pre_snapshot
  | "mid-snapshot" -> Some Mid_snapshot
  | _ -> None

type spec = {
  torn : float;
  drop : float;
  corrupt : float;
  stall_prob : float;
  stall_s : float;
  crash : (crash_point * int) option;
}

let none =
  { torn = 0.; drop = 0.; corrupt = 0.; stall_prob = 0.; stall_s = 0.;
    crash = None }

exception Injected_crash of string

(* How a triggered crash manifests: [Sigkill] for real daemons (the
   process dies as if the machine lost power — no at_exit, no flush),
   [Raise] for in-process harnesses (the exception escapes the serve
   loop; tests catch it). *)
type action = Sigkill | Raise

(* ------------------------------------------------------------ spec text *)

let spec_to_string s =
  let parts = ref [] in
  let addf name v = if v > 0. then parts := Printf.sprintf "%s=%g" name v :: !parts in
  addf "torn" s.torn;
  addf "drop" s.drop;
  addf "corrupt" s.corrupt;
  if s.stall_prob > 0. then
    parts := Printf.sprintf "stall=%g:%g" s.stall_prob s.stall_s :: !parts;
  (match s.crash with
  | Some (p, n) ->
      parts := Printf.sprintf "crash=%s:%d" (crash_point_name p) n :: !parts
  | None -> ());
  match List.rev !parts with [] -> "none" | l -> String.concat "," l

let parse text =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let prob name v =
    match float_of_string_opt v with
    | Some p when p >= 0. && p <= 1. && Float.is_finite p -> Ok p
    | _ -> err "chaos: %s must be a probability in [0,1] (got %S)" name v
  in
  let parts =
    String.split_on_char ',' (String.trim text)
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then err "chaos: empty spec"
  else
    List.fold_left
      (fun acc part ->
        Result.bind acc (fun spec ->
            match String.index_opt part '=' with
            | None -> err "chaos: %S is not FAULT=VALUE" part
            | Some i ->
                let key = String.sub part 0 i in
                let v = String.sub part (i + 1) (String.length part - i - 1) in
                (match key with
                | "torn" -> Result.map (fun p -> { spec with torn = p }) (prob key v)
                | "drop" -> Result.map (fun p -> { spec with drop = p }) (prob key v)
                | "corrupt" ->
                    Result.map (fun p -> { spec with corrupt = p }) (prob key v)
                | "stall" -> (
                    match String.split_on_char ':' v with
                    | [ p; secs ] -> (
                        match (prob "stall" p, float_of_string_opt secs) with
                        | Ok p, Some s when s >= 0. && Float.is_finite s ->
                            Ok { spec with stall_prob = p; stall_s = s }
                        | (Error _ as e), _ -> e
                        | _ -> err "chaos: stall seconds must be >= 0 (got %S)" secs)
                    | _ -> err "chaos: stall wants PROB:SECONDS (got %S)" v)
                | "crash" -> (
                    match String.split_on_char ':' v with
                    | [ point; n ] -> (
                        match (crash_point_of_name point, int_of_string_opt n) with
                        | Some p, Some k when k >= 1 ->
                            Ok { spec with crash = Some (p, k) }
                        | None, _ ->
                            err
                              "chaos: crash point must be mid-batch | \
                               pre-snapshot | mid-snapshot (got %S)"
                              point
                        | _ -> err "chaos: crash count must be >= 1 (got %S)" n)
                    | _ -> err "chaos: crash wants POINT:N (got %S)" v)
                | other -> err "chaos: unknown fault %S" other)))
      (Ok none) parts

(* ---------------------------------------------------------------- state *)

type t = {
  spec : spec;
  action : action;
  rng : Rng.t;
  mutable carry : ((string -> unit) * string) option;
      (* a torn prefix and the target awaiting it *)
  mutable hits : (crash_point * int) list; (* arrivals per crash point *)
}

let c_torn = Obs.counter "chaos.torn"
let c_dropped = Obs.counter "chaos.dropped"
let c_corrupted = Obs.counter "chaos.corrupted"
let c_stalled = Obs.counter "chaos.stalled"
let c_crashes = Obs.counter "chaos.crashes"

let create ?(action = Sigkill) ~seed spec =
  { spec; action; rng = Rng.create seed; carry = None; hits = [] }

(* One decision per response line, in a fixed draw order (drop, torn,
   corrupt), so the fault schedule is independent of which faults are
   enabled downstream of the first hit. *)
let mangle t ~target line =
  let dropped = Rng.bernoulli t.rng t.spec.drop in
  let torn = Rng.bernoulli t.rng t.spec.torn in
  let corrupted = Rng.bernoulli t.rng t.spec.corrupt in
  if dropped then begin
    Obs.incr c_dropped;
    `Drop
  end
  else
    let line =
      (* A torn prefix pending for this target garbles this delivery,
         whatever else happens to it. *)
      match t.carry with
      | Some (owner, prefix) when owner == target ->
          t.carry <- None;
          prefix ^ line
      | _ -> line
    in
    if torn && String.length line > 1 then begin
      Obs.incr c_torn;
      let cut = 1 + Rng.int t.rng (String.length line - 1) in
      t.carry <- Some (target, String.sub line 0 cut);
      `Drop_keep_carry
    end
    else if corrupted && String.length line > 0 then begin
      Obs.incr c_corrupted;
      let b = Bytes.of_string line in
      (* Flip a handful of bytes to printable garbage; never a newline,
         so line framing survives and the damage lands in one payload. *)
      let flips = 1 + Rng.int t.rng 4 in
      for _ = 1 to flips do
        Bytes.set b (Rng.int t.rng (Bytes.length b))
          (Char.chr (33 + Rng.int t.rng 94))
      done;
      `Deliver (Bytes.to_string b)
    end
    else `Deliver line

let stall t =
  if t.spec.stall_prob > 0. && Rng.bernoulli t.rng t.spec.stall_prob then begin
    Obs.incr c_stalled;
    if t.spec.stall_s > 0. then Unix.sleepf t.spec.stall_s
  end

let at t point =
  match t.spec.crash with
  | Some (p, n) when p = point ->
      let seen = try List.assoc point t.hits with Not_found -> 0 in
      let seen = seen + 1 in
      t.hits <- (point, seen) :: List.remove_assoc point t.hits;
      if seen = n then begin
        Obs.incr c_crashes;
        match t.action with
        | Raise -> raise (Injected_crash (crash_point_name point))
        | Sigkill ->
            (* Die like a power cut: no at_exit, no buffered flushes.
               Prefer SIGKILL so not even a signal handler runs. *)
            Unix.kill (Unix.getpid ()) Sys.sigkill
      end
  | _ -> ()

let maybe_at t point = match t with None -> () | Some t -> at t point
