(* A decay space stored as an unboxed row-major [Bigarray.Array1] of
   float64 ([f(p,q)] at index [p*n + q]), plus lazily built companion
   buffers that the O(n^3) analysis kernels stream over:

   - [logs]:      natural log of every decay (diagonal: [neg_infinity]),
                  so the metricity bisection never calls [log] per triple;
   - [trans]:     the transpose, so the inner z-loop of a triple sweep
                  reads [f(z,y)] as a sequential row instead of striding
                  [n] floats per step;
   - [log_trans]: the transpose of [logs];
   - [key]:       a content digest (MD5 over the raw float bytes) keying
                  the serve store: equal matrices — regardless of name —
                  share stored zeta/phi/gamma answers.

   Bigarray storage buys three things over the previous [float array]:
   the data is unboxed and GC-opaque (no marking cost on multi-GB
   matrices), it can be memory-mapped straight off disk for out-of-core
   spaces ({!of_bigarray} / [Decay_io.load_raw_mmap]), and the kernels
   read it through the abstract {!Flat} views so no caller can ever
   depend on [float array] layout again.

   Each companion is built at most once.  Construction is race-free by
   construction: the slot is an [option Atomic.t] and builds are
   serialized by a per-space mutex with the classic double-checked
   pattern — readers take the fast path on [Atomic.get] (an acquire
   load, so a published buffer is fully visible), and at most one
   builder runs even when pool workers request a view concurrently.
   The flat buffer itself is never mutated after validation, which is
   what makes the digest stable and the views safe to hand out without
   copying. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let alloc len : buf = Bigarray.Array1.create Float64 C_layout len

type t = {
  n : int;
  flat : buf;
  name : string;
  logs : buf option Atomic.t;
  trans : buf option Atomic.t;
  log_trans : buf option Atomic.t;
  key : string option Atomic.t;
  build_lock : Mutex.t;
}

external ba_unsafe_get : buf -> int -> float = "%caml_ba_unsafe_ref_1"
external ba_unsafe_set : buf -> int -> float -> unit = "%caml_ba_unsafe_set_1"

(* Cell-level validation shares its diagnosis vocabulary (and exact
   messages) with [Validate], so an [of_matrix] failure and a
   [Validate.diagnose] report always agree down to the cell address. *)
let validate_buf name n (flat : buf) =
  let fail issue = invalid_arg (name ^ ": " ^ Validate.issue_to_string issue) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v = flat.{(i * n) + j} in
      if i = j then begin
        if v <> 0. then fail (Validate.Nonzero_diagonal { i; value = v })
      end
      else if not (Float.is_finite v) then
        fail (Validate.Not_finite { i; j; value = v })
      else if v <= 0. then fail (Validate.Non_positive { i; j; value = v })
    done
  done

let wrap name n flat =
  {
    n;
    flat;
    name;
    logs = Atomic.make None;
    trans = Atomic.make None;
    log_trans = Atomic.make None;
    key = Atomic.make None;
    build_lock = Mutex.create ();
  }

let make name n flat =
  validate_buf name n flat;
  wrap name n flat

let of_bigarray ?(name = "decay") ?(validate = true) n flat =
  if n < 0 then invalid_arg "Decay_space.of_bigarray: negative size";
  if Bigarray.Array1.dim flat <> n * n then
    invalid_arg
      (Printf.sprintf
         "Decay_space.of_bigarray: buffer has %d cells, expected %d (n = %d)"
         (Bigarray.Array1.dim flat) (n * n) n);
  if validate then validate_buf name n flat;
  wrap name n flat

let of_matrix ?(name = "decay") m =
  let n = Array.length m in
  Array.iteri
    (fun row r ->
      let got = Array.length r in
      if got <> n then
        invalid_arg
          (name ^ ": "
          ^ Validate.issue_to_string (Validate.Ragged { row; expected = n; got })
          ))
    m;
  let flat = alloc (n * n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      flat.{(i * n) + j} <- m.(i).(j)
    done
  done;
  make name n flat

let of_matrix_repaired ?(name = "decay") ~policy m =
  match Validate.repair ~policy m with
  | Error _ as e -> e
  | Ok (m', report) -> Ok (of_matrix ~name m', report)

let of_fn ?(name = "decay") n fn =
  let flat = alloc (max 0 (n * n)) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      flat.{(i * n) + j} <- (if i = j then 0. else fn i j)
    done
  done;
  make name n flat

let of_metric ?(name = "geo") ~alpha (m : Bg_geom.Metric.t) =
  if alpha <= 0. then invalid_arg "Decay_space.of_metric: alpha must be positive";
  of_fn ~name m.Bg_geom.Metric.n (fun i j -> m.Bg_geom.Metric.d.(i).(j) ** alpha)

let of_points ?(name = "plane") ~alpha points =
  of_metric ~name ~alpha (Bg_geom.Metric.of_points points)

let n d = d.n
let name d = d.name
let rename name d = { d with name }

let decay d p q =
  if p < 0 || p >= d.n || q < 0 || q >= d.n then
    invalid_arg "Decay_space.decay: node out of range";
  d.flat.{(p * d.n) + q}

let unsafe_get d p q = ba_unsafe_get d.flat ((p * d.n) + q)

let gain d p q =
  let f = decay d p q in
  if f = 0. then infinity else 1. /. f

let matrix d =
  Array.init d.n (fun i ->
      Array.init d.n (fun j -> ba_unsafe_get d.flat ((i * d.n) + j)))

(* ------------------------------------------------------- internal views *)

(* Double-checked build-once.  [Atomic.get]/[Atomic.set] are
   acquire/release, so a buffer observed through the fast path is fully
   constructed; the mutex makes "at most one build" a guarantee instead
   of a benign race.  Builders must not re-enter [once] on the same
   space (the lock is not reentrant) — dependent views force their
   prerequisites before calling [once]. *)
let once d cell build =
  match Atomic.get cell with
  | Some b -> b
  | None ->
      Mutex.protect d.build_lock (fun () ->
          match Atomic.get cell with
          | Some b -> b
          | None ->
              let b = build () in
              Atomic.set cell (Some b);
              b)

let logs_of (flat : buf) =
  let m = Bigarray.Array1.dim flat in
  let l = alloc m in
  for i = 0 to m - 1 do
    let v = ba_unsafe_get flat i in
    ba_unsafe_set l i (if v > 0. then log v else neg_infinity)
  done;
  l

(* Tiled transpose: process 32x32 blocks so both the source rows and the
   destination rows of a block stay cache-resident while it is turned. *)
let transpose_of n (src : buf) =
  let dst = alloc (Bigarray.Array1.dim src) in
  let b = 32 in
  let ib = ref 0 in
  while !ib < n do
    let i_hi = min n (!ib + b) in
    let jb = ref 0 in
    while !jb < n do
      let j_hi = min n (!jb + b) in
      for i = !ib to i_hi - 1 do
        for j = !jb to j_hi - 1 do
          ba_unsafe_set dst ((j * n) + i) (ba_unsafe_get src ((i * n) + j))
        done
      done;
      jb := !jb + b
    done;
    ib := !ib + b
  done;
  dst

let flat_view d = d.flat
let log_flat_view d = once d d.logs (fun () -> logs_of d.flat)
let transpose_view d = once d d.trans (fun () -> transpose_of d.n d.flat)

let log_transpose_view d =
  match Atomic.get d.log_trans with
  | Some b -> b
  | None ->
      (* Force the prerequisite outside the lock: [once] is not
         reentrant. *)
      let lg = log_flat_view d in
      once d d.log_trans (fun () -> transpose_of d.n lg)

module Flat = struct
  type nonrec buf = buf

  let data = flat_view
  let logs = log_flat_view
  let transpose = transpose_view
  let log_transpose = log_transpose_view

  let force d =
    ignore (logs d);
    ignore (transpose d);
    ignore (log_transpose d)

  let length (b : buf) = Bigarray.Array1.dim b
  let get (b : buf) i = b.{i}

  external unsafe_get : buf -> int -> float = "%caml_ba_unsafe_ref_1"

  let to_array (b : buf) = Array.init (Bigarray.Array1.dim b) (fun i -> b.{i})
end

(* The cells' bytes are laid out in a reused per-domain buffer: a
   served request digests its space without allocating a copy. *)
let digest_scratch = Bg_prelude.Scratch.create ()

let digest d =
  match Atomic.get d.key with
  | Some k -> k
  | None ->
      Mutex.protect d.build_lock (fun () ->
          match Atomic.get d.key with
          | Some k -> k
          | None ->
              let m = Bigarray.Array1.dim d.flat in
              let b = Bg_prelude.Scratch.bytes digest_scratch (8 * m) in
              for i = 0 to m - 1 do
                Bytes.set_int64_le b (8 * i)
                  (Int64.bits_of_float (ba_unsafe_get d.flat i))
              done;
              let k = Digest.subbytes b 0 (8 * m) in
              Atomic.set d.key (Some k);
              k)

(* ----------------------------------------------------------- transforms *)

let is_symmetric ?(eps = 1e-9) d =
  let ok = ref true in
  for i = 0 to d.n - 1 do
    for j = i + 1 to d.n - 1 do
      if
        not
          (Bg_prelude.Numerics.feq ~eps
             d.flat.{(i * d.n) + j}
             d.flat.{(j * d.n) + i})
      then ok := false
    done
  done;
  !ok

let off_diagonal_fold op init d =
  if d.n < 2 then invalid_arg "Decay_space: need at least two nodes";
  let acc = ref init in
  for i = 0 to d.n - 1 do
    for j = 0 to d.n - 1 do
      if i <> j then acc := op !acc d.flat.{(i * d.n) + j}
    done
  done;
  !acc

let min_decay d = off_diagonal_fold Float.min infinity d
let max_decay d = off_diagonal_fold Float.max 0. d

let map_flat fn d =
  let m = Bigarray.Array1.dim d.flat in
  let flat = alloc m in
  for i = 0 to m - 1 do
    ba_unsafe_set flat i (fn (ba_unsafe_get d.flat i))
  done;
  wrap d.name d.n flat

let scale k d =
  if k <= 0. then invalid_arg "Decay_space.scale: factor must be positive";
  map_flat (fun x -> k *. x) d

let pow e d =
  if e <= 0. then invalid_arg "Decay_space.pow: exponent must be positive";
  map_flat (fun x -> if x = 0. then 0. else x ** e) d

let symmetrize d =
  of_fn ~name:(d.name ^ "/sym") d.n (fun i j ->
      Float.max d.flat.{(i * d.n) + j} d.flat.{(j * d.n) + i})

let sub_space d idx =
  Array.iter
    (fun i ->
      if i < 0 || i >= d.n then invalid_arg "Decay_space.sub_space: index range")
    idx;
  of_fn ~name:(d.name ^ "/sub") (Array.length idx) (fun i j ->
      d.flat.{(idx.(i) * d.n) + idx.(j)})

let map fn d =
  of_fn ~name:d.name d.n (fun i j -> fn i j d.flat.{(i * d.n) + j})

let pp fmt d =
  if d.n < 2 then Format.fprintf fmt "%s: %d node(s)" d.name d.n
  else
    Format.fprintf fmt "%s: %d nodes, decays in [%g, %g]" d.name d.n
      (min_decay d) (max_decay d)
