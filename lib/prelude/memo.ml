(* A bounded memo table with per-entry LRU eviction and hit/miss/eviction
   accounting.

   The table is a plain Hashtbl guarded by a mutex so that concurrent
   lookups and inserts from several domains are safe.

   Eviction is LRU, one entry at a time: every entry carries a recency
   stamp (a table-wide tick, bumped under the lock on every touch), and
   when an insert would push the table past [max_size] the stalest entry
   is dropped first.  The stamp scan is O(table size) but only runs on an
   overflowing insert, never on a hit, so the hot path stays a hash
   lookup; the table this backs (the serve store, keyed by content
   digest) caps out in the thousands, where a scan is nanoseconds against
   the O(n^3) sweep a hit saves.

   A named table additionally mirrors its accounting into the Obs
   registry (memo.<name>.hits / .misses / .evictions). *)

type obs_counters = {
  c_hits : Obs.counter;
  c_misses : Obs.counter;
  c_evictions : Obs.counter;
}

type 'v entry = { value : 'v; mutable stamp : int }

type ('k, 'v) t = {
  tbl : ('k, 'v entry) Hashtbl.t;
  lock : Mutex.t;
  max_size : int;
  obs : obs_counters option;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(max_size = 512) ?name () =
  if max_size < 1 then invalid_arg "Memo.create: max_size must be positive";
  let obs =
    Option.map
      (fun n ->
        {
          c_hits = Obs.counter (Printf.sprintf "memo.%s.hits" n);
          c_misses = Obs.counter (Printf.sprintf "memo.%s.misses" n);
          c_evictions = Obs.counter (Printf.sprintf "memo.%s.evictions" n);
        })
      name
  in
  { tbl = Hashtbl.create 64; lock = Mutex.create (); max_size; obs;
    tick = 0; hits = 0; misses = 0; evictions = 0 }

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

(* Drop least-recently-used entries until an insert fits under
   [max_size].  Caller holds the lock. *)
let evict_for_insert t =
  let dropped = ref 0 in
  while Hashtbl.length t.tbl >= t.max_size do
    let victim = ref None in
    Hashtbl.iter
      (fun k e ->
        match !victim with
        | Some (_, s) when s <= e.stamp -> ()
        | _ -> victim := Some (k, e.stamp))
      t.tbl;
    match !victim with
    | None -> raise Exit (* unreachable: length >= max_size >= 1 *)
    | Some (k, _) ->
        Hashtbl.remove t.tbl k;
        t.evictions <- t.evictions + 1;
        incr dropped
  done;
  !dropped

(* Insert under the lock, evicting first when the key is new and the
   table is full.  Returns how many entries were evicted. *)
let insert t key v =
  let evicted =
    if Hashtbl.mem t.tbl key then 0 else evict_for_insert t
  in
  let e = { value = v; stamp = 0 } in
  touch t e;
  Hashtbl.replace t.tbl key e;
  evicted

let note_evictions t n =
  if n > 0 then
    Option.iter (fun o -> Obs.add o.c_evictions n) t.obs

let find_opt t key =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
        t.hits <- t.hits + 1;
        touch t e;
        Some e.value
    | None ->
        t.misses <- t.misses + 1;
        None
  in
  Mutex.unlock t.lock;
  Option.iter
    (fun o -> Obs.incr (if r = None then o.c_misses else o.c_hits))
    t.obs;
  r

let set t key v =
  Mutex.lock t.lock;
  let evicted = insert t key v in
  Mutex.unlock t.lock;
  note_evictions t evicted

let length t =
  Mutex.lock t.lock;
  let r = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  r

let to_alist t =
  Mutex.lock t.lock;
  let entries =
    Hashtbl.fold (fun k e acc -> (k, e.value, e.stamp) :: acc) t.tbl []
  in
  Mutex.unlock t.lock;
  entries
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
  |> List.map (fun (k, v, _) -> (k, v))

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
