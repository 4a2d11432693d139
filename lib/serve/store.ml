(* The persistent cross-restart result store.

   In memory this is one hash table under the store's one lock: a
   max-entries cap with per-entry LRU eviction, counted in the Obs
   registry as memo.store.hits / misses / evictions.  Every entry
   carries a recency stamp (a table-wide tick, bumped on every touch);
   an insert that would pass the cap drops the stalest entry first.
   That scan is O(entries) but runs only on an overflowing insert,
   never on a hit, and the table caps out in the thousands, where a
   scan is nanoseconds against the O(n^3) sweep a hit saves.  On disk
   it is two files:

     PATH       the JSONL snapshot — one {"key":K,"result":V} line per
                entry, least recently used first — written atomically
                through Decay_io.with_atomic_out, so a crash mid-flush
                can never clobber the previous snapshot with a torn one.
     PATH.wal   an append-only write-ahead journal of entries added
                since the last snapshot.  Each record carries an md5
                over its key and serialized result, appended with a
                single write(2); [sync] fsyncs the journal (the server
                calls it once per batch — group commit), so a SIGKILL at
                any point loses at most the batch in flight.

   Opening replays the snapshot, then the longest valid prefix of the
   journal: recovery stops at the first line that fails to parse or
   whose checksum mismatches (a torn final append), counting the
   discarded tail.  A torn journal therefore costs the un-synced tail,
   never a crashed daemon and never a corrupt entry served to a client.

   Compaction is snapshot-then-truncate: [flush] writes the full table
   atomically and only then truncates the journal to zero.  A crash
   between the two replays journal entries that are already in the
   snapshot — re-inserting an entry is idempotent, so that is merely
   redundant.

   Loading stays corruption-tolerant by construction: snapshot lines
   that fail to parse are counted and skipped (a damaged entry costs one
   recompute); journal damage truncates to the valid prefix. *)

module J = Core.Prelude.Jsonl
module Obs = Core.Prelude.Obs

type entry = { value : J.t; mutable stamp : int }

type t = {
  tbl : (string, entry) Hashtbl.t;
  max_entries : int;
  mutable tick : int;
  mutable evictions : int;
  path : string option;
  flush_every : int;
  chaos : Chaos.t option;
  lock : Mutex.t; (* guards every mutable field; serializes flushes *)
  mutable dirty : int;
  mutable wal_fd : Unix.file_descr option;
  mutable wal_unsynced : int; (* appends since the last fsync *)
  loaded : int;
  corrupt : int;
  wal_recovered : int;
  wal_torn : int;
}

let c_hits = Obs.counter "memo.store.hits"
let c_misses = Obs.counter "memo.store.misses"
let c_evictions = Obs.counter "memo.store.evictions"
let c_corrupt = Obs.counter "store.corrupt_dropped"
let c_loaded = Obs.counter "store.loaded"
let c_flushes = Obs.counter "store.flushes"
let c_wal_appends = Obs.counter "store.wal_appends"
let c_wal_syncs = Obs.counter "store.wal_syncs"
let c_wal_recovered = Obs.counter "store.wal_recovered"
let c_wal_torn = Obs.counter "store.wal_torn"

let header = J.Obj [ ("type", J.Str "bg-serve-store"); ("version", J.Num 1.) ]
let wal_path p = p ^ ".wal"

let checksum key result =
  Digest.to_hex (Digest.string (key ^ "\x00" ^ J.to_string result))

let wal_record key result =
  J.to_string
    (J.Obj
       [ ("key", J.Str key); ("result", result);
         ("md5", J.Str (checksum key result)) ])
  ^ "\n"

(* Read a snapshot leniently: unreadable file -> empty store; bad line ->
   skip and count.  Returns entries in file order (LRU order). *)
let read_snapshot path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> ([], 0)
  | text ->
      let entries = ref [] and corrupt = ref 0 in
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             let line = String.trim line in
             if line <> "" then
               match J.parse line with
               | exception J.Bad _ -> incr corrupt
               | j -> (
                   match (J.mem_str "type" j, J.mem_str "key" j,
                          J.member "result" j) with
                   | Some "bg-serve-store", _, _ -> () (* header line *)
                   | _, Some key, Some result ->
                       entries := (key, result) :: !entries
                   | _ -> incr corrupt));
      (List.rev !entries, !corrupt)

(* Replay the journal's longest valid prefix.  Unlike the snapshot
   reader this is strict: the first line that fails to parse, lacks a
   field, or fails its checksum ends recovery — everything after it is
   the torn tail of a crashed append and is discarded (counted). *)
let read_wal path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> ([], 0)
  | text ->
      let lines = String.split_on_char '\n' text in
      let rec go acc torn = function
        | [] -> (List.rev acc, torn)
        | line :: rest ->
            if String.trim line = "" then go acc torn rest
            else
              let entry =
                match J.parse line with
                | exception J.Bad _ -> None
                | j -> (
                    match (J.mem_str "key" j, J.member "result" j,
                           J.mem_str "md5" j) with
                    | Some key, Some result, Some md5
                      when String.equal md5 (checksum key result) ->
                        Some (key, result)
                    | _ -> None)
              in
              (match entry with
              | Some e -> go (e :: acc) torn rest
              | None ->
                  (* torn tail: count this and every remaining payload *)
                  let remaining =
                    List.length
                      (List.filter (fun l -> String.trim l <> "") rest)
                  in
                  (List.rev acc, torn + 1 + remaining))
      in
      go [] 0 lines

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

(* Insert or overwrite; a new key at the cap first drops the least
   recently used entry.  Caller holds the lock. *)
let insert t key value =
  if (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.max_entries
  then begin
    let victim =
      Hashtbl.fold
        (fun k e best ->
          match best with
          | Some (_, s) when s <= e.stamp -> best
          | _ -> Some (k, e.stamp))
        t.tbl None
    in
    Option.iter (fun (k, _) -> Hashtbl.remove t.tbl k) victim;
    t.evictions <- t.evictions + 1;
    Obs.incr c_evictions
  end;
  let e = { value; stamp = 0 } in
  touch t e;
  Hashtbl.replace t.tbl key e

let open_ ?(max_entries = 4096) ?(flush_every = 256) ?path ?chaos () =
  if max_entries < 1 then
    invalid_arg "Store.open_: max_entries must be positive";
  if flush_every < 1 then
    invalid_arg "Store.open_: flush_every must be positive";
  let entries, corrupt, wentries, wal_torn =
    match path with
    | None -> ([], 0, [], 0)
    | Some p ->
        let entries, corrupt = read_snapshot p in
        let wentries, torn = read_wal (wal_path p) in
        (entries, corrupt, wentries, torn)
  in
  let wal_fd =
    Option.map
      (fun p ->
        Unix.openfile (wal_path p)
          [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
          0o644)
      path
  in
  let t =
    { tbl = Hashtbl.create 64; max_entries; tick = 0; evictions = 0; path;
      flush_every; chaos; lock = Mutex.create (); dirty = 0; wal_fd;
      wal_unsynced = 0; loaded = List.length entries; corrupt;
      wal_recovered = List.length wentries; wal_torn }
  in
  List.iter (fun (k, v) -> insert t k v) (entries @ wentries);
  Obs.add c_loaded t.loaded;
  Obs.add c_corrupt corrupt;
  Obs.add c_wal_recovered t.wal_recovered;
  Obs.add c_wal_torn wal_torn;
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key =
  Mutex.lock t.lock;
  let r =
    Option.map
      (fun e ->
        touch t e;
        e.value)
      (Hashtbl.find_opt t.tbl key)
  in
  Mutex.unlock t.lock;
  Obs.incr (if r = None then c_misses else c_hits);
  r

(* Every entry, least recently used first: the snapshot order, which
   re-inserted reproduces the same LRU state.  Caller holds the lock. *)
let entries t =
  Hashtbl.fold (fun k e acc -> (e.stamp, k, e.value) :: acc) t.tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.map (fun (_, k, v) -> (k, v))

let flush t =
  match t.path with
  | None -> ()
  | Some path ->
      locked t (fun () ->
          Chaos.maybe_at t.chaos Chaos.Pre_snapshot;
          Core.Decay.Decay_io.with_atomic_out path (fun oc ->
              output_string oc (J.to_string header);
              output_char oc '\n';
              Chaos.maybe_at t.chaos Chaos.Mid_snapshot;
              List.iter
                (fun (key, result) ->
                  output_string oc
                    (J.to_string
                       (J.Obj [ ("key", J.Str key); ("result", result) ]));
                  output_char oc '\n')
                (entries t));
          (* The snapshot is durably in place (atomic rename); the
             journal's contents are now redundant.  Truncate-and-fsync —
             a crash between rename and truncate only replays entries
             the snapshot already holds. *)
          (match t.wal_fd with
          | Some fd ->
              Unix.ftruncate fd 0;
              Unix.fsync fd;
              t.wal_unsynced <- 0
          | None -> ());
          t.dirty <- 0;
          Obs.incr c_flushes)

let add t key v =
  let need_flush =
    locked t (fun () ->
        insert t key v;
        (match t.wal_fd with
        | Some fd ->
            let rec_ = Bytes.of_string (wal_record key v) in
            let n = Unix.write fd rec_ 0 (Bytes.length rec_) in
            ignore n;
            t.wal_unsynced <- t.wal_unsynced + 1;
            Obs.incr c_wal_appends
        | None -> ());
        t.dirty <- t.dirty + 1;
        t.dirty >= t.flush_every && t.path <> None)
  in
  if need_flush then flush t

(* Group commit: fsync the journal once per server batch rather than per
   append, keeping the WAL off the per-request critical path. *)
let sync t =
  locked t (fun () ->
      match t.wal_fd with
      | Some fd when t.wal_unsynced > 0 ->
          Unix.fsync fd;
          t.wal_unsynced <- 0;
          Obs.incr c_wal_syncs
      | _ -> ())

let close t =
  flush t;
  locked t (fun () ->
      match t.wal_fd with
      | Some fd ->
          t.wal_fd <- None;
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ())

let length t = locked t (fun () -> Hashtbl.length t.tbl)
let entries t = locked t (fun () -> entries t)
let evictions t = t.evictions
let loaded t = t.loaded
let corrupt_dropped t = t.corrupt
let wal_recovered t = t.wal_recovered
let wal_torn t = t.wal_torn
