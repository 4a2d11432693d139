(** The digest-keyed result store shared across requests {e and} daemon
    restarts — crash-safe via a write-ahead journal.

    In memory this is one table under the store's lock — a max-entries
    cap and per-entry LRU eviction (every {!find} hit and {!add}
    refreshes recency), counted in the {!Bg_prelude.Obs} registry as
    [memo.store.hits], [memo.store.misses] and [memo.store.evictions].
    Lookups and inserts may come from any domain.  It is the only result
    cache: the kernels themselves keep nothing.  On disk it is two
    files:

    - [PATH] — a JSONL snapshot (one [{"key":K,"result":V}] line per
      entry, least recently used first) written atomically through
      {!Bg_decay.Decay_io.with_atomic_out}: a crash mid-flush can never
      clobber the previous snapshot with a torn one.
    - [PATH.wal] — an append-only journal of entries added since the
      last snapshot.  Each record is md5-checksummed and appended with a
      single [write(2)]; {!sync} fsyncs it (the server group-commits
      once per batch), so a [SIGKILL] at any point loses at most the
      in-flight batch.

    {!open_} replays the snapshot, then the {e longest valid prefix} of
    the journal — recovery stops at the first unparseable or
    checksum-failing line (the torn tail of a crashed append) and counts
    what it discarded ([store.wal_torn]).  {!flush} compacts:
    snapshot-then-truncate, in that order, so a crash between the two
    merely replays entries the snapshot already holds.

    Snapshot loading stays corruption-tolerant: a damaged line is
    counted ([store.corrupt_dropped]) and skipped — it costs one
    recompute, never a crashed daemon, and a torn record can never reach
    a client. *)

type t

val open_ :
  ?max_entries:int ->
  ?flush_every:int ->
  ?path:string ->
  ?chaos:Chaos.t ->
  unit ->
  t
(** Open a store capped at [max_entries] (default 4096): an insert of a
    new key at the cap first evicts the least recently used entry.
    With [?path], the snapshot at [path] is loaded (leniently; a missing
    file is an empty store), the journal at [path ^ ".wal"] is replayed
    to its longest valid prefix and then opened for appends, and {!add}
    compacts every [flush_every] (default 256) inserts.  A store with a
    path always journals.  Without [?path] the store is memory-only.
    [?chaos] arms the [pre-snapshot]
    and [mid-snapshot] crash points inside {!flush}.
    @raise Invalid_argument if [max_entries < 1] or [flush_every < 1]. *)

val find : t -> string -> Core.Prelude.Jsonl.t option
(** Cached result under a key ([<digest>/<op_key>]); refreshes LRU
    recency and counts [memo.store.hits] or [memo.store.misses]. *)

val add : t -> string -> Core.Prelude.Jsonl.t -> unit
(** Insert or overwrite a computed result: evict the LRU entry if the
    key is new and the store is full, journal it ([store.wal_appends]),
    and compact when the flush threshold is reached.  Counts as neither
    hit nor miss.  Durable after the next {!sync} or {!flush}. *)

val sync : t -> unit
(** fsync journal appends since the last {!sync} ([store.wal_syncs]).
    The server calls this once per completed batch — group commit — so
    a crash loses at most the batch in flight.  No-op for a memory-only
    store. *)

val flush : t -> unit
(** Compact: snapshot atomically (temp-file + rename), then truncate the
    journal.  No-op for a memory-only store.  Call on daemon
    shutdown. *)

val close : t -> unit
(** {!flush}, then close the journal descriptor. *)

val length : t -> int
(** Cached entries, always [<= max_entries]. *)

val entries : t -> (string * Core.Prelude.Jsonl.t) list
(** Every entry, least recently used first — the snapshot order
    ({!add}ing them in this order reproduces the same LRU state). *)

val evictions : t -> int
(** Entries this store dropped at its cap. *)

val loaded : t -> int
(** Entries restored from the snapshot at {!open_}. *)

val corrupt_dropped : t -> int
(** Damaged snapshot lines skipped at {!open_}. *)

val wal_recovered : t -> int
(** Journal entries replayed at {!open_} ([store.wal_recovered]). *)

val wal_torn : t -> int
(** Journal lines discarded as the torn tail at {!open_}. *)
