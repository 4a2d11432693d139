(** Bounded memo tables with LRU eviction and hit/miss accounting.

    Backs the persistent serve store: results keyed by a digest of the
    decay matrix, so re-analyzing an identical space costs a hash lookup
    instead of an O(n^3) sweep, under a bound-and-evict policy that holds
    across restarts.  Lookups and inserts may come from any domain. *)

type ('k, 'v) t
(** A mutex-guarded memo table from ['k] to ['v]. *)

val create : ?max_size:int -> ?name:string -> unit -> ('k, 'v) t
(** A fresh table holding at most [max_size] entries (default 512).  An
    insert that would exceed the bound first evicts the least-recently
    used entry (every {!find_opt} hit and {!set} refreshes recency), so a
    skewed request stream keeps its hot keys while unbounded streams of
    distinct keys cannot leak memory.

    With [?name], the table mirrors its accounting into the {!Obs}
    registry as [memo.<name>.hits], [memo.<name>.misses] and
    [memo.<name>.evictions] (use {!Obs.reset_metrics} to zero them).
    @raise Invalid_argument if [max_size < 1]. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Cached value for [key], refreshing its recency; counts as a hit or a
    miss.  Pair with {!set} to store what a miss computed. *)

val set : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite, evicting the LRU entry first if the key is new
    and the table is full.  Counts as neither hit nor miss. *)

val length : ('k, 'v) t -> int
(** Number of cached entries (always [<= max_size]). *)

val to_alist : ('k, 'v) t -> ('k * 'v) list
(** All entries in recency order, least recently used first — the
    serialization order of the persistent store (replaying {!set} over
    the list reproduces the same LRU state). *)

val hits : ('k, 'v) t -> int
(** Lookups answered from the table since creation. *)

val misses : ('k, 'v) t -> int
(** Lookups that found nothing. *)

val evictions : ('k, 'v) t -> int
(** Entries dropped by the LRU bound. *)
