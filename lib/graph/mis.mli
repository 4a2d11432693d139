(** Maximum independent set.

    Theorems 3 and 6 of the paper reduce MAX INDEPENDENT SET to CAPACITY; we
    need exact MIS on the small graphs that parameterize those constructions
    to certify the one-to-one correspondence and to measure approximation
    gaps against the true optimum.  The packing and independence estimators
    of [Bg_decay] solve thousands of small instances per call, so the solvers
    run on {!bits}, bitset adjacency rows that callers may fill directly. *)

val greedy : Graph.t -> int list
(** Minimum-degree greedy independent set (a standard approximation);
    deterministic. *)

val exact : ?limit:int -> Graph.t -> int list
(** Exact maximum independent set by branch and bound (branch on a
    maximum-degree vertex, prune with a greedy clique-cover upper bound).
    [limit] caps the vertex count (default 64) to guard against accidental
    exponential blowups; raises [Invalid_argument] beyond it. *)

val independence_number : Graph.t -> int
(** Size of a maximum independent set (via {!exact}). *)

(** {2 Bitset graphs}

    The same solvers on a graph stored as one bitset row per vertex.  The
    searches are the ones behind {!greedy} and {!exact}, so on the same graph
    they return the same vertex lists.  No size limit applies: callers that
    choose between the exact and the greedy solver by size do so
    themselves. *)

type bits
(** A mutable undirected graph on vertices [0 .. k - 1]. *)

val bits : int -> bits
(** [bits k] is the empty graph on [k] vertices. *)

val add_edge : bits -> int -> int -> unit
(** Add an undirected edge; self-loops and out-of-range vertices are
    rejected. *)

val of_graph : Graph.t -> bits
(** The same graph as bitset rows. *)

val greedy_bits : bits -> int list
(** {!greedy} on a bitset graph. *)

val exact_bits : bits -> int list
(** {!exact} on a bitset graph. *)

val greedy_size : bits -> int
(** [List.length (greedy_bits g)], without building the list. *)

val exact_size : ?at_least:int -> bits -> int
(** [max at_least (List.length (exact_bits g))], found by the same search
    started from an incumbent of size [at_least] (default 0) instead of the
    greedy set: a caller maximizing over many graphs passes its running
    best, and every branch that cannot beat it is cut. *)
