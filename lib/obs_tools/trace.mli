(** Offline analysis of {!Bg_prelude.Obs} JSONL traces.

    Backs the [bg trace report|flame|diff] subcommands: a trace file is
    read back into a span forest (spans opened inside parallel workers
    are roots of their own domain) and aggregated per span {e kind}
    (name), rendered as folded stacks / speedscope JSON, or diffed
    against another trace.

    Self time is [dur - min(dur, sum of children dur)], so
    [self + child = total] holds {e exactly} per span and per kind.
    Quantiles bucket span durations with {!Bg_prelude.Obs.bucket_of}
    and read them with {!Bg_prelude.Obs.quantile_of_buckets}, the
    estimator the live registry uses, so offline p50/p99 are comparable
    with online histogram flushes. *)

type span = {
  id : int;
  parent : int; (* 0 for roots *)
  domain : int;
  name : string;
  start_s : float;
  dur_s : float; (* clamped non-negative on load *)
  ok : bool;
  attrs : (string * Bg_prelude.Jsonl.t) list;
}

(** {1 Loading} *)

val load : string -> span list
(** Parse a JSONL trace file and keep its span events, in file order
    (children precede parents — spans are emitted on close).  Raises
    {!Bg_prelude.Jsonl.Bad} on malformed JSON and [Sys_error] on an
    unreadable file. *)

val load_events : string -> Bg_prelude.Jsonl.t list
(** Every event of the file (spans, counters, gauges, histograms). *)

val spans : Bg_prelude.Jsonl.t list -> span list
(** The span events among [events]; non-span lines are ignored. *)

val attr_num : span -> string -> float option
(** Numeric attribute by name. *)

val attr_str : span -> string -> string option
(** String attribute by name. *)

val alloc_bytes : span -> float option
(** The ["gc.alloc_bytes"] profiling attribute, when the trace was
    recorded under [--profile]. *)

val trace_id : span -> string option
(** The ["trace_id"] attribute — the logical-request tag the serving
    stack propagates across processes. *)

val kinds : span list -> string list
(** The distinct span names, sorted — [bg trace diff] refuses two traces
    whose kind sets are disjoint (nothing to compare). *)

(** {1 Cross-process merge} *)

val merge : span list list -> span list
(** Merge per-process trace files (client, daemon incarnations,
    supervisor) into one causal forest.  Every file's process-local span
    ids are remapped into one namespace; then each span carrying both a
    [trace_id] and a [parent_span] attribute (a server span whose cause
    lives in another process — the wire carried the client span's id)
    is re-parented under the span with the same [trace_id], {e no}
    [parent_span] attribute, and the matching original id.  The wire
    parent overrides process-local nesting (a server groups its request
    spans under batch spans; the causal edge wins).  A remote child
    whose target file is absent keeps its local parent: the merge
    degrades, never drops spans. *)

val filter_trace : id:string -> span list -> span list
(** The spans of one logical request: every span whose [trace_id]
    attribute equals [id], plus all their descendants (server-side
    queue-wait and kernel children carry no tag — they follow their
    parent).  Meaningful after {!merge}. *)

val tree_table : ?title:string -> span list -> Bg_prelude.Table.t
(** The forest rendered as an indented causal tree in start order, with
    starts relative to the earliest span — the [bg trace report --id]
    view. *)

(** {1 Per-kind aggregation} *)

type kind_stats = {
  kind : string;
  count : int;
  errors : int; (* spans with ok:false *)
  total_s : float;
  kself_s : float; (* total minus time inside linked children *)
  kchild_s : float; (* kself_s + kchild_s = total_s exactly *)
  alloc_b : float; (* summed gc.alloc_bytes; 0 without profiling *)
  p50_s : float; (* log2-bucket estimates of the duration quantiles *)
  p99_s : float;
  max_s : float;
}

val aggregate : span list -> kind_stats list
(** One row per span name, sorted by total time descending. *)

val report_table : ?title:string -> span list -> Bg_prelude.Table.t
(** {!aggregate} rendered with human-scale units. *)

val critical_path : span list -> span list
(** The chain of heaviest children under the slowest [experiment] span
    (or the slowest root when the trace has no experiment spans), from
    that top span down to a leaf.  Empty only for an empty trace. *)

val critical_path_table : span list -> Bg_prelude.Table.t

(** {1 Flame output} *)

val folded : span list -> (string * int) list
(** flamegraph.pl folded stacks: [("root;child;leaf", self_us)] with
    one entry per distinct name path, self time in integer microseconds,
    sorted by stack.  Spans sharing a name path merge (flamegraph
    semantics). *)

val folded_to_string : span list -> string
(** One ["stack value\n"] line per entry of {!folded}. *)

val speedscope : ?name:string -> span list -> string
(** The trace as a speedscope evented-profile JSON document (one
    profile per domain, frames shared).  Event timestamps are clamped
    into their parent's window and ordered after elder siblings, so the
    output satisfies speedscope's schema even on a clock-jittery
    trace. *)

(** {1 Trace diff} *)

type diff_row = {
  d_kind : string;
  old_count : int;
  new_count : int;
  old_total_s : float;
  new_total_s : float;
  delta_s : float; (* new - old *)
  delta_pct : float; (* infinity when the kind only exists in [new] *)
}

val diff_rows : old_spans:span list -> new_spans:span list -> diff_row list
(** Per-kind deltas over the union of kinds, worst regressions first.
    Diffing a trace against itself yields all-zero deltas. *)

val diff_table :
  old_spans:span list -> new_spans:span list -> Bg_prelude.Table.t
