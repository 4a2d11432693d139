(** Seeded fault injection at the serving layer's I/O and compute
    boundaries — the serving analogue of {!Bg_decay.Corrupt}.

    A chaos spec is a comma-separated list of faults:

    {v
    torn=P            tear a response line: deliver only a prefix, merged
                      into the next write (probability P per line)
    drop=P            silently drop a response line
    corrupt=P         flip 1–4 payload bytes to printable garbage
                      (framing survives; checksums/parsers must catch it)
    stall=P:SECONDS   sleep SECONDS before computing a request
    crash=POINT:N     die at the Nth arrival at POINT, one of
                      mid-batch | pre-snapshot | mid-snapshot
    v}

    e.g. ["drop=0.05,torn=0.02,stall=0.1:0.01,crash=mid-batch:3"].

    All decisions flow from one {!Bg_prelude.Rng} stream drawn in a
    fixed order, so equal [(spec, seed)] pairs produce bit-identical
    fault schedules — the E30 experiment and the chaos-smoke CI job
    replay exact failure sequences from a recorded seed. *)

type crash_point = Mid_batch | Pre_snapshot | Mid_snapshot

type spec = {
  torn : float;
  drop : float;
  corrupt : float;
  stall_prob : float;
  stall_s : float;
  crash : (crash_point * int) option;
}

val none : spec
(** The all-zero spec: no faults. *)

val parse : string -> (spec, string) result
(** Parse the grammar above.  Probabilities outside [0,1], negative
    durations, unknown faults or malformed clauses yield [Error] with a
    one-line message suitable for [user_error]. *)

val spec_to_string : spec -> string
(** Canonical round-trippable rendering (["none"] for {!none}). *)

exception Injected_crash of string
(** Raised at a crash point under {!Raise}; payload is the point name. *)

type action =
  | Sigkill  (** die by [SIGKILL] — a power-cut: no flush, no handlers *)
  | Raise    (** raise {!Injected_crash} — for in-process harnesses *)

type t

val create : ?action:action -> seed:int -> spec -> t
(** [create ~seed spec] makes an injector.  [action] defaults to
    {!Sigkill} (real daemons); experiments and unit tests pass
    {!Raise}. *)

val mangle :
  t ->
  target:(string -> unit) ->
  string ->
  [ `Deliver of string | `Drop | `Drop_keep_carry ]
(** [mangle t ~target line] decides the fate of this response line,
    bound for [target] (its reply function).  [`Deliver s] writes [s]
    (possibly corrupted, possibly prefixed by a fragment earlier torn
    from a line for the same target, compared with [==]); [`Drop] writes
    nothing; [`Drop_keep_carry] writes nothing now but holds a torn
    prefix that will garble the next delivery to [target].  One prefix
    is held at a time: a tear replaces a fragment still pending for
    another target.  Exactly three Bernoulli draws per call regardless
    of outcome. *)

val stall : t -> unit
(** Roll the stall fault once; sleeps [stall_s] on a hit. *)

val at : t -> crash_point -> unit
(** Record an arrival at [point]; on the Nth arrival at the configured
    crash point, die per the action.  Counted under [chaos.crashes]. *)

val maybe_at : t option -> crash_point -> unit
(** [at] through an option, for call sites without chaos wired in. *)
