(** Minimal dependency-free JSON / JSONL reader and writer: the one
    JSON codec of the repo.

    The trace lines written by {!Obs}, the wire protocol, telemetry, the
    bench records and the speedscope profiles are all small JSON; this
    module parses and serializes them without an external library.
    It handles full JSON (arrays, nesting, string escapes); numbers are
    parsed as [float] (JSON's own number model).  Non-BMP [\u] escapes
    and surrogate pairs are out of scope: code points [>= 0x80] decode
    to ['?'] (the traces only ever escape ASCII control characters). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string
(** Raised by {!parse} and {!parse_lines} on malformed input, with a
    message naming the byte offset. *)

(** {1 Parsing} *)

val parse : string -> t
(** Parse one complete JSON value; trailing non-whitespace raises
    {!Bad}. *)

val parse_lines : string -> t list
(** JSONL: one JSON value per non-empty line. *)

val read_file : string -> string
(** The file's contents ([In_channel.input_all]); combine with
    {!parse_lines} to load a trace. *)

(** {1 Emission} *)

val to_string : t -> string
(** Compact (single-line) serialization.  Integral {!Num} values print
    without a decimal point; non-finite floats are emitted as strings
    (["infinity"], ["-infinity"], ["nan"]), so output always
    reparses. *)

val buf_add_string : Buffer.t -> string -> unit
(** Append a quoted JSON string.  Quote, backslash, newline, carriage
    return and tab get their two-character escapes, the other control
    bytes a six-character [u00XX] escape; all other bytes are copied
    verbatim. *)

val buf_add_num : Buffer.t -> float -> unit
(** Append a number as {!to_string} writes a {!Num}: integral values
    below 1e15 in magnitude without a decimal point, other finite values
    as [%.17g] (which round-trips every double), non-finite ones as the
    strings above.  {!Obs} writes its trace lines with these two
    functions, straight into its line buffer. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an {!Obj}; [None] on missing field or non-object. *)

val str : t -> string option
val num : t -> float option
val bool_ : t -> bool option

val mem_str : string -> t -> string option
(** [mem_str k v = Option.bind (member k v) str]; likewise the two
    below. *)

val mem_num : string -> t -> float option
val mem_bool : string -> t -> bool option
