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

val parse_in_place : path:string list -> string -> t * (int * int) option
(** [parse_in_place ~path s] is [parse s], except for the string at
    [path]: members named from the top-level object down, each the first
    of its name in its object.  If that value is a string without
    escapes it is not copied out of [s]: it parses as [Str ""] and the
    second result is [Some (pos, len)], its bytes in [s].  Otherwise the
    second result is [None].  A request line's binary payload is read
    this way, where it lies. *)

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

(** {1 Base64}

    Binary payloads inside JSON strings: RFC 4648 base64 with the
    standard alphabet and ['='] padding, no line breaks.  [bg serve]'s
    float64 matrices travel this way. *)

val base64_encode : string -> string
(** The base64 text of a byte string: [4 * ceil (n / 3)] characters. *)

val base64_decode_into : string -> int -> int -> Bytes.t -> int
(** [base64_decode_into s pos len buf] decodes the base64 text in the
    [len] bytes of [s] from [pos] into [buf] from 0, and returns the
    number of bytes decoded ([len / 4 * 3] bytes of [buf] always
    suffice).  Raises {!Bad} if [len] is not a multiple of 4 or a byte
    is outside the alphabet, ['='] counting as outside it anywhere but
    the last two places; raises [Invalid_argument] if the range is
    outside [s] or [buf] is too short. *)

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
