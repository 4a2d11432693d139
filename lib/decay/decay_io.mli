(** Loading and saving decay matrices.

    The on-disk format is plain CSV: row [i] holds the decays from node [i]
    to every node (diagonal entries must be 0).  Lines starting with [#]
    are comments; the optional header comment carries the space's name.
    This is the interchange point with real measurement campaigns: dump
    RSSI-derived decays from any tool and analyze them with [bg analyze].

    Real campaign files are messy, so two doors in: the strict one
    ({!of_csv}/{!load}) rejects any defect with a cell-addressed
    [Invalid_argument], and the repairing one
    ({!of_csv_repaired}/{!load_repaired}) routes the raw matrix through
    {!Validate.repair} and reports exactly what it fixed.  {!save} is
    atomic (temp file + rename). *)

val to_csv : Decay_space.t -> string
(** Render as CSV with a [# name: ...] header comment. *)

val parse : ?name:string -> string -> string * float array array
(** Parse CSV text to [(name, raw_matrix)] with {e no} shape or cell
    validation: rows may be ragged and cells may be NaN/Inf/nonpositive
    (those are data-quality issues for {!Validate}).  A [# name:] header
    overrides [name].
    @raise Invalid_argument only for a cell that is not a number at all,
    with its line and column. *)

val of_csv : ?name:string -> string -> Decay_space.t
(** Parse CSV text strictly (comments and blank lines ignored; a
    [# name:] header overrides [name]).  Empty and ragged matrices are
    rejected with a row/cell-addressed message, invalid cells with the
    cell-addressed messages of {!Decay_space.of_matrix}.
    @raise Invalid_argument on malformed input or an invalid matrix. *)

val of_csv_repaired :
  ?name:string ->
  policy:Validate.policy ->
  string ->
  (Decay_space.t * Validate.repair, Validate.diagnosis) result
(** Parse CSV text and build the space through {!Validate.repair} under
    the given policy.  [Ok] carries the repair report; [Error] the full
    diagnosis (including [Ragged]/[Empty], which no policy can repair).
    @raise Invalid_argument only for cells that are not numbers. *)

val with_atomic_out : ?binary:bool -> string -> (out_channel -> unit) -> unit
(** [with_atomic_out path write] runs [write] on a fresh temp file in
    [path]'s directory and renames it into place, so readers never
    observe a torn file and a crash cannot clobber an existing one with
    a truncated one.  On any exception the temp file is removed and the
    destination is untouched.  Every writer in this module uses it; the
    persistent serve store ({!Bg_serve.Store}) reuses it for its
    snapshots.  [binary] (default [false]) selects [open_out_bin]. *)

val save : Decay_space.t -> string -> unit
(** Write to a file path atomically ({!with_atomic_out}). *)

val load : string -> Decay_space.t
(** Read from a file path strictly; the name defaults to the basename. *)

val load_repaired :
  policy:Validate.policy ->
  string ->
  (Decay_space.t * Validate.repair, Validate.diagnosis) result
(** Read from a file path through {!Validate.repair}. *)

(** {1 Raw binary matrices (out-of-core)}

    A second on-disk format for large matrices: a 16-byte header (magic
    tag + node count) followed by the [n*n] float64 cells, row-major,
    little-endian — bit-identical to the space's in-memory Bigarray on
    every supported platform.  {!load_raw_mmap} adopts the file pages by
    [mmap] without copying, so a multi-GB matrix can be analyzed
    out-of-core; the OS pages cells in as the kernels stream over them. *)

val is_raw : string -> bool
(** Whether the file at [path] starts with the raw format's 8-byte magic
    tag (a shorter file is not raw).
    @raise Sys_error if it cannot be opened. *)

val save_raw : Decay_space.t -> string -> unit
(** Write the raw binary format atomically (temp file + rename), like
    {!save}. *)

val save_raw_fn : n:int -> (int -> int -> float) -> string -> unit
(** Write the raw binary format from a cell oracle [f i j] without ever
    materializing the matrix: cells are streamed one row at a time, so
    memory stays O(n) for matrices far beyond RAM.  Atomic like
    {!save_raw}.  No cell validation is performed — pair with
    [load_raw ~validate:true] when the oracle is untrusted.
    @raise Invalid_argument if [n < 1]. *)

val load_raw : ?validate:bool -> string -> Decay_space.t
(** Read a raw binary matrix into fresh memory.  [validate] (default
    [true]) runs the standard cell checks.
    @raise Invalid_argument on a bad header, a size mismatch, or (when
    validating) any invalid cell. *)

val load_raw_mmap : ?validate:bool -> string -> Decay_space.t
(** Memory-map a raw binary matrix read-only, zero-copy
    ({!Decay_space.of_bigarray}).  [validate] defaults to [false]: the
    point of mapping is out-of-core sizes where an eager O(n^2) touch of
    every page defeats it — enable it for untrusted files you could
    afford to {!load_raw} anyway.  The file must outlive the returned
    space unmodified.
    @raise Invalid_argument on a bad header or a size mismatch. *)
