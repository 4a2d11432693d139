(** Per-domain reusable byte buffers, for hot paths that would otherwise
    allocate a temporary buffer on every call. *)

type t

val create : unit -> t
(** A new scratch: each domain that uses it gets its own buffer. *)

val bytes : t -> int -> Bytes.t
(** [bytes t n] is a buffer of at least [n] bytes, owned by the calling
    domain and valid until that domain's next [bytes t _].  Its contents
    are unspecified.  A buffer over 1 MiB is fresh and not kept.  The
    caller must be done with it before anything else on the domain can
    call [bytes t _] (no systhreads or effect handlers in between). *)
