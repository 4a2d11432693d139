(** The experiment registry: every claim-reproduction experiment of
    DESIGN.md section 5, addressable by id ("E1" .. "E31").  The
    [bg experiment] CLI subcommand runs one, several or all of them, each
    under {!Isolate}. *)

type outcome = Outcome.t = {
  pass : bool;
  measured : float option;
  bound : float option;
  detail : string;
}
(** Re-exported from {!Outcome} so consumers can pattern-match through
    either path. *)

type entry = { id : string; claim : string; run : unit -> outcome }

val all : entry list
(** Every registered experiment in id order (E15+ are extension
    ablations).  The first and last ids of this list are the source of
    truth for the advertised range — never hard-code it. *)

val find : string -> entry option
(** Case-insensitive lookup by id. *)
