(** Structured experiment verdicts.

    An experiment is more than a boolean: almost every claim in the paper is
    of the form "measured quantity m stays on the right side of bound b".
    Recording [measured] and [bound] alongside [pass] lets every consumer
    ([bg experiment], its traces, CI logs) print measured-vs-bound
    columns and lets a regression be diagnosed from the report alone. *)

type t = {
  pass : bool;  (** did the claim hold? *)
  measured : float option;
      (** the headline measured quantity, when the experiment has one *)
  bound : float option;
      (** the bound it was compared against, when there is one *)
  detail : string;  (** one-line human description of the comparison *)
}

val make : ?measured:float -> ?bound:float -> detail:string -> bool -> t

val of_bool : ?measured:float -> ?bound:float -> detail:string -> bool -> t
(** Alias of {!make}; reads better at call sites converting an existing
    boolean verdict. *)

val leq : ?detail:string -> measured:float -> bound:float -> unit -> t
(** Pass iff [measured <= bound]; both values recorded. *)

val geq : ?detail:string -> measured:float -> bound:float -> unit -> t
(** Pass iff [measured >= bound]; both values recorded. *)

val float_cell : float option -> string
(** Render a measured/bound cell: ["-"] for [None], compact decimal
    otherwise. *)
