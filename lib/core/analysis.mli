(** One-call analysis of a decay space: every parameter the paper defines,
    in one report.  This is the "what kind of space am I holding?"
    entry point a downstream user reaches for first. *)

type report = {
  name : string;
  n : int;
  symmetric : bool;
  zeta : float;  (** metricity (Definition 2.2) *)
  zeta_witness : Bg_decay.Metricity.witness;
  phi : float;  (** relaxed-triangle constant (§4.2) *)
  phi_log : float;  (** [lg phi] *)
  assouad : float;  (** decay-space Assouad dimension estimate (Def. 3.2) *)
  quasi_doubling : float;  (** doubling dimension of the quasi-metric (A') *)
  independence : int;  (** independence dimension (Def. 4.1) *)
  max_guards : int;  (** largest greedy guard set (Welzl duality) *)
  is_fading_space : bool;  (** Assouad < 1 (Definition 3.3) *)
  gamma : (float * float) list;
      (** fading parameter [gamma(r)] at the requested separations *)
}

type config = {
  ctx : Bg_decay.Ctx.t;
      (** shared kernel configuration: parallelism and the exact-solver
          size limit ({!Bg_decay.Ctx}).  Results are identical at every
          job count. *)
  gamma_at : float list;
      (** separation values [r] at which to evaluate the fading parameter
          (default: none — it is the costliest field) *)
}
(** Knobs for {!run}.  Build one with record update on {!default} so new
    fields don't break call sites:
    [{ default with ctx = Bg_decay.Ctx.make ~jobs:4 () }]. *)

val default : config
(** No gamma evaluations, {!Bg_decay.Ctx.default} kernel settings. *)

val run : ?config:config -> Bg_decay.Decay_space.t -> report
(** Compute the full report (defaults to {!default}). *)

val to_table : report -> Bg_prelude.Table.t
(** Render as a two-column parameter table. *)

val pp : Format.formatter -> report -> unit
