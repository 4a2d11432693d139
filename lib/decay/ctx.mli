(** Shared analysis context — the one record threading parallelism and
    solver limits through every kernel entry point.

    A [Ctx.t] is accepted (as [?ctx]) by every sweep entry point, by
    {!Estimators} and by [Core.Analysis.run].  Build one with record
    update on {!default} so new fields never break call sites:
    [{ Ctx.default with jobs = Some 4 }].  No kernel keeps results
    between calls: every call runs its sweep. *)

type t = {
  jobs : int option;
      (** parallelism for the triple sweeps; [None] defers to
          {!Bg_prelude.Parallel.default_jobs}.  Results are identical at
          every job count. *)
  exact_limit : int option;
      (** branch-and-bound size cap for the packing / independence /
          MIS solvers; [None] keeps each solver's own default *)
}

val default : t
(** Ambient parallelism, solver defaults. *)

val make : ?jobs:int -> ?exact_limit:int -> unit -> t
(** Keyword constructor for call sites that prefer labels over record
    update. *)

val uncached : t
(** Equal to {!default}.  Kept only because [perfbench/] still names
    it; the kernels keep no results, so there is nothing to opt out
    of. *)

val jobs : t -> int
(** The effective job count: [resolve_jobs t.jobs]. *)
