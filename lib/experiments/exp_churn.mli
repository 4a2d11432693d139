(** Experiment E31: scheduling under mobility churn.

    Drives a seeded {!Core.Decay.Evolve} trace, maintains ζ/φ/γ with
    {!Core.Decay.Incremental}, and asks the churn questions: how fast do
    the parameters drift, how long does a schedule computed at t=0 stay
    SINR-feasible, and does dynamic (E16/E21-style) scheduling still
    stabilize on the drifted space? *)

val e31_churn_scheduling : unit -> Outcome.t
(** Pass iff the t=0 schedule survives at least one step and
    longest-queue-first stays stable at modest load on both the initial
    and the final space.  [measured] is the number of steps the t=0
    schedule stayed feasible; [bound] is the 1-step survival floor. *)
