(** Timing for the Table 1 CPU columns, budgeted solver runs (the ILP's
    3000 s cap) and the serving layer's deadlines and backoff. *)

val now : unit -> float
(** Monotonic seconds ([clock_gettime CLOCK_MONOTONIC]), sub-millisecond
    resolution. The epoch is arbitrary: only differences are meaningful.
    Immune to wall-clock jumps, which makes it the correct base for
    deadlines, retry backoff and latency measurement. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result with elapsed seconds. *)

type budget
(** A deadline that solvers poll to honour wall-clock caps. *)

val budget : float -> budget
(** [budget s] expires [s] seconds from now. Non-positive [s] never expires
    (an unlimited budget). *)

val expired : budget -> bool
(** Has the deadline passed? *)

val remaining : budget -> float
(** Seconds left; [infinity] for unlimited budgets. *)
