(** The run state threaded through every pipeline stage.

    One value carries what a run accumulates or shares while it runs:
    the deterministic PRNG the run was seeded with, the
    {!Operon_util.Executor.t} parallel backend, the {!Instrument.sink}
    the stage reports into, and the {!Fault.log} the run's degradations
    accumulate in — plus the two fault-policy values {!degrade} and
    {!check_inject} read. The run's configuration (parameters, engine,
    budgets, candidate caps) lives in [Flow.Config]; stages that need it
    take it as an argument. *)

open Operon_util

type t = {
  rng : Prng.t;
  exec : Executor.t;
  sink : Instrument.sink;
  faults : Fault.log;
  strict : bool;
      (** fail fast with {!Fault.Error} instead of degrading gracefully *)
  injections : Fault.injection list;
      (** deterministic fault-injection sites (tests/CI) *)
}

val create :
  ?seed:int ->
  ?jobs:int ->
  ?sink:Instrument.sink ->
  ?strict:bool ->
  ?injections:Fault.injection list ->
  unit ->
  t
(** Fresh run state: [Prng.create seed] ([seed] defaults to 42, the
    repo-wide reproducibility seed), an executor of [jobs] workers
    (default 1, sequential), [sink] or a fresh one, an empty fault log,
    graceful degradation and no injections unless given. *)

val record_fault : t -> Fault.t -> unit
(** Append to the fault log and bump the stage's ["faults"] counter in
    the instrumentation sink. Coordinator-domain only. *)

val degrade :
  t ->
  stage:Instrument.stage ->
  ?net:int ->
  exn ->
  Printexc.raw_backtrace ->
  unit
(** The per-item failure policy of the fan-out stages: wrap the
    exception as a [stage] fault ({!Fault.of_exn}); a strict run re-raises
    it as {!Fault.Error} with the original backtrace, a degraded run
    records it ({!record_fault}) and lets the caller substitute a
    deterministic fallback. *)

val faults : t -> Fault.t list
(** Chronological fault log of the run so far. *)

val quarantined : t -> int array
(** Sorted, deduplicated ids of hyper nets quarantined by a per-net
    fault in the Baselines or Codesign stages. *)

val check_inject : t -> stage:Instrument.stage -> ?net:int -> unit -> unit
(** Raise {!Fault.Error} if a configured injection matches this
    (stage, net) site; otherwise a no-op. Safe to call from worker
    domains — it only reads the immutable [injections]. *)
