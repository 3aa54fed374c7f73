(** The run-context threaded through every pipeline stage.

    One value carries everything a stage may consult: the immutable
    {!config} (optical parameters, selection mode, solver budgets,
    candidate caps, worker count, fault policy), the deterministic PRNG
    the run was seeded with, the {!Operon_util.Executor.t} parallel
    backend, the {!Instrument.sink} the stage reports into, and the
    {!Fault.log} the run's degradations accumulate in. Later scaling work
    (sharding, caching, async) extends this record rather than adding
    parameters to every stage signature. *)

open Operon_util
open Operon_optical

type mode = Ilp | Lr
(** Candidate-selection engine: exact ILP or Lagrangian relaxation. *)

val mode_name : mode -> string

type config = {
  params : Params.t;  (** optical device/loss parameters *)
  mode : mode;
  ilp_budget : float;  (** selection wall-clock cap, seconds *)
  max_cands_per_net : int;  (** co-design candidates kept per hyper net *)
  jobs : int;  (** executor workers; 1 = sequential *)
  strict : bool;
      (** fail fast with {!Fault.Error} instead of degrading gracefully *)
  injections : Fault.injection list;
      (** deterministic fault-injection sites (tests/CI) *)
  cache : bool;
      (** precompute the crossing-matrix cache during candidate-context
          construction (numbers are bit-identical either way) *)
  solver_core : Operon_solver.Solver.core;
      (** LP engine behind ILP selection: [Sparse] (revised simplex,
          the default) or [Dense] (pre-redesign tableau, parity runs) *)
}

val default_config : Params.t -> config
(** LR mode, 3000 s ILP budget (the paper's cap), 10 candidates per net,
    sequential execution, graceful degradation, no injections, crossing
    cache enabled, sparse solver core. *)

type t = {
  config : config;
  rng : Prng.t;
  exec : Executor.t;
  sink : Instrument.sink;
  faults : Fault.log;
}

val create : ?rng:Prng.t -> ?seed:int -> config -> t
(** Fresh context: an executor built from [config.jobs], an empty sink
    and an empty fault log. The PRNG is [rng] when given, else
    [Prng.create seed] ([seed] defaults to 42, the repo-wide
    reproducibility seed). *)

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
    domains — it only reads the immutable config. *)
