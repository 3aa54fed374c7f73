(** Worker pool executing synthesis jobs over OCaml 5 [Domain]s.

    One scheduler owns a {!Registry}, a bounded {!Jobq} and [workers]
    long-lived domains. Each worker loops: pop a job, run the selection
    half of the flow on the registry's prepared context ([jobs = 1]
    inside a worker — parallelism is {e across} jobs, and flow results
    are bit-identical at any worker count), publish the outcome, repeat.
    This inverts the {!Operon_util.Executor} pattern — per-batch domains
    fanning out inside one flow — into persistent domains amortized
    across many flows.

    Deadlines degrade, they don't kill: a job's remaining deadline is
    clamped onto its selection budget, so an overrunning solver walks
    the ILP → LR → greedy → electrical fallback chain (PR 2 machinery)
    inside the worker instead of being aborted; only a deadline that
    expires {e before} the job starts ends the job outright, as
    [Expired]. A worker survives any job outcome and immediately serves
    the next job.

    Shutdown is a graceful drain: the queue closes, already-accepted
    jobs finish, then the domains are joined. *)

open Operon

type outcome =
  | Completed of Flow.t
  | Failed of Operon_engine.Fault.t  (** job raised; worker survived *)
  | Cancelled  (** cancelled while still queued *)
  | Expired of float  (** deadline passed [s] seconds before the job started *)

type state = Queued | Running | Finished of outcome

val state_name : state -> string
(** ["queued"], ["running"], ["completed"], ["failed"], ["cancelled"]
    or ["expired"]. *)

type counters = {
  submitted : int;  (** accepted into the queue *)
  completed : int;
  failed : int;
  rejected : int;  (** refused with [busy] — queue was full *)
  cancelled : int;
  expired : int;
  queue_depth : int;  (** live queued jobs right now *)
  workers : int;  (** worker domains *)
  registry : Registry.stats;
}
(** The scheduler's only account of its jobs: the [stats] reply reads
    these fields and nothing else counts them. *)

type t

val create :
  ?workers:int -> ?capacity:int -> ?registry_capacity:int -> unit -> t
(** [workers] domains (default 1; at least 1) over a queue bounded at
    [capacity] (default 64). [registry_capacity] bounds the design
    registry with LRU eviction (default unbounded). Workers are not
    spawned until {!start}. *)

val start : t -> unit
(** Spawn the worker domains. Idempotent; a no-op after {!shutdown}. *)

val submit :
  t ->
  ?job:string ->
  ?priority:int ->
  ?deadline:float ->
  ?parent:string ->
  ?initial:int array ->
  config:Flow.Config.t ->
  Signal.design ->
  (string, [ `Busy of string | `Duplicate of string ]) result
(** Enqueue a job; returns its id ([job] when given, else generated).
    [`Busy] when the queue is full or the scheduler is shutting down —
    the caller maps it to the protocol's [busy] envelope. [`Duplicate]
    when [job] names an existing job. [deadline] is seconds from now.

    ECO resubmission: [parent] names an earlier job whose prepared
    artifacts (if still registered) seed an incremental re-preparation
    of this job's design; [initial] warm-starts the selection solver
    from the parent's choice vector. Both are accelerators only — the
    result is bit-identical with or without them, and a vanished parent
    entry degrades silently to a cold preparation. *)

val state : t -> string -> state option
(** Non-blocking probe; [None] for an unknown id. *)

val wait : t -> string -> outcome option
(** Block until the job reaches a terminal state; [None] for an unknown
    id. Only sensible after {!start} (a queued job cannot finish
    otherwise). *)

val cancel : t -> string -> [ `Cancelled | `Already of state | `Unknown ]
(** Cancel a still-queued job: frees its queue slot and guarantees no
    worker will run it. Running or finished jobs are [`Already]. *)

val result : t -> string -> Flow.t option
(** The flow of a completed job, if it is one. *)

val job_spec : t -> string -> (Flow.Config.t * Signal.design) option
(** The configuration and design a job was submitted with — how a
    resubmission inherits its parent's design. *)

val eco_stats : t -> string -> Flow.eco_stats option
(** The ECO re-preparation statistics of a job, when its preparation
    ran (rather than reused a registry hit) via the ECO path. *)

val counters : t -> counters

val shutdown : t -> unit
(** Close the queue, drain accepted jobs, join the workers. Idempotent;
    subsequent submits are [`Busy]. *)
