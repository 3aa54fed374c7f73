(** Fault-isolated multi-process serving: a parent that forks N shard
    worker processes and consistent-hashes design content-hashes across
    them.

    Each shard is a forked child running a full in-process {!Service}
    (scheduler, Domain worker pool, registry) behind a pipe pair; a
    crash — segfault, OOM kill, uncaught exception — loses that shard
    only. The parent:

    - routes [submit] by the design's {!Registry.fingerprint} on a
      consistent hash ring (virtual nodes), so repeated submissions of
      one design land on the shard that already holds it prepared, at
      any shard count; [resubmit] follows its parent job's shard (the
      ECO artifacts live there);
    - forwards the client's own request object with only [job] set
      ({!Protocol.forward_line}), so a shard runs exactly what the
      client sent, and answers the same bytes the in-process service
      does;
    - detects shard death via [waitpid], classifies the crash (exit vs.
      signal), restarts after a backoff of 0.25 s doubling per
      consecutive crash up to 8 s, and trips a circuit breaker after 5
      crash-loop deaths in a row (uptime under 1 s);
    - re-forwards a dead shard's in-flight jobs to a survivor {e at most
      once} per job — idempotent because synthesis is a pure function
      of the request and the replay is the same forwarded line, so a
      retried job's result is byte-identical to a single-shot run;
    - sheds at dispatch: a job whose whole deadline is below the target
      shard's observed p95 service time (last 64 completions, at least
      8 observed) is rejected with a ["shed"] envelope instead of
      consuming a shard slot;
    - counts restarts, retries, sheds and crash kinds per shard; the
      [stats] envelope sums them in its [supervisor] block and lists
      them in its [shards] array.

    Concurrency rule: the parent runs {e systhreads only}. The OCaml 5
    runtime refuses [Unix.fork] once any domain has ever been created
    in a process, and the parent must fork restarts for as long as it
    lives; the forked children create their own Domain pools, which is
    permitted. *)

open Operon

type t

val create :
  ?shards:int ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?registry_capacity:int ->
  resolve:(case:string -> seed:int option -> Signal.design option) ->
  params:Operon_optical.Params.t ->
  unit ->
  t
(** Defaults: 2 shards, 1 worker domain per shard, unbounded queue and
    registry per shard, circuit breaker after 5 consecutive crashes
    with under 1 s uptime, restart backoff 0.25 s doubling up to 8 s.
    [resolve] and [params] are inherited by every shard's service. *)

val on_child_fork : t -> (unit -> unit) -> unit
(** Register a hook run inside each freshly forked shard child, before
    its service starts — used to close inherited fds the child must not
    hold ({!Transport.close_in_child}). *)

val start : t -> unit
(** Fork the shards and start the [waitpid] monitor. *)

val handle_line : t -> string -> string option
(** One request line to one response line — the same framing as
    {!Service.handle_line} ({!Protocol.handle_line}), same envelopes
    byte-for-byte for jobs that run undisturbed. [None] for blank
    lines; never raises. [result] blocks until the job's terminal
    envelope arrives from its shard (or the crash-retry path resolves
    it). *)

val pids : t -> int list
(** The pids of the currently {e running} shard children, in shard
    order — restarting and broken shards are absent. For operational
    introspection and crash-injection tests. *)

val shutdown : t -> unit
(** Close every shard's request pipe (EOF = graceful drain: accepted
    jobs finish and their terminal envelopes are flushed), reap the
    children, join the monitor and fail any still-parked [result]
    waiters with a ["shard_crash"] envelope. *)
