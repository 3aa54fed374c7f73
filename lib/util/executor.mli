(** Pluggable work executor: sequential or an OCaml 5 [Domain] pool.

    The pipeline engine hands an executor to every stage whose work is
    embarrassingly parallel (one task per hyper net). Results are always
    merged in input order, so a run is bit-identical whichever backend
    executes it — parallelism never changes what is computed, only how
    fast. Tasks must therefore be self-contained: any randomness a task
    needs is derived from a per-task seed split off {e before} the fan-out
    (see [Flow.prepare]), never drawn from shared mutable state.

    Scheduling is dynamic (an atomic next-index counter), so uneven task
    sizes balance across domains. Exceptions raised by tasks are caught on
    the worker, and after the batch completes the failure with the lowest
    input index is re-raised with its original backtrace — deterministic
    no matter which domain ran it. *)

type t
(** An executor backend. Immutable and reusable across calls; domains are
    spawned per batch, so an idle executor holds no threads. *)

val sequential : t
(** Runs every task inline on the calling domain. *)

val create : jobs:int -> t
(** [create ~jobs] is a pool of [jobs] domains ([jobs <= 1] degrades to
    {!sequential}). The calling domain itself works as one of the [jobs]
    workers, so [jobs = 4] spawns three extra domains. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — a sensible [--jobs] default. *)

val jobs : t -> int
(** Worker count (1 for {!sequential}). *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map exec f xs] maps [f] over [xs]; [Array.map f xs] but
    distributed. Output order matches input order. If any task raises, the
    batch still runs to completion and the lowest-index exception is
    re-raised. *)

val parallel_mapi : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Index-aware {!parallel_map}. *)

val try_parallel_mapi :
  t -> (int -> 'a -> 'b) -> 'a array -> ('b, exn * Printexc.raw_backtrace) result array
(** Like {!parallel_mapi}, but never re-raises: each item's outcome is
    returned as [Ok y] or [Error (exn, backtrace)] in input order. This
    is the fault-tolerant fan-out primitive — callers decide per item
    whether to quarantine (substitute a fallback) or propagate, instead
    of losing the whole batch to its lowest-index failure. *)
