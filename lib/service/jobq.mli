(** Bounded, priority-ordered job queue with backpressure.

    A mutex+condition queue shared between the submission side (the
    protocol loop) and the {!Scheduler} worker domains. Capacity is a
    hard bound: a push against a full queue is {e rejected} immediately
    (the service answers a structured [busy] envelope) instead of
    blocking the protocol loop — under overload the service degrades by
    shedding load, never by stalling.

    Ordering is highest priority first, FIFO within one priority (a
    monotonic sequence number breaks ties), so equal-priority traffic is
    served in submission order.

    Every item is pushed with a {!Token.t}. Cancelling the token makes
    the item invisible: it is purged before capacity checks and never
    returned by {!pop}, so a cancelled job both frees its queue slot and
    never reaches a worker. *)

(** Cancellation token — an atomic flag shared by submitter and workers. *)
module Token : sig
  type t

  val create : unit -> t
  val cancel : t -> unit
  val cancelled : t -> bool
end

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Live (uncancelled) items currently queued. *)

val push : 'a t -> priority:int -> token:Token.t -> 'a -> [ `Queued | `Rejected | `Closed ]
(** Non-blocking. [`Rejected] when the queue already holds [capacity]
    live items; [`Closed] after {!close}. *)

val pop : 'a t -> 'a option
(** Block until an item is available, skipping cancelled items. [None]
    once the queue is closed {e and} drained — the worker's signal to
    exit. Items still queued at close time are drained first (graceful
    shutdown finishes accepted work). *)

val close : 'a t -> unit
(** Stop accepting pushes and wake every blocked {!pop}. Idempotent. *)
