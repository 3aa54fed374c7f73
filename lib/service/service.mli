(** The batch synthesis service: {!Protocol} front-end over a
    {!Scheduler}.

    A service reads newline-delimited JSON requests, translates them
    into scheduler operations and renders response envelopes. It is
    transport-free: {!handle_line} maps one request line to one
    response line through the framing every serving mode shares
    ({!Protocol.handle_line}), and {!Transport.serve_channel} loops it
    over stdin/stdout — keeping the whole stack exercisable in CI
    without sockets.

    Designs are named by {e case}: the [resolve] callback maps a
    submitted case name (plus optional seed) to a design, so the
    service layer stays independent of the benchmark generator.

    Result JSON is rendered with [Export.flow_to_json ~timings:false] —
    a pure function of (design, configuration) — so a served result is
    byte-identical to a single-shot [Flow.synthesize] of the same job,
    whatever worker count executed it and whether or not the registry
    reused a prepared design. *)

open Operon

type t

val create :
  ?workers:int ->
  ?capacity:int ->
  ?registry_capacity:int ->
  resolve:(case:string -> seed:int option -> Signal.design option) ->
  params:Operon_optical.Params.t ->
  unit ->
  t
(** A service over a fresh {!Scheduler.create}[ ~workers ~capacity
    ~registry_capacity]. Workers are not started yet — tests drive
    {!handle_line} against a stopped pool to exercise queueing
    deterministically. *)

val start : t -> unit
(** Spawn the worker domains. *)

val handle_line : ?max_line:int -> t -> string -> string option
(** One request line to one response line, framed by
    {!Protocol.handle_line}: [None] for blank lines, never raises.
    Blocking semantics follow the protocol — [result] waits for the
    job's terminal state, everything else answers immediately. A shard
    lifts the [max_line] cap on its pipe from the fleet's parent, which
    capped the client's line already: the forwarded print of a request
    can be longer than the client's own text. *)

val shutdown : t -> unit
(** Graceful drain: accepted jobs finish, workers are joined. *)

val submitted_design :
  resolve:(case:string -> seed:int option -> Signal.design option) ->
  Protocol.submit ->
  (Signal.design, string) result
(** The design a submit names — its case resolved, then mutated as the
    request asks — or the ["validation"] envelope for an unknown case.
    The shard fleet routes on this design's fingerprint. *)

(** {2 The stats counter set}

    Named once, read two ways: the in-process [stats] reply applies
    each getter to one scheduler's counters, the shard fleet
    ({!Supervisor}) sums each named field over its shards' replies. *)

val stats_counters : (string * (Scheduler.counters -> int)) list
(** The top-level counters, in reply order. *)

val registry_counters : (string * (Registry.stats -> int)) list
(** The [registry] block's counters, in reply order. *)

val stats_reply :
  ?extra:(string * string) list ->
  counts:(string * int) list ->
  registry:(string * int) list ->
  capacity:int option ->
  unit ->
  string
(** The [stats] envelope: [counts], then the [registry] block
    ([registry] plus the registry [capacity], [null] when unbounded),
    then the raw [extra] fields. *)
