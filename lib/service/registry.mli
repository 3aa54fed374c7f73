(** In-memory store of prepared designs, keyed by content hash.

    The expensive front half of the flow — signal processing, BI1S
    baselines, the co-design DP and the crossing-matrix build
    ([Flow.prepare]) — depends only on the design's content and the
    preparation-relevant slice of the configuration (seed, candidate
    cap, optical parameters, processing overrides). The registry
    computes that key once per submission and hands repeated requests
    the already-prepared {!Operon.Flow.prepared}, so a fleet of jobs
    against the same design pays for candidate generation once. ECO resubmissions pass
    {!find_or_prepare} the previous entry's artifacts, against which a
    revised design is re-prepared incrementally.

    Capacity: by default the registry is unbounded. With
    [create ~capacity], inserting past the cap evicts the
    least-recently-used entries (the just-inserted entry is never the
    victim). An entry whose lock is held — mid-preparation, or running
    a selection — is never evicted either: evicting it would let a
    concurrent submit of the same content hash re-create and re-prepare
    a design already being prepared. When every candidate is locked the
    table overflows temporarily rather than drop one. Eviction only
    drops the registry's reference — jobs still running on an evicted
    entry keep it alive and are unaffected.

    Thread model: the registry itself is guarded by one mutex (cheap
    lookups only); each entry carries its own lock, held while the entry
    is being prepared and while a selection runs on its shared
    {!Operon.Selection.ctx}. The context's crossing matrix keeps plain
    mutable hit/miss counters, so selections on the {e same} entry are
    serialized by that lock; jobs on different designs run fully in
    parallel. Selection results are bit-identical to a fresh
    single-shot run — the cache never changes what is computed. *)

open Operon

type t

type entry
(** One prepared design. *)

type stats = {
  entries : int;  (** designs currently held *)
  hits : int;  (** submissions that reused a prepared design *)
  misses : int;  (** submissions that had to prepare *)
  evictions : int;  (** entries dropped by the LRU capacity cap *)
  capacity : int option;  (** the cap; [None] = unbounded *)
}

val create : ?capacity:int -> unit -> t
(** [capacity], when given, must be at least 1. *)

val fingerprint : Signal.design -> string
(** Content hash (hex digest) of a design: die rectangle plus every
    group's name and exact pin coordinates. Equal designs — however they
    were produced — share a fingerprint. *)

val key : Flow.Config.t -> Signal.design -> string
(** Registry key: the design {!fingerprint} combined with the
    preparation-relevant configuration (seed, candidate cap, optical
    parameters, processing overrides). Selection-only settings
    (mode, budget) deliberately do not participate, so an ILP and an LR
    job against one design share the prepared entry. *)

val find_or_prepare :
  ?prev:Flow.prepared ->
  t ->
  config:Flow.Config.t ->
  Signal.design ->
  entry * bool
(** Look the design up, preparing it on first sight (the preparation
    runs outside the registry mutex, under the entry's own lock, so
    other designs are not blocked). Returns [(entry, reused)]; [reused]
    is [false] for the submission that performed the preparation.
    With [prev], a first-sight design is prepared with
    {!Operon.Flow.prepare_eco} against it — per-net incremental,
    bit-identical to the cold preparation; a design already in the
    registry is reused as-is without consulting [prev]. *)

val find_prepared : t -> config:Flow.Config.t -> Signal.design -> Flow.prepared option
(** Peek: the prepared artifacts for this (config, design) key if the
    registry holds them, bumping the entry's recency but not the
    hit/miss counters. This is how a resubmission locates its parent's
    artifacts. *)

val with_prepared : entry -> (Flow.prepared -> 'a) -> 'a
(** Run [f] on the entry's prepared data while holding the entry lock —
    the required discipline for anything that queries the shared
    crossing matrix (selection, signoff). *)

val stats : t -> stats
