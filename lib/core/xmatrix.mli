(** Design-wide crossing-matrix cache.

    Crossing loss ([beta * n_x], paper Eq. 2) couples every pair of
    candidate selections in Formula (3): each optical path of a chosen
    candidate pays for the waveguide crossings against every neighbour's
    chosen candidate. The same (path, candidate) crossing counts are
    queried over and over — by the ILP linearization, by every Lagrangian
    subgradient iteration, by the greedy feasibility repair and by the
    post-route signoff. This module computes them {e once}: for every
    neighbour pair of the selection context, the per-path crossing counts
    between every candidate pair are precomputed (Domain-parallel over
    neighbour pairs via {!Operon_util.Executor}) and stored sparsely —
    all-zero rows share one canonical zero array.

    Counts are exact integers, so a loss derived from a cached count
    ([Loss.crossing_bundled] of it) is bit-identical to recomputing the
    geometry from scratch; consumers reading through the matrix make the
    same floating-point decisions as the uncached path, at any [--jobs]
    setting.

    A {!direct} matrix answers the same queries by recomputing the
    geometry per query (every query counts as a miss) — the uncached
    reference mode used by the parity tests and the cache benchmark.

    Like {!Operon_engine.Instrument}, the hit/miss statistics are plain
    mutable state owned by the coordinating domain: queries must not be
    issued from worker domains (the selection engines run on the
    coordinator only; the parallel {e build} mutates nothing shared). *)

open Operon_optical

type t

type stats = {
  enabled : bool;  (** false for a {!direct} matrix *)
  pairs : int;  (** directed neighbour pairs precomputed at build time *)
  entries : int;  (** non-zero candidate-pair rows actually stored *)
  build_seconds : float;  (** wall-clock spent precomputing *)
  hits : int;  (** queries answered from the table *)
  misses : int;  (** queries that recomputed the geometry *)
}

val build :
  ?exec:Operon_util.Executor.t ->
  ?reuse:t * (int -> int -> bool) ->
  Candidate.t array array ->
  int array array ->
  t
(** [build ~exec cands neighbors] precomputes the matrix for every
    directed neighbour pair [(i, m)] with [m] in [neighbors.(i)]. The
    per-pair work fans out on [exec] (default sequential); results are
    merged in deterministic order, so the matrix contents do not depend
    on the backend. [neighbors] must be symmetric (as built by
    [Selection.make_ctx]).

    [reuse = (prev, keep)] is the ECO fast path: when [keep i m] holds —
    the caller certifies both nets' candidate arrays are carried over
    from [prev] unchanged — and [prev] has a row for [(i, m)], that row
    is aliased instead of recomputed. Contents are bit-identical either
    way; only {!reused_rows} and the build time differ. A [direct]
    [prev] contributes nothing. *)

val direct : Candidate.t array array -> t
(** A cache-free matrix over the same candidates: every query recomputes
    [Segment.count_crossings] on the spot and is counted as a miss. *)

val enabled : t -> bool

val path_counts : t -> i:int -> j:int -> m:int -> n:int -> int array
(** Crossings between each optical path of candidate [(i, j)] and the
    optical segments of candidate [(m, n)]; length equals the path count
    of [(i, j)]. The returned array is shared with the cache — do not
    mutate it. *)

val slot_counts : t -> i:int -> k:int -> j:int -> m:int -> n:int -> int array
(** [path_counts] addressed by neighbour slot: [m] must be
    [neighbors.(i).(k)] of the neighbour rows the matrix was built with.
    A table read skips the neighbour-id lookup of {!path_counts}; a
    {!direct} matrix recomputes from [m]'s geometry. Each call counts one
    hit (table) or one miss (direct). *)

val count : t -> i:int -> j:int -> p:int -> m:int -> n:int -> int
(** Single-path variant of {!path_counts}. *)

val loss_on_path : t -> Params.t -> i:int -> j:int -> p:int -> m:int -> n:int -> float
(** [Loss.crossing_bundled params (count ...)] — the Formula (3c) term
    [l_x(i,j,m,n,p)], bit-identical to [Candidate.crossing_loss_on_path]. *)

val stats : t -> stats
(** Immutable snapshot of the matrix statistics at this instant. *)

val reused_rows : t -> int
(** Directed pairs whose row was carried over from a previous matrix via
    [build ~reuse] (0 for a cold build or a {!direct} matrix). Kept out
    of {!stats} deliberately: stats feed the export, and an ECO run's
    export must stay byte-identical to a cold run's. *)

val reset_counters : t -> unit
(** Zero the hit/miss counters (build statistics are kept) — used by the
    cache benchmark to attribute queries to one selection run. *)
