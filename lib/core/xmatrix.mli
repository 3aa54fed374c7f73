(** Design-wide crossing-matrix cache.

    Crossing loss ([beta * n_x], paper Eq. 2) couples every pair of
    candidate selections in Formula (3): each optical path of a chosen
    candidate pays for the waveguide crossings against every neighbour's
    chosen candidate. The same (path, candidate) crossing counts are
    queried over and over — by every Lagrangian re-selection, by the ILP
    block programs, by the greedy feasibility repair and by the
    post-route signoff. This module computes them {e once}: for every
    directed neighbour pair of the selection context, the per-path
    crossing counts between every candidate pair are precomputed
    (Domain-parallel via {!Operon_util.Executor}).

    Each net's rows are packed into one byte block, in slot order, with
    a table of where each row starts. Row [(i, m)] is a header with one
    cell per candidate pair, holding [0] when every count of that entry is
    zero and otherwise where the entry's per-path counts start among the
    row's counts, followed by the non-zero entries' counts. Header cells
    and counts use the narrowest fixed width (1, 2, 4 or 8 bytes) that
    holds the net's largest value, so every count is stored exactly. Each
    pair also records its mirror slot, the slot of [i] in [m]'s neighbour
    row. The layout is private: consumers address an entry by net,
    neighbour slot and the two candidates, and a reader decodes it in
    place, adding that entry's losses into a float array the consumer
    owns.

    Counts are exact integers, so a loss derived from a cached count is
    bit-identical to recomputing the geometry from scratch; consumers
    reading through the matrix make the same floating-point decisions as
    the uncached path, at any [--jobs] setting.

    A {!direct} matrix answers the same reads by recomputing the one
    entry asked for from the geometry (every read counts as a miss) — the
    uncached reference mode used by the parity tests and [--no-cache].
    Cached and direct matrices go through the same readers.

    Like {!Operon_engine.Instrument}, the hit/miss statistics are plain
    mutable state owned by the domain that reads the matrix: reads must
    not be issued from several domains at once (each selection runs on
    one domain with its own context; the parallel {e build} mutates
    nothing shared). *)

open Operon_optical

type t

type stats = {
  enabled : bool;  (** false for a {!direct} matrix *)
  pairs : int;  (** directed neighbour pairs precomputed at build time *)
  entries : int;  (** candidate pairs with a non-zero count actually stored *)
  build_seconds : float;  (** wall-clock spent precomputing *)
  hits : int;  (** reads answered from the table *)
  misses : int;  (** reads that recomputed the geometry *)
}

val build :
  ?exec:Operon_util.Executor.t ->
  ?reuse:t * (int -> int -> bool) ->
  Candidate.t array array ->
  int array array ->
  t
(** [build ~exec cands neighbors] precomputes the matrix for every
    directed neighbour pair [(i, m)] with [m] in [neighbors.(i)]. The work
    fans out on [exec] (default sequential) twice. First, one task per
    undirected pair lists the crossings between the two nets' distinct
    optical edges, testing each edge pair once and skipping pairs whose
    bboxes are disjoint. Then one task per net assembles that net's rows
    in slot order and writes its block; rows [(i, m)] and [(m, i)] read
    the pair's one list, the second transposed. Results are merged in
    deterministic order, so the matrix contents do not depend on the
    backend. [neighbors] must be
    symmetric with ascending rows and no net in its own row (as built by
    [Selection.make_ctx]); raises [Invalid_argument] otherwise.

    [reuse = (prev, keep)] is the ECO fast path: when [keep i m] holds —
    the caller certifies both nets' candidate arrays are carried over
    from [prev] unchanged — and [prev] has rows for the pair, both rows
    [(i, m)] and [(m, i)] are copied from [prev] instead of recomputed,
    re-encoded when the new net's block stores its values at other
    widths. [keep] must be symmetric. Contents are bit-identical either
    way; only {!reused_rows} and the build time differ. A [direct] [prev]
    contributes nothing. *)

val optical_edges : Candidate.t array -> Operon_geom.Segment.t array
(** The distinct optical edges of one net's candidates: the segment of
    every edge that some candidate labels optical, once per topology value
    the candidates label. Any segment crosses one of these exactly when it
    crosses some candidate's [opt_segments], which repeat the same
    segments once per candidate. *)

val direct : Candidate.t array array -> t
(** A cache-free matrix over the same candidates: every read recomputes
    [Segment.count_crossings] of the one entry it reads and is counted as
    a miss. *)

val enabled : t -> bool

val find_slot : int array -> int -> int
(** [find_slot row m] is the slot of [m] in the ascending neighbour row
    [row] (binary search), or [-1] when [m] is not in it. *)

(** {2 Readers}

    Every reader addresses a neighbour by its slot: [m] must be
    [neighbors.(i).(k)] of the rows the matrix was built with (a direct
    matrix ignores [k]). Every entry read counts exactly one hit (table:
    one header cell) or one miss (direct: the entry recounted from the
    geometry); the single-entry readers read one entry per call, the row
    reader {!add_weighted_row} one per candidate of [i]. A count of zero
    adds nothing, so every sum a reader feeds must start at or above
    [+0.0]. *)

type bundled
(** [Loss.crossing_bundled] of one parameter set, tabulated for small
    counts. *)

val bundled : Params.t -> bundled

val add_losses :
  t -> bundled -> i:int -> k:int -> j:int -> m:int -> n:int -> float array -> int -> unit
(** [add_losses t b ~i ~k ~j ~m ~n acc off] adds, for every optical path
    [p] of candidate [(i, j)], the bundled crossing loss of [p] against
    the optical segments of candidate [(m, n)] onto [acc.(off + p)] — the
    Formula (3c) term [l_x(i,j,m,n,p)]. *)

val add_weighted_row :
  t -> bundled -> i:int -> k:int -> m:int -> n:int -> float array -> float array -> unit
(** [add_weighted_row t b ~i ~k ~m ~n w acc] adds, for every candidate
    [j] of net [i], the loss candidate [(i, j)] puts on the paths of
    neighbour candidate [(m, n)], path [q] weighted by [w.(q)]: for each
    path [q] of [(m, n)] in order,
    [acc.(j) <- acc.(j) +. w.(q) *. loss_q]. It reads [m]'s row through
    the mirror slot, whose header holds [(m, n)]'s entries against all of
    [i]'s candidates side by side, so the caller addresses it from [i]'s
    side. One header cell, and one hit or miss, per candidate of [i]. *)

val slot_counts : t -> i:int -> k:int -> j:int -> m:int -> n:int -> int array
(** The crossings between each optical path of candidate [(i, j)] and
    the optical segments of candidate [(m, n)], as a fresh array as long
    as [(i, j)]'s path list. *)

val mirror : t -> i:int -> k:int -> int
(** The slot of [i] in the neighbour row of [neighbors.(i).(k)]. Raises
    [Invalid_argument] on a {!direct} matrix. *)

(** {2 Statistics} *)

val stats : t -> stats
(** Immutable snapshot of the matrix statistics at this instant. *)

val reused_rows : t -> int
(** Directed pairs whose row was carried over from a previous matrix via
    [build ~reuse] (0 for a cold build or a {!direct} matrix). A kept
    pair carries both of its rows, so the count is even. Kept out
    of {!stats} deliberately: stats feed the export, and an ECO run's
    export must stay byte-identical to a cold run's. *)
