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
    a table of where each row starts. Row [(i, m)] is a set of bitmasks
    over the pair's crossings, numbered [0 .. k - 1]: one mask per
    optical path of [i], whose bit [c] says the path runs over crossing
    [c]'s edge of [i], then one mask per candidate of [m], whose bit [c]
    says the candidate labels crossing [c]'s edge of [m] optical. The
    count of path [p] of [(i, j)] against [(m, n)] is the popcount of
    the AND of their two masks. A row's masks share one width, the
    narrowest for its [k]: one word of 1, 2 or 4 bytes up to 32
    crossings, then one 8-byte word per 63 crossings; the width follows
    from the row's length, so no row stores it. Each pair also records
    its mirror slot, the slot of [i] in [m]'s neighbour row. The layout
    is private: consumers address an entry by net, neighbour slot and the
    two candidates, and a reader counts it in place, adding that entry's
    losses into a float array the consumer owns.

    Counts are exact integers, so a loss derived from a cached count is
    bit-identical to recomputing the geometry from scratch; consumers
    reading through the matrix make the same floating-point decisions as
    the uncached path, at any [--jobs] setting.

    A {!direct} matrix answers the same reads by recomputing the one
    entry asked for from the geometry (every read counts as a miss) — the
    uncached reference mode used by the parity tests and the ledger, and
    the design-wide context of a partitioned flow.
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
  entries : int;
      (** candidate pairs [(j, n)] of a directed pair with a non-zero
          count: some path of [(i, j)] crosses [(m, n)] *)
  build_seconds : float;
      (** wall-clock spent in {!build}: writing the blocks, plus listing
          the crossings when no [lists] were handed over *)
  hits : int;  (** reads answered from the table *)
  misses : int;  (** reads that recomputed the geometry *)
}

type edges
(** One net's live optical edges — every edge some candidate labels
    optical, once per topology value — with their boxes and the box
    around them all. A segment crosses one exactly when it crosses some
    candidate's [opt_segments]. *)

val edges : Candidate.t array -> edges

val bbox : edges -> Operon_geom.Rect.t option
(** The net's optical bounding box, [None] without live edges. *)

val lister : unit -> first:bool -> edges -> edges -> int array
(** [lister ()] lists two nets' crossings: [list ~first a b] holds each
    pair of a live edge of [a] and one of [b] that cross properly, in
    lexicographic order, testing only the edges that meet the other
    net's box; with [~first] it stops at the first. It keeps scratch
    between calls: one domain may use it. *)

val build :
  ?exec:Operon_util.Executor.t ->
  ?reuse:t * (int -> int -> bool) ->
  ?lists:edges array * int array array array ->
  Candidate.t array array ->
  int array array ->
  t
(** [build ~exec cands neighbors] precomputes the matrix for every
    directed neighbour pair [(i, m)] with [m] in [neighbors.(i)]. Each
    undirected pair has one crossing list ({!lister}), its crossings
    numbered in order. One task per net on [exec] (default sequential)
    writes that net's block, allocated once at its final size: each
    crossing sets one bit in the masks of the paths and candidates that
    cross there and counts the row's {!stats.entries}. Rows [(i, m)] and
    [(m, i)] read the pair's one list, the second transposed. Results
    merge in net order, so the contents do not depend on the backend.
    [neighbors] must be symmetric with ascending rows and no net in its
    own row (as built by [Selection.make_ctx]); raises
    [Invalid_argument] otherwise.

    [lists = (edges, upper)] hands over lists already made:
    [edges.(i) = edges cands.(i)], and [upper.(i).(x)] lists [i] against
    the [x]-th net of its row above [i] ([[||]] for a pair [reuse]
    keeps). Without it they are made here, one task per net.

    [reuse = (prev, keep)] is the ECO fast path: when [keep i m] holds —
    the caller certifies both nets' candidate arrays are carried over
    from [prev] unchanged — and [prev] has rows for the pair, both rows
    are byte copies of [prev]'s (same list, same masks), whose entries
    are counted from their masks. [keep] must be symmetric. Contents are
    bit-identical either way; only {!reused_rows} and the build time
    differ. A [direct] [prev] contributes nothing. *)

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
    the entry counted from its masks) or one miss (direct: the entry
    recounted from the geometry); the single-entry readers read one entry
    per call, the row reader {!add_weighted_row} one per candidate of
    [i]. A count of zero adds nothing, so every sum a reader feeds must
    start at or above [+0.0]. *)

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
    the mirror slot, which holds [(m, n)]'s path masks and the masks of
    all of [i]'s candidates side by side, so the caller addresses it from
    [i]'s side. One hit or miss per candidate of [i]. *)

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
