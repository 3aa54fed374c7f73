(** Spatial overlap index over axis-aligned rectangles.

    Replaces the O(n²) pairwise bbox sweeps in preparation: build once
    in O(n log n), then enumerate all overlapping pairs by sort and
    sweep, in O(n + s) for the [s] pairs of distinct rectangles that
    meet in x, or query one rectangle against the set through a hash
    grid built on the first query. Exact duplicates are collapsed into
    one entry, so adversarial inputs — many identical placeholder points,
    one far outlier — degrade gracefully instead of re-creating the
    quadratic sweep.

    Iteration order is unspecified for every function here; callers
    that need a deterministic order must sort what they collect. The
    reported {e sets} are exact: every overlapping pair (respectively
    every overlapping index) exactly once, under the closed-boundary
    overlap test of {!Rect.overlaps}. An index is queried from one
    domain at a time. *)

type t

val build : Rect.t array -> t
(** Index the given rectangles; indices reported by the other functions
    refer to positions in this array. *)

val iter_pairs : t -> (int -> int -> unit) -> unit
(** [iter_pairs t f] calls [f i j] with [i < j] exactly once for every
    pair of overlapping rectangles. *)

val iter_groups : t -> (int array -> unit) -> unit
(** Iterate over groups of indices whose rectangles are exactly equal
    (members ascending). Every index appears in exactly one group;
    groups may be singletons. Members of one group mutually overlap. *)

val iter_group_pairs : t -> (int array -> int array -> unit) -> unit
(** Group-level version of {!iter_pairs}: called exactly once per
    unordered pair of {e distinct} overlapping rectangles, with the
    member groups of each side. Together with {!iter_groups} this lets
    union-find callers add one edge per group pair plus a chain per
    group instead of materializing every member-level pair. *)

val query : t -> Rect.t -> (int -> unit) -> unit
(** [query t r f] calls [f i] exactly once for every indexed rectangle
    overlapping [r]. [r] need not be finite. *)

val overlaps_any : t -> Rect.t -> bool
(** Does any indexed rectangle overlap [r]? *)
