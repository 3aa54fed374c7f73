(** Crossing-loss coupling support.

    Waveguide crossings couple the loss of different hyper nets: Formula
    (3c) contains the quadratic term [l_x(i,j,m,n,p) * a_ij * a_mn]. Two
    facilities live here:

    - a spatial index over baseline optical segments that gives the
      co-design DP a cheap estimate of how contested an edge is;
    - the Section 3.3 {e speed-up}: crossing variables are only kept for
      hyper net pairs whose bounding boxes overlap, and the interaction
      graph decomposes the ILP into independent components. *)

open Operon_geom

type index

val build_index : die:Rect.t -> ?cells:int -> (int * Segment.t) array -> index
(** [build_index ~die segments] indexes [(net_id, segment)] pairs on a
    uniform [cells] x [cells] bucket grid (default 32). Each query then
    either walks the buckets of its bbox cell range or makes one pass over
    every entry, whichever visits fewer entries (see {!walks}); the count
    is the same either way. *)

val walks : index -> Segment.t -> bool
(** Whether {!count_crossings} answers a query on this segment by walking
    the buckets of its bbox cell range ([true]) or by one pass over every
    entry ([false]). The walk visits an entry once per bucket it shares
    with the range, but tests each (entry, query) pair only in the first
    of those buckets, so both paths test each pair once. *)

val count_crossings : index -> exclude_net:int -> Segment.t -> int
(** Proper crossings that have an intersection point
    ({!Segment.has_intersection_point}) between a query segment and every
    indexed segment belonging to a different net. A pair whose bboxes are
    disjoint is rejected before the crossing test. *)

val estimator : index -> net:int -> Segment.t -> int
(** Estimation closure handed to {!Codesign.for_hypernet}. *)

val interaction_components : Rect.t array -> int array array
(** Group nets whose bounding boxes overlap (transitively) into connected
    components — each becomes one independent selection subproblem.
    Input: per-net bounding box; output: arrays of net ids. *)

val interacting_pairs : Rect.t array -> (int * int) list
(** All pairs (i < j) with overlapping bounding boxes — the pairs whose
    crossing variables the reduced formulation retains. *)
