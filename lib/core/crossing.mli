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
    uniform [cells] x [cells] bucket grid (default 32). A bucket lists
    every entry whose bbox cell range contains its cell, grouped by
    whether that range starts in the cell's column and in its row. A
    query walks the cells of its own bbox cell range and reads each entry
    only in the first cell the two ranges share, so it reads each entry
    at most once and tests each (entry, query) pair once. *)

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
