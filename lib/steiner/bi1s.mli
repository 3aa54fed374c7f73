(** Batched Iterated 1-Steiner (BI1S) tree construction.

    The paper generates optical baseline topologies with BI1S, exploiting
    that optical waveguides can route at any angle (Euclidean metric) while
    electrical wires are rectilinear (L1 on the Hanan grid). Candidate
    Steiner points are drawn from the Hanan grid of the current point set;
    each round batch-evaluates every candidate's MST saving and greedily
    accepts re-verified winners until no candidate saves length. *)

open Operon_geom

val hanan_points : Point.t array -> Point.t array
(** Hanan-grid points (x from one input point, y from another), excluding
    the inputs themselves. *)

val mst_tree : Topology.metric -> Point.t array -> root:int -> Topology.t
(** Spanning tree over the terminals only (no Steiner points). The
    degenerate single-terminal case yields a one-node tree. *)

val build :
  ?max_rounds:int ->
  ?max_candidates:int ->
  Topology.metric ->
  Point.t array ->
  root:int ->
  Topology.t
(** BI1S tree over the terminals. [max_rounds] bounds batch rounds (default
    3); [max_candidates] caps the candidate pool per round (default 256,
    nearest-to-centroid candidates kept). Degree-1 and degree-2 Steiner
    points are spliced out of the result. *)

val subdivide : Topology.t -> max_len:float -> Topology.t
(** Insert degree-2 Steiner points so no edge exceeds [max_len]
    (Euclidean). Wirelength is unchanged; the extra nodes give the
    co-design DP intermediate EO/OE conversion sites — without them a
    two-pin net could only be entirely optical or entirely electrical. *)

val baselines : Point.t array -> root:int -> Topology.t list * Topology.t
(** A small diverse set of baseline topologies for the co-design DP: the
    Euclidean BI1S tree, the Euclidean MST, the rectilinear BI1S tree, and
    (for small nets) the root-star. Duplicate shapes are removed. Second,
    the rectilinear BI1S tree itself ({!Rsmt.tree}), whether or not its
    shape survived; for a single terminal, its one-node tree. *)
