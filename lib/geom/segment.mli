(** Line segments and crossing tests.

    Optical waveguide crossings cost [β] dB each (Eq. 2 of the paper), so
    counting proper intersections between the segments of different nets is
    a core primitive of the loss model. *)

type t = { a : Point.t; b : Point.t }

val make : Point.t -> Point.t -> t

val length : t -> float
(** Euclidean length. *)

val length_l1 : t -> float
(** Manhattan length. *)

val is_horizontal : ?eps:float -> t -> bool

val is_vertical : ?eps:float -> t -> bool

val bbox : t -> Rect.t

val boxes : t array -> float array
(** The bboxes of a segment family in one flat array: segment [k]'s
    [xmin], [ymin], [xmax] and [ymax] at [4k] to [4k + 3]. *)

val boxes_overlap : float array -> int -> float array -> int -> bool
(** [boxes_overlap ba u bb v]: do the closed bboxes of segment [u] of
    [ba] and segment [v] of [bb] (each laid out as by {!boxes}) meet? A
    proper crossing lies inside both boxes, so the crossing kernels
    reject every pair whose boxes are disjoint before testing it. *)

val orientation : Point.t -> Point.t -> Point.t -> int
(** Sign of the cross product of [pq] x [pr]: +1 counter-clockwise, -1
    clockwise, 0 collinear (with a tolerance). *)

val on_segment : Point.t -> t -> bool
(** Does the (collinear) point lie within the segment's extent? *)

val intersects : t -> t -> bool
(** Closed intersection test, including collinear overlap and endpoint
    touching. *)

val crosses_properly : t -> t -> bool
(** True only for transversal crossings in segment interiors — the events
    that incur waveguide crossing loss. Shared endpoints (tree branching
    points) and collinear overlaps do not count. *)

val intersection_point : t -> t -> Point.t option
(** Intersection point of two non-parallel segments if they meet. *)

val has_intersection_point : t -> t -> bool
(** [intersection_point s1 s2 <> None], computed without allocating. *)

val count_crossings : t array -> t array -> int
(** Number of proper crossings between two segment families. *)

val exists_crossing : t array -> t array -> bool
(** [count_crossings fam1 fam2 > 0], stopping at the first crossing. *)

val count_self_crossings : t array -> int
(** Proper crossings among distinct pairs within one family. *)

val distance_point : Point.t -> t -> float
(** Euclidean distance from a point to the segment. *)

val pp : Format.formatter -> t -> unit
