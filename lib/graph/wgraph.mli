(** Undirected weighted graphs on integer vertices (adjacency lists). *)

type edge = { u : int; v : int; w : float }

type t

val create : int -> t
(** [create n] makes an edgeless graph with vertices 0..n-1. *)

val vertex_count : t -> int

val add_edge : t -> int -> int -> float -> unit
(** Add an undirected edge; parallel edges are allowed. Raises
    [Invalid_argument] on out-of-range vertices. *)

val neighbors : t -> int -> (int * float) list
(** [(neighbor, weight)] pairs of a vertex. *)

val edges : t -> edge list
(** Each undirected edge listed once, with [u <= v]. *)

val complete_of_weights : int -> (int -> int -> float) -> t
(** [complete_of_weights n f] builds the complete graph where edge (i,j)
    weighs [f i j]; used for geometric MSTs over pin sets. *)
