(** Dinic's maximum-flow algorithm on directed networks with integer
    capacities. Used for feasibility checks of the WDM assignment network
    (can every connection be covered at all?) before costs are considered. *)

type t

val create : int -> t
(** [create n] builds an empty network on vertices 0..n-1. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> int
(** Add a directed arc and its residual twin; returns an arc handle usable
    with {!flow_on}. Raises [Invalid_argument] on bad vertices or negative
    capacity. *)

val max_flow : t -> source:int -> sink:int -> int
(** Value of a maximum source-sink flow. Can be called once per network
    state; subsequent calls continue from the current residual network. *)

val flow_on : t -> int -> int
(** Flow currently routed through an arc handle. *)

(** {2 Incremental editing}

    These let a caller retire edges from a solved network and re-solve
    from the residual state instead of rebuilding the graph — {!max_flow}
    already continues from the current residuals, and the max-flow value
    is a function of the (capacity-edited) graph alone, so a resumed
    solve is exact. *)

val snapshot : t -> int array
(** Copy of the current residual capacities. Only valid for {!restore}
    on the same network with the same arc count. *)

val restore : t -> int array -> unit
(** Reset the residual capacities to a {!snapshot}. Raises
    [Invalid_argument] if arcs were added since the snapshot. *)

val cancel : t -> int -> int -> unit
(** [cancel t h units] removes [units] of flow from arc [h] (refunds the
    forward capacity, debits the residual twin). The caller is
    responsible for restoring conservation by cancelling matching units
    on adjacent arcs. Raises [Invalid_argument] when [units] exceeds the
    arc's current flow. *)

val disable : t -> int -> unit
(** Zero both an arc's forward and residual capacity, so no flow can
    traverse it in either direction. Meant for arcs whose flow was first
    {!cancel}led to zero. *)

val reachable : t -> source:int -> bool array
(** Per vertex: can it be reached from [source] along arcs with residual
    capacity? After a {!max_flow} that fell short, the reached vertices
    are the source side of a minimum cut. Raises [Invalid_argument] on a
    vertex out of range. *)

val vertex_count : t -> int
