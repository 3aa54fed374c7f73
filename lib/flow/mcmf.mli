(** Min-cost flow by successive shortest paths with Johnson potentials.

    This replaces the LEMON solver the paper used for WDM re-assignment
    (Section 4.2). Costs are non-negative floats (perpendicular
    displacement distances and WDM usage costs); capacities are integers
    (channel counts). Because the assignment network is a bipartite
    transportation network, the optimal basic solution is integral,
    exactly as the paper's uni-modularity remark requires. [Assign]
    builds one network per connected component of the connection–track
    eligibility graph and lets each connection supply its own bits, so
    each Dijkstra starts at one connection and stops as soon as the sink
    is settled. *)

type t

val create : int -> t
(** [create n] builds an empty network on vertices 0..n-1. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> cost:float -> int
(** Add a directed arc with capacity and per-unit cost; returns an arc
    handle for {!flow_on}. Raises [Invalid_argument] on bad vertices, a
    negative capacity, or a negative or NaN cost: non-negative costs are
    what lets {!solve} start from zero potentials. *)

type solution = {
  flow : int;  (** units that reached the sink *)
  cost : float;  (** total cost of the flow *)
  searches : int;  (** shortest-path searches run, failed ones included *)
}

val solve : t -> supplies:(int * int) array -> sink:int -> solution
(** Route each [(vertex, units)] supply to [sink] in array order: from
    each supply vertex, augment along shortest paths (up to the units
    still left) until its units are spent or the sink is out of its
    reach. Each Dijkstra starts at that vertex alone and stops once the
    sink is settled; settled vertices then move their potential by their
    own distance less the sink's, every other vertex keeps its own, which
    keeps every residual reduced cost non-negative whichever vertex the
    search started from.

    [flow] is always the maximum flow from the supply vertices (each
    capped at its units) to the sink: a supply vertex that loses the sink
    never regains it. The flow is of minimum cost among flows that take
    as many units from each supply vertex, so when every supply is spent
    it is a minimum-cost flow of the whole network; [[|(source,
    max_int)|]] is the classic single-source min-cost max-flow. Raises
    [Invalid_argument] on a sink or supply vertex out of range, a supply
    at the sink, or negative units. *)

val flow_on : t -> int -> int
(** Flow routed on an arc handle (valid after {!solve}). *)
