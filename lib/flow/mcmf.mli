(** Min-cost max-flow by successive shortest paths with Johnson potentials.

    This replaces the LEMON solver the paper used for WDM re-assignment
    (Section 4.2). Costs are non-negative floats (perpendicular
    displacement distances and WDM usage costs); capacities are integers
    (channel counts). Because the assignment network is a bipartite
    transportation network, the optimal basic solution is integral,
    exactly as the paper's uni-modularity remark requires. [Assign]
    builds one network per connected component of the connection–track
    eligibility graph, so each Dijkstra runs over one component only; it
    stops as soon as the sink is settled. *)

type t

val create : int -> t
(** [create n] builds an empty network on vertices 0..n-1. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> cost:float -> int
(** Add a directed arc with capacity and per-unit cost; returns an arc
    handle for {!flow_on}. Raises [Invalid_argument] on bad vertices, a
    negative capacity, or a negative or NaN cost: non-negative costs are
    what lets {!solve} start from zero potentials. *)

val solve : t -> source:int -> sink:int -> int * float
(** [(flow, cost)] of a minimum-cost maximum flow. Each augmentation's
    Dijkstra stops once the sink is settled; settled vertices then move
    their potential by their own distance and every other vertex by the
    sink's, which keeps every residual reduced cost non-negative. *)

val flow_on : t -> int -> int
(** Flow routed on an arc handle (valid after {!solve}). *)
