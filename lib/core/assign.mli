(** Network-flow WDM re-assignment (paper Section 4.2, Figs. 6-7).

    The sweep placement is sequential and leaves sharable capacity on the
    table; re-assigning connections {e concurrently} through a min-cost
    max-flow network retires idle waveguides. The network is the paper's:
    source -> connections -> nearby WDMs (within [dis_u]) -> sink, with
    connection bit counts as capacities, perpendicular displacement as
    connection-to-WDM cost and a WDM usage cost on the sink arcs. Because
    the network is a transportation network the optimum is integral (the
    paper's uni-modularity remark).

    Waveguide retirement works by feasibility probing: tracks are visited
    lightest-loaded first, and a track is removed whenever a max-flow
    check proves the remaining tracks still carry every connection bit.
    The final min-cost max-flow computes the cheapest concurrent
    assignment onto the surviving tracks.

    Connections only reach tracks within [dis_u], so the network splits
    into the connected components of the connection–track eligibility
    graph, and no bit ever moves between them. Both steps are solved one
    component at a time: retirement returns exactly what one network
    would, and the assignment has the same flow value and cost, though
    among equal-cost optima it may pick a different one. *)

open Operon_optical

type result = {
  tracks : Wdm.track array;  (** surviving tracks, usage updated *)
  flows : (int * int) list array;
      (** per connection id: (surviving-track index, bits) — a connection
          may split across parallel waveguides *)
  initial_count : int;
  final_count : int;
  displacement_cost : float;  (** total perpendicular movement, cm-bits *)
}

val feasible :
  Params.t -> Wdm.conn array -> Wdm.orientation -> Wdm.track array -> bool
(** Max-flow certificate: can the given track subset (all of one
    orientation) carry every bit of that orientation's connections?
    This is the predicate the retirement pass answers incrementally;
    it is exported so tests can check the incremental pass against the
    direct rebuild-per-subset definition. *)

val survivors :
  Params.t -> Wdm.conn array -> Wdm.orientation -> Wdm.track array -> int list
(** Indices (into the full track array) of one orientation's surviving
    tracks, in retirement order (lightest-loaded first): visiting tracks
    lightest-first, a track is retired whenever {!feasible} holds for
    the remaining set. Computed on one incrementally-edited flow network
    per eligibility component (a track no connection reaches is retired
    outright); the result is identical to probing each subset from
    scratch. When even the full set is infeasible, every track is
    kept. *)

val run : Params.t -> Wdm_place.placement -> result
(** On a feasible placement [final_count <= initial_count]. A placement
    can be infeasible: legalization pushes stacked tracks [dis_l] apart,
    which may move some beyond [dis_u] of every connection they were
    opened for. Then [run] raises [Operon_engine.Fault.Error] with stage
    [Assign] and kind [Capacity]; its one-line detail names the
    orientation, the unroutable bits and the lowest connection index of
    the first short component. *)

val reduction_ratio : result -> float
(** [(initial - final) / initial]; 0 when no track could be removed. The
    paper reports 8.9 % on average (Fig. 8). *)
