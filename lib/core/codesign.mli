(** Optical-electrical route co-design (paper Section 3.2).

    For each baseline tree topology, a bottom-up dynamic program — in the
    spirit of classic buffer insertion — labels every edge Optical or
    Electrical, tracking per-subtree (power, loss) behaviour and pruning
    dominated configurations, exactly as Fig. 5(b) of the paper sketches.
    Surviving root configurations are materialized as {!Candidate.t}
    values; the paper's Fig. 5(c) list corresponds to the output of
    {!enumerate} on the example topology.

    State per node [v], for the two scenarios the parent may impose:
    - [pow_e]: per-bit subtree power when the parent edge is electrical
      (or [v] is the root) — any optical subtrees topped at [v] are closed
      there by a modulator, so their loss is checked against the budget;
    - [pow_o]: per-bit subtree power when the parent edge is optical —
      light arrives from above, [v] taps it (detector) and/or relays it;
    - [up_loss]: in the parent-optical scenario, the worst accumulated
      loss from [v] down to any detector, including splitting at [v].

    A scenario that violates the detection budget is priced [infinity].
    Dominated states (all three fields no better) are pruned. *)

open Operon_geom
open Operon_optical
open Operon_steiner

val enumerate :
  ?max_cands:int ->
  ?edge_crossings:(int -> int) ->
  Params.t ->
  Hypernet.t ->
  Topology.t ->
  Candidate.t list
(** All non-dominated labellings of one topology, cheapest first.
    [max_cands] bounds the states kept per node (default 16).
    [edge_crossings v] estimates how many foreign optical segments cross
    the parent edge of node [v] (default: none); the estimate feeds the
    DP's loss pruning, while exact pairwise coupling is re-computed later
    by the ILP/LR stages. The all-electrical labelling is always present.
    Trivial single-pin hyper nets yield a single zero-power candidate. *)

val for_hypernet :
  ?max_cands:int ->
  ?max_total:int ->
  ?crossing_est:(Segment.t -> int) ->
  Params.t ->
  Hypernet.t ->
  Candidate.t list
(** Candidate set over all diverse baselines ({!baselines}) plus the
    dedicated rectilinear-Steiner electrical fallback, deduplicated and
    truncated to [max_total] (default 10) keeping the cheapest; the best
    pure-electrical candidate is always retained (Formula (3)'s [a_ie]).
    [crossing_est] is called once per distinct directed segment (see
    {!count}). *)

type gen_stats = {
  raw : int;  (** candidates materialized across all baselines *)
  deduped : int;  (** after identical-labelling dedup *)
  kept : int;  (** after the [max_total] truncation *)
}

type baselines = {
  topos : Topology.t list;
      (** {!Bi1s.baselines} over the net's terminals, rooted at pin 0, or
          [[]] for a trivial single-pin net. The first is the Euclidean
          BI1S tree, whose edges are the net's entries in the design-wide
          crossing index. *)
  rsmt : Topology.t;
      (** the tree of the electrical fallback: the rectilinear BI1S tree
          {!Bi1s.baselines} built ({!Rsmt.tree}), or the one-node tree of
          a single-pin net *)
}

val baselines : Hypernet.t -> baselines
(** The hyper net's baseline topologies and fallback tree. Every per-net
    step below reads them; the flow builds them once per net, in its
    baselines stage. *)

type xcounts = int array array
(** The crossing counts one hyper net's candidate generation consumes:
    one row per baseline topology (in {!baselines} order), indexed by
    node, holding the estimate for the node's parent edge (0 in the
    root's slot). [[||]] for trivial single-pin nets. The shape and the
    queried segments are a pure function of the hyper net's terminals. *)

val count :
  crossing_est:(Segment.t -> int) -> Topology.t list -> xcounts * int
(** [count ~crossing_est topos] materializes every crossing estimate
    {!generate} reads on [topos], and the number of [crossing_est]
    calls. A segment recurring across topologies is estimated once: the
    calls are one per distinct directed segment, keyed by the exact bits
    of its endpoints in order. Splitting the queries from the DP is what
    makes the counts a cacheable per-net artifact: an ECO re-preparation
    can patch them instead of re-querying the whole design's segment
    index. *)

val crossing_counts : crossing_est:(Segment.t -> int) -> Hypernet.t -> xcounts
(** {!count} on the net's own {!baselines}, without the call count. *)

val adjust_counts :
  sub:(Segment.t -> int) ->
  add:(Segment.t -> int) ->
  Topology.t list ->
  xcounts ->
  xcounts option
(** [adjust_counts ~sub ~add topos cached] re-derives the count table of
    an unchanged hyper net, whose baselines are [topos], when {e other}
    nets moved: each cached entry becomes [cached + add seg - sub seg],
    with [sub]/[add] counting crossings against only the changed nets'
    old/new baseline segments, each called once per distinct directed
    segment. Exact because crossing counts are additive over any
    partition of the design's segment set. [None] if [cached]'s shape
    does not match [topos] (the net itself changed — the caller must
    fall back to a full recount). *)

val generate :
  ?max_cands:int ->
  ?max_total:int ->
  counts:xcounts ->
  Params.t ->
  Hypernet.t ->
  baselines ->
  Candidate.t list * gen_stats
(** [generate ~counts params hnet b] is {!for_hypernet} on the net's
    {!baselines} [b] with every crossing estimate supplied up front,
    plus generation/prune counters for the pipeline's instrumentation
    sink. Given the counts a cold run would have queried, the output is
    bit-identical to the cold run's — the heart of the ECO per-net
    memoization. Raises [Invalid_argument] on a shape mismatch. *)

val for_hypernet_counted :
  ?max_cands:int ->
  ?max_total:int ->
  counts:xcounts ->
  Params.t ->
  Hypernet.t ->
  Candidate.t list * gen_stats
(** {!generate} on the net's own {!baselines}. *)

val electrical_only : Params.t -> Hypernet.t -> Candidate.t list
(** The deterministic quarantine fallback: just the dedicated
    rectilinear-Steiner all-electrical candidate (the paper's Eq. 6
    baseline realisation of [a_ie]), with no DP and no crossing
    estimates. This is what a faulting hyper net is routed with so the
    rest of the design can proceed. *)
