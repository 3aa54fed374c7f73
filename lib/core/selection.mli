(** Shared machinery for the two candidate-selection engines (Formula 3).

    A {!ctx} precomputes, for the whole design: the candidate arrays, the
    optical bounding box of every hyper net, the Section 3.3 interaction
    neighbourhoods (only nets with overlapping boxes can cross), each
    net's electrical fallback, and the {!Xmatrix} crossing-count cache
    shared by every consumer of the pairwise crossing term. Both the ILP
    and the Lagrangian solver evaluate selections through this context,
    so "feasible" and "power" mean exactly the same thing to both.

    Evaluation comes in two forms: the stateless {!net_path_losses} /
    {!worst_violation} full recompute, and the incremental {!Eval}
    evaluator that tracks one assignment and re-derives only the nets a
    flip actually touched (the flipped net and its neighbours). Both read
    crossing counts through [ctx.xmat] and both produce bit-identical
    floats, cache on or off. *)

open Operon_geom
open Operon_optical

(** Thermal scenario state: per-(net, candidate, path) detuning
    penalties precomputed against a static {!Operon_thermal.Thermal_map},
    the per-candidate worst-path penalty, and the objective weight
    trading power against thermal cost. Path penalties never depend on
    the neighbours' choices (the map is fixed per run), so one profile
    serves a whole Pareto weight ladder and the crossing cache stays
    valid across it. *)
type thermal = {
  penalty : float array array array;
      (** [(i)(j)(p)]: detuning dB added to path [p] of candidate [j] of
          net [i] *)
  tcost : float array array;
      (** [(i)(j)]: worst path penalty of the candidate *)
  weight : float;  (** objective weight on [tcost]; non-negative *)
}

type ctx = {
  params : Params.t;
  cands : Candidate.t array array;  (** candidates per hyper net *)
  bboxes : Rect.t option array;
      (** optical bounding box per net ([None] if no candidate has optical
          geometry) *)
  neighbors : int array array;
      (** nets whose optical boxes overlap this net's box *)
  elec_idx : int array;  (** per net: index of its cheapest pure-electrical
                             candidate — the Formula (3) [a_ie] variable *)
  xmat : Xmatrix.t;
      (** shared crossing-count matrix over the neighbour pairs; a direct
          (uncached) oracle when the context was built with [~cache:false] *)
  bundled : Xmatrix.bundled;
      (** [params]' crossing loss per count, tabulated for the matrix
          readers *)
  thermal : thermal option;
      (** thermal scenario of this context ([None] = the historical,
          temperature-blind model — bit-identical to pre-thermal runs) *)
}

val make_ctx :
  ?exec:Operon_util.Executor.t ->
  ?cache:bool ->
  ?reuse:ctx * bool array ->
  Params.t ->
  Candidate.t list array ->
  ctx
(** Build the selection context. With [cache] (default [true]) the
    crossing matrix is precomputed for every neighbour pair, fanning the
    per-pair work out on [exec] (default sequential — pass the run's
    executor to parallelize). Raises [Invalid_argument] if some net has
    no candidates or lacks a pure-electrical fallback.

    [reuse = (prev, ok)] is the ECO fast path: [ok.(i)] certifies that
    net [i]'s candidate list is physically carried over from the
    preparation that built [prev]. Pairs of carried-over nets answer the
    neighbour test from [prev]'s adjacency (binary search on its sorted
    rows) and share [prev]'s Xmatrix rows; pairs touching a recomputed
    net evaluate the geometry as a cold build would. The resulting
    context is bit-identical to a cold [make_ctx] on the same candidate
    lists. Ignored when the array lengths disagree. *)

val uncached : ctx -> ctx
(** The same context with the crossing cache replaced by a direct
    (recompute-per-query) oracle with fresh counters — identical numbers,
    none of the speed. Used by parity tests and the ledger's checker. *)

val thermal_profile : ctx -> Operon_thermal.Thermal_map.t -> thermal
(** Precompute the detuning penalties of every candidate path against a
    thermal map: per path, one {!Operon_optical.Loss.detuning} term per
    segment, with the worst deviation from [params.t_ref] sampled along
    the segment. The returned profile carries weight 0; attach it with
    {!with_thermal}. Pure-electrical candidates have no optical paths
    and cost 0. *)

val with_thermal : ctx -> thermal -> weight:float -> ctx
(** The same context with the thermal scenario attached at the given
    objective weight. Candidate arrays, neighbourhoods and the crossing
    cache are shared (the penalties are choice-independent). Raises
    [Invalid_argument] on a negative or non-finite weight, or a profile
    built for a different candidate set. *)

val selected : ctx -> int array -> int -> Candidate.t
(** Candidate currently chosen for a net. *)

val power : ctx -> int array -> float
(** Total power of a selection (sum over nets of candidate power). *)

val objective : ctx -> int -> int -> float
(** Selection objective of candidate [j] of net [i]: physical power,
    plus [weight * tcost] when the context carries a thermal scenario.
    Without one this is exactly the candidate's power, so thermal-free
    optimization is bit-identical to the historical behaviour. *)

val total_objective : ctx -> int array -> float
(** Sum of {!objective} over a selection (equals {!power} on a context
    without thermal state). *)

val net_path_losses : ctx -> int array -> int -> float array
(** Actual loss per optical path of a net's chosen candidate: intrinsic
    plus crossing loss against the neighbours' current choices. *)

val worst_violation : ctx -> int array -> float
(** Max over all nets and paths of [loss - l_max]; <= 0 means the whole
    selection meets the detection constraints. *)

val feasible : ctx -> int array -> bool

val worst_path_loss : ctx -> int array -> float
(** Worst single-path loss of a selection under this context's loss
    model (thermal-aware when a scenario is attached); 0.0 when the
    selection has no optical paths. *)

val thermal_margin : ctx -> int array -> float
(** [l_max - worst_path_loss]: how much detection budget the worst path
    leaves unspent. On a thermal context this is the worst-case thermal
    margin the Pareto sweep trades power against. *)

val all_electrical : ctx -> int array
(** The always-feasible selection that picks every net's fallback. *)

val greedy : ctx -> int array
(** Min-power candidate per net, ignoring crossing coupling (intrinsic
    feasibility is guaranteed by construction). May be infeasible. *)

val sanitize_initial : ctx -> int array -> int array option
(** Map a warm-start vector from a previous run onto this context: wrong
    length is unusable ([None]); out-of-range candidate indices (a net
    whose candidate set shrank since) fall back to that net's electrical
    candidate. Shared by the ILP and LR selectors' ECO warm starts. *)

(** Incremental evaluation of one evolving assignment.

    An {!Eval.t} owns a private copy of a choice vector together with the
    per-net path-loss arrays of that assignment. {!Eval.set} flips one
    net's candidate and marks just the affected nets — the flipped net
    and its neighbours — for re-derivation; every read re-derives a dirty
    net with the {e same} canonical function the full recompute uses, so
    an [Eval] never disagrees with {!net_path_losses} /
    {!worst_violation} on the same assignment, bit for bit. The LR
    subgradient loop and the greedy repair both run on top of this. *)
module Eval : sig
  type t

  val create : ctx -> int array -> t
  (** Evaluator positioned at a copy of the given assignment. *)

  val set : t -> int -> int -> unit
  (** [set t i j] flips net [i] to candidate [j] (no-op when already
      there), invalidating the stored losses of [i] and its neighbours. *)

  val get : t -> int -> int
  (** Current candidate index of a net. *)

  val choice : t -> int array
  (** Copy of the current assignment. *)

  val losses : t -> int -> float array
  (** Path losses of a net under the current assignment (re-derived on
      demand if a neighbour flipped). Shared with the evaluator — do not
      mutate. *)

  val power : t -> float

  val worst_violation : t -> float
  (** Equals [worst_violation ctx (choice t)] exactly. *)

  val feasible : t -> bool

  val net_ok : t -> int -> bool
  (** No path of net [i] or of its neighbours exceeds the loss budget. *)

  val recomputes : t -> int
  (** Per-net loss re-derivations performed so far — the incremental
      work metric (a full recompute costs one per net). *)
end

val polish_eval : ?rounds:int -> ?only:int array -> Eval.t -> unit
(** Local improvement of the evaluator's assignment, in place: first
    repair (nets on violated paths revert to their electrical fallback
    until feasible), then [rounds] (default 3) passes that greedily retry
    cheaper candidates per net while global feasibility holds. Each
    trial flip re-evaluates only the flipped net's neighbourhood, and
    losses the evaluator already holds are not derived again, so a
    caller that has evaluated the assignment pays only for the nets the
    flips touch. Without [only] the assignment is feasible afterwards.

    [only] restricts both passes to the given nets, in the given order —
    no other net is ever flipped, though every net's losses participate
    in the feasibility checks. This is the corridor-stitch fix-up of the
    partitioned flow: regional solutions are feasible within their
    regions, so repairing the corridor nets alone restores global
    feasibility. *)

val polish : ?rounds:int -> ?only:int array -> ctx -> int array -> int array
(** {!polish_eval} on a fresh evaluator positioned at the given
    assignment; returns the polished assignment, which is always
    feasible. *)
