(** End-to-end OPERON flow (paper Figure 2), as a staged pipeline.

    signal processing -> baseline generation -> co-design candidates ->
    candidate selection (ILP or LR) -> WDM placement -> network-flow
    assignment.

    Each arrow is an {!Operon_engine.Pipeline} stage threading one
    {!Operon_engine.Runctx.t}, the run state: the deterministic PRNG,
    the {!Operon_util.Executor.t} parallel backend, the fault log, and
    the {!Operon_engine.Instrument} sink every stage reports wall-clock
    and counters into. The configuration is one {!Config.t}, which the
    stages read directly. The per-hypernet baseline and co-design work fans out
    on the executor; results are merged in net-id order and each net owns
    a pre-split PRNG stream, so runs are bit-identical whatever [jobs]
    setting executed them.

    Entry points take a {!Config.t}: build one with {!Config.default} or
    {!Config.make}, refine it with the [with_*] setters, and hand it to
    {!synthesize} (whole flow), {!prepare} (candidate generation only;
    {!prepare_eco} against a previous preparation) or {!select_prepared}
    (selection + WDM on prepared candidates). {!synthesize} is exactly
    {!prepare} followed by {!select_prepared}.

    Fault tolerance: unless [strict] is set, a per-net failure in the
    Baselines or Codesign stages quarantines just that hyper net — it is
    routed with the deterministic all-electrical fallback
    ({!Codesign.electrical_only}) while every healthy net's result is
    bit-identical to a fault-free run. Selection failures walk a
    fallback chain (ILP -> LR -> greedy repair -> all-electrical), each
    hop recorded in the run's {!Operon_engine.Fault.log}. Strict mode
    re-raises the first structured {!Operon_engine.Fault.Error} with its
    original backtrace instead.

    Selection, WDM placement and assignment run on a region plan through
    one fan-out ({!Operon_engine.Fanout}); the flat flow is the
    one-region plan over the full selection context, so one engine chain
    serves flat and partitioned runs alike. *)

open Operon_optical
open Operon_engine

type mode = Ilp | Lr
(** Candidate-selection engine: exact ILP or Lagrangian relaxation. *)

(** Everything a flow run is parameterized by, in one value. *)
module Config : sig
  (** Thermal-reliability scenario: a static die temperature map plus
      the objective-weight ladder the Pareto sweep runs selection over.
      The spec lives outside the preparation slice — candidate
      generation never reads it — so prepared artifacts (and registry
      entries in the service) are shared between thermal and plain
      jobs. *)
  type thermal = {
    map : Operon_thermal.Thermal_map.t;
    weights : float array;
        (** sweep ladder; the first entry's selection is the flow's
            primary result *)
  }

  (** Hierarchical partition-and-route control. [Off] (the default) is
      the historical flat flow and stays the parity oracle. [Regions r]
      bisects the net set into at most [r] spatial regions, runs one
      independent selection per region on the executor, and stitches
      the corridor nets whose interactions the cut severed with a
      bounded fix-up pass. [Auto] picks a region count from the design
      size (one region per ~1024 nets, capped at 64) and degrades to
      the flat flow below the activation threshold. *)
  type partition = Off | Auto | Regions of int

  type t = {
    params : Params.t;  (** optical device/loss parameters *)
    processing : Processing.config option;
        (** signal-processing overrides ([None] = defaults) *)
    mode : mode;
    ilp_budget : float;  (** selection wall-clock cap, seconds *)
    max_cands_per_net : int;  (** co-design candidates kept per hyper net *)
    jobs : int;  (** executor workers; 1 = sequential *)
    strict : bool;  (** fail fast instead of degrading gracefully *)
    injections : Fault.injection list;
        (** deterministic fault-injection sites (tests/CI) *)
    seed : int;  (** PRNG seed of the run *)
    solver_core : Operon_solver.Solver.core;
        (** LP engine behind ILP selection (default [Sparse]; [Dense]
            is the pre-redesign tableau core kept for parity runs —
            selections are identical either way) *)
    thermal : thermal option;
        (** thermal scenario ([None] = the historical, temperature-blind
            flow). A spec whose ladder holds no positive weight is inert:
            the run is bit-identical to a thermal-free one. *)
    partition : partition;
        (** hierarchical partition-and-route ([Off] = the flat flow).
            When the cut severs no interacting pairs, a partitioned
            ILP-mode run selects bit-identically to the flat one (choice,
            power, solver path) at any [jobs]. Its [wdm] realization
            still differs: regions do not share tracks, so track order
            and count differ from the flat run's. *)
  }

  val default_thermal_weights : float array
  (** The default sweep ladder, [0; 0.5; 1; 2; 4; 8]. *)

  val default : Params.t -> t
  (** LR mode, 3000 s budget (the paper's cap), 10 candidates per net,
      sequential, graceful degradation, no injections, seed 42 (the
      repo-wide reproducibility seed), sparse solver core, flat. *)

  val make :
    ?processing:Processing.config ->
    ?mode:mode ->
    ?ilp_budget:float ->
    ?max_cands_per_net:int ->
    ?jobs:int ->
    ?strict:bool ->
    ?injections:Fault.injection list ->
    ?seed:int ->
    ?solver_core:Operon_solver.Solver.core ->
    ?thermal:thermal ->
    ?partition:partition ->
    Params.t ->
    t
  (** Labelled constructor over the same defaults as {!default}. Raises
      [Invalid_argument] with {!Operon_optical.Params.validate}'s message
      when the parameters fail it. *)

  val with_jobs : int -> t -> t

  val with_thermal :
    ?weights:float array -> Operon_thermal.Thermal_map.t -> t -> t
  (** Attach a thermal scenario ([weights] defaults to
      {!default_thermal_weights}). Raises [Invalid_argument] on an empty
      ladder or a negative / non-finite weight. *)
end

(** One evaluated point of the thermal Pareto sweep: the selection found
    at one objective weight. Power and margin are both recomputable from
    [tp_choice] alone ({!Selection.power} on the plain context,
    {!Selection.thermal_margin} on the weight-0 thermal context). *)
type thermal_point = {
  tp_weight : float;
  tp_power : float;  (** physical power of the selection, pJ/bit *)
  tp_margin : float;
      (** [l_max] minus the worst temperature-aware path loss, dB *)
  tp_hash : string;
      (** FNV-1a 64 of the choice vector, 16 hex digits — a stable
          identity for "the same selection" across weights, job counts
          and processes *)
  tp_choice : int array;
  tp_seconds : float;  (** selection wall-clock of this weight *)
}

(** Outcome of a whole sweep: the Pareto front over the evaluated
    points, power strictly ascending and margin strictly ascending. *)
type thermal_result = {
  tr_front : thermal_point list;
  tr_swept : int;  (** weights evaluated *)
  tr_dropped : int;  (** points removed as duplicate or dominated *)
  tr_map : string;  (** {!Operon_thermal.Thermal_map.summary} of the map *)
  tr_seconds : float;  (** whole-sweep wall-clock *)
}

(** Statistics of one partitioned selection — the decomposition shape,
    the cut quality, and what the stitch pass did. Mirrored into the
    run trace as [partition] counters and, under schema 7, into the
    export's [partition] block. *)
type partition_stats = {
  pt_regions : int;  (** regions actually formed (>= 2 when active) *)
  pt_corridor_nets : int;
      (** nets with an interacting partner in another region *)
  pt_cut_pairs : int;  (** interacting pairs the cut severed *)
  pt_total_pairs : int;  (** all interacting pairs of the design *)
  pt_boundary_components : int;
      (** connected components of the corridor interaction graph *)
  pt_largest_region : int;  (** nets in the biggest region *)
  pt_stitch_changed : int;
      (** corridor nets whose choice the stitch pass revised *)
  pt_plan_seconds : float;  (** decomposition wall-clock *)
  pt_stitch_seconds : float;  (** corridor fix-up wall-clock *)
}

type t = {
  design : Signal.design;
  hnets : Hypernet.t array;
  ctx : Selection.ctx;
  mode : mode;
  choice : int array;  (** selected candidate per hyper net *)
  power : float;  (** total selected power, pJ/bit units *)
  select_seconds : float;
      (** wall-clock of the selection stage's engine work: fallbacks,
          and the plan and stitch of a partitioned run, included *)
  ilp : Ilp_select.result option;
      (** the ILP engine's result when it answered a flat selection;
          [None] after a fallback to LR or below, and on a multi-region
          run, whose regions each ran their own engines *)
  lr : Lr_select.result option;
      (** the LR engine's result when it answered a flat selection (in
          LR mode, or as the fallback of a failed ILP); [None] otherwise,
          and on a multi-region run *)
  placement : Wdm_place.placement;
  assignment : Assign.result;
  trace : Instrument.sink;  (** per-stage seconds and counters *)
  faults : Fault.t list;  (** chronological degradations of this run *)
  quarantined_nets : int array;
      (** hyper nets routed with the all-electrical fallback *)
  solver_path : string;
      (** selection engines tried, in order, e.g. ["ilp->lr->greedy"] *)
  cache : Xmatrix.stats;
      (** crossing-matrix statistics at the end of selection: build
          size/time plus hit/miss counters *)
  thermal : thermal_result option;
      (** [Some] iff a thermal Pareto sweep ran (the config carried a
          scenario with a positive weight); the flow's own selection is
          then the ladder's first weight's *)
  partition : partition_stats option;
      (** [Some] iff the partitioned flow actually ran (config asked for
          it and the design cleared the activation threshold) *)
}

val synthesize : ?sink:Instrument.sink -> Config.t -> Signal.design -> t
(** The complete flow under a configuration: {!prepare}, then
    {!select_prepared}, both reporting into one sink. The returned
    selection is feasible and the WDM stages are run on it. [sink]
    overrides the fresh per-run instrumentation sink (pass one to
    accumulate several runs into a single report). *)

(** Per-run statistics of an {!prepare_eco} incremental re-preparation.
    Also mirrored into the run trace as [eco] counters ([nets_reused],
    [nets_recomputed], [xrows_reused]). *)
type eco_stats = {
  nets_reused : int;  (** nets whose candidate sets were carried over *)
  nets_recomputed : int;  (** nets re-run through the co-design DP *)
  xrows_reused : int;  (** crossing-matrix rows aliased from the
                           previous context *)
  dirty : int;  (** nets whose own pins changed *)
  interaction_dirty : int;
      (** clean nets pulled into recomputation because a changed net
          could affect their crossing estimates *)
  added : int;
  removed : int;
  dirty_closure : int;  (** total nets in the recomputation closure *)
  cold_fallback : bool;
      (** the incremental path was not applicable (injections,
          quarantined nets, config change, incompatible diff) and a
          full cold preparation ran instead *)
}

(** The full output of a preparation, keyed for reuse: the per-net
    candidate lists and the selection context (with its crossing
    matrix), plus everything {!prepare_eco} needs to certify per-net
    reuse against a revised design. *)
type prepared = {
  p_design : Signal.design;
  p_config : Config.t;
  p_hnets : Hypernet.t array;
  p_cands : Candidate.t list array;
  p_xcounts : Codesign.xcounts array;
      (** per-net crossing counts the candidates were generated from —
          the cacheable artifact an ECO re-preparation patches with the
          changed nets' delta instead of re-querying the whole design *)
  p_ctx : Selection.ctx;
  p_faults : Fault.t list;
      (** the preparation's fault log: one entry per quarantined hyper
          net, which {!select_prepared} reports *)
  p_eco : eco_stats option;  (** [Some] iff produced by {!prepare_eco} *)
}

val prepare : ?sink:Instrument.sink -> Config.t -> Signal.design -> prepared
(** Processing plus candidate generation: hyper nets, then each net's
    baseline topologies ({!Codesign.baselines}, built once), then
    co-design candidates for each (crossing estimates taken against the
    other nets' optical baselines, one query per distinct directed
    segment; the trace's [codesign] row counts them as [queries]). The
    returned context carries the design-wide {!Xmatrix} crossing matrix
    when the flow is flat; a partitioned configuration leaves it direct,
    since each region builds its own matrix, on a {!Selection.slice} of
    this context, during selection. *)

val prepare_eco :
  ?sink:Instrument.sink ->
  prev:prepared Lazy.t ->
  Config.t ->
  Signal.design ->
  prepared
(** Incremental re-preparation of a revised [design] against a previous
    preparation. It runs the stages of {!prepare}: hyper-net extraction
    and baselines in full (they are cheap and fix the PRNG state to the
    cold run's); {!Design_diff} then classifies each net, and inside the
    co-design fan-out each net is kept, replayed on patched crossing
    counts, or recounted — only nets in the dirty closure go back
    through the DP, the rest reuse their previous candidate lists and
    crossing-matrix rows.

    Invariant: the returned artifacts are bit-identical to
    [prepare config design], so any selection run on them matches a
    cold run byte for byte. Whenever that cannot be certified — fault
    injections on either run, faults in [prev], a different
    preparation-relevant config, or an incompatible diff — every net
    recounts as in the cold path and [cold_fallback] is set in the
    returned [p_eco]. [prev] is forced only when [config] has no
    injections: an injected run falls back cold without building it. *)

val prepare_with :
  ?sink:Instrument.sink ->
  Config.t ->
  Signal.design ->
  Hypernet.t array * Selection.ctx
(** [prepare] restricted to the pair of artifacts the selection entry
    points consume. *)

val select_with :
  ?sink:Instrument.sink ->
  ?initial:int array ->
  Config.t ->
  Signal.design ->
  Hypernet.t array ->
  Selection.ctx ->
  t
(** Selection + WDM stages on an existing candidate context — lets
    Table 1 compare ILP and LR on identical candidates without
    re-preparing. The context already fixed the candidate set and its
    crossing matrix; of the configuration, [mode], [ilp_budget],
    [solver_core], [strict], [injections], [partition], [thermal] and
    [jobs] still take effect here ([params], [processing],
    [max_cands_per_net] and [seed] do not). [initial] warm-starts the
    solver
    from a previous run's [choice] (see {!Ilp_select.select} and
    {!Lr_select.select}); it is sanitized against the context and
    silently dropped when infeasible, and it never changes the set of
    feasible results — only how fast the solver reaches one. *)

val select_prepared :
  ?sink:Instrument.sink -> ?initial:int array -> Config.t -> prepared -> t
(** [select_with] over a {!prepared} value's own design and artifacts.
    The result's [faults] and [quarantined_nets] open with the
    preparation's ([p_faults]); they are not counted again in [sink]. *)
