(** Instrumentation sink threaded through the staged pipeline.

    Each flow stage reports wall-clock seconds and named integer counters
    (candidates generated, states pruned, selection iterations, WDM track
    counts, ...) into the run-context's sink. The sink is what [--trace]
    renders and what a timed export serializes as its [trace].

    The sink is plain mutable state owned by the coordinating domain: it
    is {e not} domain-safe. Parallel stages accumulate their counts on the
    coordinator after the fan-out completes (the executor merges results
    in input order first), so recording stays deterministic. *)

type stage =
  | Processing
  | Baselines
  | Codesign
  | Select
  | Wdm
  | Assign
  | Serve
  | Eco
  | Pareto
  | Partition
(** The six pipeline stages of the OPERON flow (paper Figure 2) — signal
    processing, BI1S baseline generation, co-design DP candidates,
    candidate selection, WDM sweep placement, network-flow assignment —
    plus [Serve], the batch-synthesis service layer that schedules whole
    flows as jobs (per-job and queue counters live under it), [Eco],
    the incremental re-preparation layer (design-diff seconds and
    nets_reused / nets_recomputed / xrows_reused counters live under
    it), [Pareto], the thermal-scenario weight sweep (profile
    seconds plus weights / front / dropped counters), and [Partition],
    the hierarchical region decomposition of the partitioned flow (plan
    and stitch seconds plus regions / corridor_nets / cut_pairs /
    boundary_components / cut-quality counters). *)

val all_stages : stage list
(** The pipeline stages in pipeline order. [Serve], [Eco], [Pareto] and
    [Partition] are not pipeline stages and are deliberately excluded (a
    single cold flat flow run never touches them); {!stage_of_string}
    still parses ["serve"], ["eco"], ["pareto"] and ["partition"]. *)

val stage_name : stage -> string

val stage_of_string : string -> stage option
(** Case-insensitive inverse of {!stage_name} — used by the fault
    injection spec parser. *)

type record = {
  stage : stage;
  mutable seconds : float;
  mutable counters : (string * int) list;
}

type sink

val create : unit -> sink
(** A fresh, empty sink. *)

val timed : sink -> stage -> (unit -> 'a) -> 'a
(** [timed sink stage f] runs [f] and charges its wall-clock time to
    [stage]. Repeated calls accumulate. *)

val add_seconds : sink -> stage -> float -> unit

val incr : sink -> stage -> string -> int -> unit
(** [incr sink stage key n] adds [n] to the [key] counter of [stage],
    creating it at 0 first. *)

val records : sink -> record list
(** Records in first-touched order — pipeline order when stages ran in
    pipeline order. *)

val counters : record -> (string * int) list
(** Counters in first-touched order. *)

val seconds : sink -> stage -> float
(** Accumulated seconds of a stage (0 if it never ran). *)

val counter : sink -> stage -> string -> int
(** Counter value (0 if absent). *)

val total_seconds : sink -> float

val merge : into:sink -> sink -> unit
(** Fold one sink's seconds and counters into another — used when a
    sub-flow ran with its own sink. *)
