(** JSON export of a synthesized design.

    Serializes a {!Flow.t} — selected routes with their labels, conversion
    sites, power breakdown, loss, WDM tracks and per-connection flows —
    into a self-contained JSON document that downstream tooling (layout
    viewers, power integrity, scripts) can consume. Hand-rolled writer,
    no external dependencies; numbers use enough digits to round-trip. *)

val schema_version : int
(** Version of the export document layout, emitted as the
    [schema_version] field. History: 1 = original export, 2 = added
    [degradation], 3 = added [schema_version] itself and the [cache]
    block, 4 = the [design] block carries the full pin coordinates with
    exact ([%.17g]) round-trip, making an export a self-contained ECO
    baseline ([--eco-from]), 5 = ILP runs emit a [solver] block
    ([proven], [components], [timed_out], [nodes], [lp_solves],
    [pivots], [refactorizations], [seconds]) alongside the trace,
    6 = thermal Pareto sweeps emit a [thermal] block ([map], [swept],
    [dropped], [front] with one (weight, power, margin_db, hash, choice)
    object per non-dominated point); absent on plain runs,
    7 = partitioned runs emit a timings-gated [partition] block
    ([regions], [largest_region], [corridor_nets], [cut_pairs],
    [total_pairs], [boundary_components], [cut_fraction],
    [stitch_changed], [plan_seconds], [stitch_seconds]); absent on flat
    runs and on [~timings:false] exports. Bump
    on any breaking change; see README for the full schema. *)

val flow_to_json : ?channels:Channels.plan -> ?timings:bool -> Flow.t -> string
(** The full result as a JSON object with fields [schema_version],
    [design], [hypernets], [routes], [wdm], [trace], [solver] (ILP runs
    only), [thermal] (Pareto-swept runs only), [partition] (partitioned
    runs with timings only), [degradation], [cache]
    and optionally [channels]. With
    [~timings:false] the wall-clock-dependent parts are omitted — no
    [trace], [solver] or [partition] fields (pivot counts are
    core-specific; partitioned no-timings exports byte-compare to flat
    ones), no [seconds] inside the [thermal] block, and the
    [cache] block carries only [enabled]/[pairs]/[entries] — so the
    document is a pure function of (design, configuration): two runs of
    the same job, whether single-shot or served from the batch service,
    produce byte-identical output, whichever [jobs] count or solver core
    ran them. *)

val degradation_to_json : Flow.t -> string
(** Just the degradation summary object: [faults] (stage, net, kind,
    detail per entry), [quarantined_nets] and [solver_path] — the
    [degradation] block of {!flow_to_json}, which [operon export] writes
    with or without [--no-timings]. *)

val write_file : string -> string -> unit
(** [write_file path contents] — convenience used by the CLI. *)

(** {2 Fragment writer}

    The raw-fragment helpers this writer is built from, shared with the
    serving protocol's envelopes. *)

val jstr : string -> string
(** A JSON string literal: the quote, the backslash, newline and tab
    escaped by name, other control bytes as [\u00XX], every other byte
    verbatim. *)

val jfloat : float -> string
(** Integral values below 1e15 as [%.1f], everything else as [%.9g]. *)

val jobj : (string * string) list -> string
(** An object from (key, raw fragment) pairs, in order. *)
