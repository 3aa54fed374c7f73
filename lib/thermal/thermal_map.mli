(** On-chip temperature maps for the thermal-reliability scenario mode
    (the GLOW workload, DESIGN.md §15).

    A map is a {!Operon_geom.Gridmap} of temperature {e rises} above an
    ambient on the die bounds — the same grid geometry as the Figure 9
    power-hotspot maps. The field is static per run: heat shapes routes,
    routes do not (yet) produce heat. Maps come from the seeded
    {!synthetic} generator or from the exact line-oriented text format
    ({!of_string}/{!to_string}), and selection consumes them only
    through {!segment_detuning}. *)

open Operon_geom

type t

val make : ambient:float -> Gridmap.t -> t
(** Wrap a grid of rises (degC above [ambient]). *)

val grid : t -> Gridmap.t
val ambient : t -> float
val bounds : t -> Rect.t
val nx : t -> int
val ny : t -> int

val peak_rise : t -> float
(** Largest cell rise, degC. *)

val peak : t -> float
(** [ambient +. peak_rise], the hottest absolute temperature. *)

val cell_center : t -> int -> int -> Point.t

val temp_at : t -> Point.t -> float
(** Absolute temperature at a point (nearest cell; points outside the
    bounds clamp to the border cells). *)

val max_grid : int
(** Largest grid resolution per axis {!synthetic} accepts (1024): the
    generator allocates [nx * ny] cells and evaluates every hotspot in
    each. Every text input that asks for a synthetic map (the
    [thermal-map] flags, the served [thermal] spec) is checked against
    it. *)

val max_hotspots : int
(** Largest hotspot count {!synthetic} accepts (256). *)

val max_amplitude : float
(** Largest hotspot amplitude {!synthetic} accepts, degC (1000: silicon
    melts at 1414 degC). With at most {!max_hotspots} hotspots a cell's
    rise stays below [max_hotspots * max_amplitude], so a synthetic map
    with a finite ambient has finite temperatures everywhere, and so
    finite detuning penalties. *)

val max_ambient : float
(** Largest ambient temperature magnitude accepted, degC (1414, the
    melting point of silicon): {!synthetic}, the map file's [ambient]
    line, the [thermal-map --ambient] flag and the served
    [thermal.ambient] field refuse [|ambient|] above it, so the ambient
    alone cannot make a detuning penalty overflow. *)

val synthetic :
  ?nx:int ->
  ?ny:int ->
  ?ambient:float ->
  hotspots:int ->
  amplitude:float ->
  decay:float ->
  die:Rect.t ->
  Operon_util.Prng.t ->
  t
(** A field of [hotspots] Gaussian hotspots on a [nx] x [ny] grid
    (default 24x24, ambient 45 degC): centers uniform over the die,
    each rise in [(amplitude/2, amplitude]], each sigma scaled by
    [decay] (as a fraction of the shorter die side). The per-hotspot
    draw order is fixed, so one PRNG stream always reproduces the same
    field — the serve path ships generator parameters instead of cell
    values and relies on this. Raises [Invalid_argument] on a
    non-positive grid size, a decay that is not positive and finite, a
    negative hotspot count, an amplitude outside [[0, max_amplitude]]
    or an ambient outside [[-max_ambient, max_ambient]] (NaN included),
    or a grid size or hotspot count above {!max_grid} or
    {!max_hotspots}. *)

val support : t_ref:float -> t -> Rect.t option
(** Bounding box of the cells whose absolute temperature differs from
    [t_ref] at all — outside it every {!segment_detuning} sample is
    exactly 0.0, so callers may skip sampling without changing a bit.
    Boundary support cells are extended to infinity on their outward
    sides (out-of-die points clamp into them), and finite sides carry
    one cell pitch of slack against rounding. [None] when the whole map
    sits at [t_ref]. *)

val segment_detuning : t -> t_ref:float -> Segment.t -> float
(** Worst [|T -. t_ref|] along the segment, sampled at a third of the
    cell pitch — the stride {!Operon_geom.Gridmap.deposit_segment}
    uses, so no traversed cell is skipped. *)

val to_string : t -> string
(** The exact text format: [operon-thermal-map 1] header, [die]/[grid]/
    [ambient] lines, then one row of [%.17g] cell rises per grid row
    (bottom row first). Round-trips through {!of_string}
    byte-identically. *)

val of_string : string -> (t, string) result
(** Parse the text format. Errors are one line, prefixed with the
    offending [line N] — the CLI surfaces them verbatim. *)

val save : string -> t -> unit
val load : string -> (t, string) result

val summary : t -> string
(** One line: grid size, ambient, peak, rise — embedded in the export's
    [thermal.map] field and the report table title. *)

val render : ?levels:string -> t -> string
(** ASCII-art rendering of the rise field (see
    {!Operon_geom.Gridmap.render}). *)
