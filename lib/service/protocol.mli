(** Versioned newline-delimited JSON protocol of the batch synthesis
    service.

    One request per line on the way in, one response per line on the way
    out. Every response is an {e envelope} stamped with the protocol's
    [schema_version] and an [ok] flag; failures carry an [error] object
    with a machine-readable [kind] and a human-readable [detail] —
    exactly the shape {!Operon.Export} uses for per-fault records, so a
    client parses degradations and protocol errors with one code path.

    The six operations:

    {v
      {"op":"submit","case":"tiny", ...}           enqueue a synthesis job
      {"op":"resubmit","parent_job":"job-1", ...}  ECO re-run against a parent
      {"op":"status","job":"job-1"}                non-blocking state probe
      {"op":"result","job":"job-1"}                block until done, return JSON
      {"op":"cancel","job":"job-1"}                cancel a still-queued job
      {"op":"stats"}                               service counters
    v}

    The protocol is transport-free (the CLI speaks it over stdin/stdout)
    and its parser is hand-rolled like the {!Operon.Export} writer — no
    external JSON dependency. *)

val schema_version : int
(** Version of the request/response layout, echoed in every response.
    History: 1 = initial protocol (submit/status/result/cancel/stats);
    2 = [resubmit] op, [mutate] design perturbation on submit/resubmit,
    registry eviction/capacity stats;
    3 = socket/multi-shard serving: ["parse_error"] kind (with byte
    [offset]) replaces ["parse"], new ["shed"] and ["shard_crash"]
    error kinds, per-shard restart/retry/shed counters in [stats];
    4 = [thermal] scenario spec on submit — the server synthesizes the
    temperature map from the design's die and runs the Pareto sweep,
    so the job's [result] carries the schema-6 export [thermal]
    block. *)

(** {2 Minimal JSON values} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, int * string) result
  (** Parse one complete JSON document; trailing garbage is an error,
      and so is a number literal that overflows a double (its offset is
      the literal's first byte). [Error (offset, msg)] carries the byte
      offset the parse failed at, for the ["parse_error"] envelope.
      Never raises. *)

  val member : string -> t -> t option
  (** Field lookup on an [Obj]; [None] otherwise. *)

  val to_string : t -> string
  (** Compact printer, exact for every value {!parse} returns: numbers
      at [%.17g] (the reader rejects literals that overflow a double, so
      every [Num] is finite), strings through {!Operon.Export.jstr}.
      [parse (to_string j) = Ok j]. *)
end

(** {2 Requests} *)

type mutate_spec = {
  mut_ratio : float;  (** fraction of signal groups to displace, (0, 1] *)
  mut_seed : int;  (** PRNG seed of the perturbation (default 1) *)
}
(** A deterministic design perturbation ({!Operon.Mutate.design}) applied
    server-side before synthesis — the ECO test loop's way of deriving a
    revised design from a registered case without shipping coordinates
    over the protocol. *)

type thermal_spec = {
  th_hotspots : int;  (** Gaussian hotspot count (default 6) *)
  th_amplitude : float;  (** peak rise scale, degC (default 25) *)
  th_decay : float;
      (** hotspot sigma as a fraction of the shorter die side
          (default 0.15) *)
  th_grid : int;  (** map resolution per axis (default 24) *)
  th_ambient : float;
      (** ambient temperature, degC (default 45), at most
          {!Operon_thermal.Thermal_map.max_ambient} in magnitude *)
  th_seed : int;  (** PRNG seed of the map generator (default 1) *)
  th_weights : float list;
      (** sweep ladder; [[]] = {!Operon.Flow.Config.default_thermal_weights} *)
}
(** A thermal-reliability scenario, shipped as generator parameters: the
    server re-synthesizes the temperature field from the design's die
    ({!Operon_thermal.Thermal_map.synthetic}), so a few scalars reproduce
    the exact map a CLI-side [operon thermal-map] run with the same knobs
    writes, and the sweep result is byte-comparable between the two. *)

type submit = {
  sub_job : string option;  (** client-chosen job id ([None] = server picks) *)
  sub_case : string;  (** design case name (registry key source) *)
  sub_seed : int option;  (** case generation seed override *)
  sub_mode : Operon.Flow.mode;
  sub_budget : float;  (** selection wall-clock budget, seconds *)
  sub_priority : int;  (** higher runs first; FIFO within a priority *)
  sub_deadline : float option;
      (** seconds from submission the job must finish within *)
  sub_mutate : mutate_spec option;  (** perturb the design before synthesis *)
  sub_thermal : thermal_spec option;
      (** run a thermal Pareto sweep instead of a plain selection *)
}

type resubmit = {
  re_parent : string;  (** parent job id; its artifacts seed the ECO path *)
  re_job : string option;
  re_case : string option;  (** [None] = inherit the parent's design *)
  re_seed : int option;
  re_mode : Operon.Flow.mode;
  re_budget : float;
  re_priority : int;
  re_deadline : float option;
  re_mutate : mutate_spec option;
  re_warm : bool;
      (** warm-start selection from the parent's choice vector
          (default [false]; never changes the result, only its speed) *)
}

type request =
  | Submit of submit
  | Resubmit of resubmit
  | Status of string
  | Result of string
  | Cancel of string
  | Stats

type error = {
  err_op : string option;  (** the request's [op], when it parsed that far *)
  err_kind : string;  (** ["parse_error"] or ["validation"] *)
  err_detail : string;
  err_offset : int option;
      (** byte offset into the request line, for ["parse_error"] *)
}

val parse_request : string -> (Json.t * request, error) result
(** Parse and validate one request line; the parsed object comes back
    with the request. Unknown fields are ignored; wrong types, unknown
    [op]s and out-of-range values are ["validation"] errors, malformed
    JSON is a ["parse_error"] with the failing byte offset. Never
    raises. *)

val forward_line : job:string -> Json.t -> string
(** The line the shard fleet forwards: the client's own request object
    (as {!parse_request} returned it) with its [job] member set to
    [job], printed by {!Json.to_string}. It parses back to the client's
    request with only the job id changed, so a shard — and a crash
    retry on another shard — runs exactly what the client asked for. *)

(** {2 Response envelopes}

    Field values are raw JSON fragments — render them with
    {!Operon.Export.jstr} / {!Operon.Export.jfloat} / [string_of_int],
    or embed a pre-rendered document (e.g. [Export.flow_to_json])
    verbatim. *)

val ok : ?job:string -> op:string -> (string * string) list -> string
(** [{"schema_version":V,"ok":true,"op":...,"job":...,<fields>}] *)

val error :
  ?job:string ->
  ?op:string ->
  ?offset:int ->
  kind:string ->
  detail:string ->
  unit ->
  string
(** [{"schema_version":V,"ok":false,...,"error":{"kind":...,"detail":...}}].
    Kinds used by the service: ["parse_error"] (with ["offset"]),
    ["validation"], ["busy"], ["unknown_job"], ["cancelled"],
    ["deadline"], ["fault"], ["shed"], ["shard_crash"], ["timeout"]. *)

val unknown_job : op:string -> string -> string
(** The ["unknown_job"] envelope for a job id nobody knows. *)

val duplicate_job : op:string -> string -> string
(** The ["validation"] envelope for a client-chosen job id already in
    use. *)

(** {2 Framing} *)

val max_line_bytes : int
(** Longest request line accepted (1 MiB). Longer lines are answered
    with a ["parse_error"] envelope instead of being parsed; socket
    transports use the same cap to bound buffering before a newline. *)

val line_too_long : int -> string
(** The ["parse_error"] envelope for a line over the given cap, with the
    cap as its offset. *)

val handle_line :
  ?max_line:int -> (Json.t -> request -> string) -> string -> string option
(** [handle_line dispatch line]: one request line to one response line,
    the framing every serving mode shares. [None] for a blank line; a
    line over [max_line] (default {!max_line_bytes}) is refused
    unparsed; a parse or validation failure is its error envelope;
    otherwise the answer is [dispatch json request]. Never raises: an
    exception out of [dispatch] becomes a ["fault"] envelope. *)
