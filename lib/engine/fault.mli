(** Structured fault taxonomy for the staged pipeline.

    A fault-tolerant run never aborts on an ad-hoc [failwith]: every
    failure crossing a stage boundary is captured as a {!t} carrying the
    stage it happened in, the hyper net concerned (when the failure is
    per-net), a machine-readable {!kind} and a human-readable detail.
    Faults are accumulated in the run-context's {!log}; non-strict runs
    degrade (a quarantined net falls back to its all-electrical route,
    a failed solver falls down the ILP → LR → greedy chain) while strict
    runs re-raise the structured {!Error} immediately.

    Deterministic fault {e injection} ([--inject-fault stage:net:kind],
    env [OPERON_FAULTS]) exercises every degradation path in tests and CI
    without depending on real failures. *)

type kind =
  | Injected  (** raised by the seeded fault-injection harness *)
  | Crash  (** an unexpected exception escaping a stage task *)
  | Capacity  (** a resource capacity violated (tracks, channels) *)
  | Budget  (** an iteration/pivot/wall-clock budget exhausted *)
  | Validation  (** malformed input rejected by a stage *)
  | Shard_crash
      (** a serving shard process died (signal or non-zero exit) with
          this job in flight and the retry-once budget exhausted *)
  | Shed
      (** rejected at dispatch: the job's remaining deadline could not
          cover the target shard's observed p95 service time *)

val all_kinds : kind list

val kind_name : kind -> string

val kind_of_string : string -> kind option
(** Case-insensitive inverse of {!kind_name}. *)

type t = {
  stage : Instrument.stage;
  net : int option;  (** the hyper net concerned, when per-net *)
  kind : kind;
  detail : string;
  backtrace : string;  (** may be empty *)
}

exception Error of t
(** The structured replacement for bare [failwith] at stage boundaries;
    what a [--strict] run fails fast with. *)

val make : ?net:int -> ?backtrace:string -> stage:Instrument.stage -> kind -> string -> t

val of_exn : stage:Instrument.stage -> ?net:int -> exn -> Printexc.raw_backtrace -> t
(** Wrap an arbitrary exception as a {!Crash} fault; an {!Error} payload
    passes through unchanged (preserving its original stage and net). *)

val to_string : t -> string
(** One line: ["codesign/net3: injected: ..."]. *)

(** {2 Deterministic injection} *)

type injection = {
  inj_stage : Instrument.stage;
  inj_net : int option;  (** [None] matches any net (the ["*"] spec) *)
  inj_kind : kind;
}

val injection_of_string : string -> (injection, string) result
(** Parse one ["stage:net:kind"] spec, e.g. ["codesign:3:crash"] or
    ["select:*:budget"]. A well-formed spec that names no injection site
    is rejected too, since it could never fire: only [baselines] and
    [codesign] (any net, or [*]) and [select] (net [*] only) are
    checked. *)

val injections_of_string : string -> (injection list, string) result
(** Comma-separated list of specs; the empty string parses to []. *)

val injections_of_string_lenient : string -> injection list * (string * string) list
(** Like {!injections_of_string}, but a malformed token never poisons the
    whole list: well-formed specs are kept and each bad token is returned
    as [(token, parse error)] so the caller can warn about it by name.
    This is the policy for environment-variable input ([OPERON_FAULTS]);
    [bench/main.exe] treats [OPERON_ILP_BUDGET] the same way, warning and
    keeping its 120 s default when the value is not a positive number. A
    typo'd env var degrades to a warning instead of silently injecting
    nothing (or aborting a run the variable may not even have been meant
    for). *)

val injection_matching :
  injection list -> stage:Instrument.stage -> net:int option -> injection option
(** First injection matching a (stage, net) site, if any. *)

(** {2 Fault log}

    Plain mutable state owned by the coordinating domain — {e not}
    domain-safe. Parallel stages record faults on the coordinator after
    the fan-out drains (the executor collects per-item results in input
    order first), so logging stays deterministic. *)

type log

val create_log : unit -> log

val record : log -> t -> unit

val faults : log -> t list
(** Chronological order. *)

val count : log -> int
