(** Deterministic pseudo-random number generation.

    All randomized components of OPERON (benchmark generation, K-Means
    seeding, tie-breaking) draw from this generator so that every run of the
    test suite and of the benchmark harness is reproducible bit-for-bit.
    The core is splitmix64, which passes BigCrush and needs only 64 bits of
    state, making independent streams cheap to fork. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Two
    generators built from the same seed produce identical streams. *)

val copy : t -> t
(** [copy g] duplicates the state so the copy can diverge from [g]. *)

val split : t -> t
(** [split g] advances [g] and returns an independent child generator.
    Streams of parent and child are statistically independent. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in \[0, bound). Raises [Invalid_argument] when
    [bound <= 0]. *)

val float : t -> float -> float
(** [float g bound] is uniform in \[0, bound). *)

val float_range : t -> float -> float -> float
(** [float_range g lo hi] is uniform in \[lo, hi). Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin flip. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via the Box-Muller transform. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
