(** Deterministic design perturbation — the ECO workload generator.

    An engineering change order in this codebase is "the same design
    with some groups' pins nudged": {!design} picks a deterministic
    subset of signal groups and jitters every pin of those groups by up
    to ±2 % of the die dimensions (clamped to the die). Because whole
    groups move, the dirty fraction of {e hyper nets} downstream tracks
    the requested group ratio closely — which is what [--mutate] and the
    served [resubmit]'s [mutate] field perturb.

    Everything is a pure function of [(ratio, seed, design)]: the chosen
    groups come from one shuffle of a [Prng] seeded with [seed], and each
    group jitters from its own split stream, so a group's displacement
    does not depend on which other groups were selected. *)

val group_count : ratio:float -> int -> int
(** [group_count ~ratio n] = number of groups a mutation touches:
    [ceil (ratio * n)] clamped to \[1, n\], or 0 when [ratio <= 0] or
    [n = 0]. *)

val design : ratio:float -> seed:int -> Signal.design -> Signal.design
(** Jitter the pins of [group_count ~ratio] groups. [ratio <= 0] returns
    the design unchanged (physically equal). The result is a valid
    design on the same die. *)
