(** Lagrangian-Relaxation candidate selection (paper Section 3.4,
    Algorithm 1).

    The detection constraints (3c) are relaxed into the objective with one
    Lagrangian multiplier per source-to-sink path (Formula 4). Each
    iteration:

    + every hyper net independently picks the candidate with the best
      weighted cost — its own power plus multiplier-weighted intrinsic
      loss plus the crossing terms linearized around the previous
      iterate per Eq. (5) [a*b ~ a'*b + a*b'];
    + path violations are measured against the actual selection;
    + multipliers are updated by a diminishing-step subgradient rule.

    Convergence follows the paper: stop when both the power and the
    violation total change by less than a preset ratio, or after 10
    iterations. A final repair pass demotes any still-violating net to
    its electrical fallback, so the result is always feasible; because
    subgradient iterates are not monotone, the best feasible selection
    seen across iterations is returned when it beats the repaired final
    iterate.

    The re-selection of a net loops over its neighbours outermost: per
    (neighbour slot, candidate) it makes one {!Xmatrix.add_losses} read
    for the candidate's own paths against the neighbour's previous
    choice and one {!Xmatrix.add_weighted} read for the loss the
    candidate puts on that choice's paths, accumulating into scratch
    arrays allocated once per call. Each sum keeps the neighbour order
    and the [+0.0] start of the path-by-path formulation, so the result
    is bit-identical to it, and to a run on a direct (uncached) matrix.
    A feasible iterate's feasibility is read from the persistent
    {!Selection.Eval}, which already holds its losses after the
    subgradient step. *)

type result = {
  choice : int array;
  power : float;
  iterations : int;
  final_violation : float;  (** worst path violation before repair, dB *)
  demoted : int;  (** nets forced to electrical by the repair pass *)
  elapsed : float;
}

val select :
  ?max_iterations:int ->
  ?budget_seconds:float ->
  ?initial_multiplier_scale:float ->
  ?step_scale:float ->
  ?converge_ratio:float ->
  ?initial:int array ->
  Selection.ctx ->
  result
(** [initial] warm-starts the subgradient trajectory from a previous
    selection (ECO resubmission): indices out of range for this context
    fall back to the net's electrical candidate, and a warm start that is
    not feasible here is discarded in favour of the cold greedy start.

    Defaults follow the paper: [max_iterations]=10, multipliers
    initialised proportionally to the electrical power of each net
    ([initial_multiplier_scale]=0.01 of [p_e] per dB), subgradient step
    [step_scale]=0.05 diminishing as 1/k, [converge_ratio]=0.01.
    [budget_seconds] additionally caps the subgradient loop by
    wall-clock (0, the default, means unlimited); the repair pass always
    runs, so the result is feasible even at 0 completed iterations. *)
