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

    Re-selection pays only for live multipliers. A candidate is live
    when some multiplier of its paths is non-zero, a flag the multiplier
    update refreshes; after the first subgradient step almost every
    multiplier is clipped to zero. A net loops over its neighbours
    outermost, and per neighbour slot makes one {!Xmatrix.add_losses}
    read per live candidate for its own paths against the neighbour's
    previous choice and, when that choice is live, one
    {!Xmatrix.add_weighted_row} read for the loss each of its candidates
    puts on the choice's paths. Every term left out is a zero multiplier
    times a finite loss, [±0.0], and every sum starts at [+0.0], so the
    sums that remain keep the neighbour order and the bits of the
    path-by-path formulation: the result is bit-identical to reading
    every term, and to a run on a direct (uncached) matrix. Scratch
    arrays live for one call.

    Losses come from one persistent {!Selection.Eval}, which re-derives
    only the nets whose choice, or whose neighbour's choice, flipped. An
    iterate's feasibility and the final violation are read from it, and
    every repair is {!Selection.polish_eval} on it, which pays only for
    the nets the demotions touch: a violated iterate's demoted nets are
    flipped back afterwards, the final iterate's stay demoted. *)

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
