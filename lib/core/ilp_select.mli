(** Exact candidate selection — the Formula (3) ILP (paper Section 3.3).

    Minimize total power subject to (3b) pick-one-per-net and (3c)
    detection constraints, whose crossing terms couple pairs of selected
    candidates quadratically. The standard linearization introduces a
    product variable [y = a_ij * a_mn] per interacting candidate pair with
    [y >= a_ij + a_mn - 1] (the only direction a <=-constraint needs), so
    the program becomes a 0/1 ILP.

    Each component ILP is assembled as one immutable
    {!Operon_solver.Solver.Problem.t} — binary ranges ride on the
    variables as bounds rather than synthetic rows — and handed to
    {!Operon_solver.Solver.solve}, which defaults to the sparse revised
    simplex core ([core] selects the dense parity core instead).

    Two paper speed-ups are applied before solving:
    - crossing variables are dropped for hyper net pairs with
      non-overlapping bounding boxes (Section 3.3), and
    - the interaction graph is decomposed into connected components, each
      an independent ILP (a consequence of the first reduction).

    Small components are solved exactly. Oversized components (more than
    [max_component_vars] candidates summed over their nets) run two
    passes of block-coordinate descent with exact block ILPs: each block
    of nets is re-optimized while the rest stays frozen, with guard rows
    keeping the frozen nets' paths legal, so the global selection remains
    feasible and its power decreases monotonically. A guard row that no
    choice of the block nets can make bind is left out, as a presolve
    would drop it: it is slack at every point of every LP relaxation. A block's program
    reads the current selection only within two hops of its nets (the
    block, its neighbours and theirs), so the second pass solves a block
    again only when a net within two hops changed choice since the
    block's last solve, or that solve was not proven optimal; any other
    block would see the same program and incumbent and change nothing.
    Those components are reported as timed out — the analogue of the
    paper's ">3000 s" GUROBI rows, where the incumbent at the time limit
    is what gets reported. *)

type result = {
  choice : int array;  (** selected candidate index per hyper net *)
  power : float;
  proven : bool;  (** every component solved to optimality *)
  components : int;
  timed_out : int;  (** components that hit the budget or size cap *)
  nodes : int;  (** total branch-and-bound nodes *)
  lp_solves : int;  (** total LP relaxations solved *)
  pivots : int;  (** total simplex pivots (incl. bound flips) *)
  refactorizations : int;  (** sparse-core basis rebuilds; 0 on dense *)
  blocks_solved : int;  (** descent block programs solved *)
  blocks_skipped : int;
      (** descent blocks not solved again because their program could
          not have changed since their last solve *)
  guard_rows : int;  (** frozen neighbours' path rows built into block programs *)
  guard_skipped : int;
      (** frozen neighbours' path rows left out because no choice of
          the block nets can make them bind *)
  elapsed : float;  (** seconds *)
}

val select :
  ?budget_seconds:float ->
  ?max_pivots:int ->
  ?max_component_vars:int ->
  ?core:Operon_solver.Solver.core ->
  ?initial:int array ->
  Selection.ctx ->
  result
(** [initial] warm-starts the incumbent from a previous selection (ECO
    resubmission): sanitized to this context (out-of-range indices fall
    to the electrical candidate), repaired by {!Selection.polish}, and
    discarded for the cold greedy start when infeasible. Exactly solved
    components reach their optimum from any incumbent.

    [select ctx] runs the ILP per interaction component.
    [budget_seconds] (default 3000, the paper's cap) is shared across
    components; [max_pivots] (default unlimited) caps each node LP's
    simplex pivots, downgrading affected components to unproven;
    [core] picks the LP engine (default [Sparse]; [Dense] is the
    pre-redesign tableau core kept for parity testing);
    [max_component_vars] (default 150) caps the candidate count summed
    over a component's nets (not the model size): a component above it
    is descended in two block passes and reported as timed out. The
    returned selection is always feasible. *)
