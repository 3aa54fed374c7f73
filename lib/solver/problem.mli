(** Immutable sparse problem description shared by every solver core.

    A problem is

    {v minimize c.x  subject to  A x (<= | >= | =) b,  l <= x <= u v}

    stored column-major (CSC): each variable carries its objective
    coefficient, bounds, an integrality flag and its sparse column of
    constraint coefficients. Bounds live on the variables themselves —
    binary variables are [lower:0.] [upper:1.] [integer:true], with no
    synthetic [x <= 1] rows in the row set.

    Values of type {!t} are immutable; the branch-and-bound driver
    derives per-node bound overlays without copying the matrix. *)

type relation = Le | Ge | Eq

type t

val of_rows :
  nvars:int ->
  ?obj:(int * float) list ->
  ?lower:(int * float) list ->
  ?upper:(int * float) list ->
  ?integer:int list ->
  ((int * float) list * relation * float) list ->
  t
(** [of_rows ~nvars rows] builds a problem from its rows, each
    [(coeffs, rel, rhs)] with [(variable, coeff)] entries, plus sparse
    objective/bound/integrality overrides. Unlisted variables default to
    [obj 0.], [lower 0.], [upper infinity], [integer false]. Entries
    repeating a variable within a row are summed in order of appearance.
    Raises [Invalid_argument] on an empty variable set, an out-of-range
    variable, [lower > upper], an integer variable without finite
    bounds, or NaN anywhere. *)

(* --- accessors --- *)

val nvars : t -> int
val nrows : t -> int
val objective_coeff : t -> int -> float
val lower_bound : t -> int -> float
val upper_bound : t -> int -> float
val is_integer : t -> int -> bool
val integer_vars : t -> int list
(** Indices of integer-flagged variables, ascending. *)

val row_relation : t -> int -> relation
val row_rhs : t -> int -> float

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col t v f] calls [f row coeff] for each structural entry of
    variable [v]'s column, in ascending row order. *)

val bounds_copy : t -> float array * float array
(** Fresh [(lower, upper)] arrays — the per-node overlay the B&B driver
    tightens. *)

val rows_list : t -> ((int * float) list * relation * float) list
(** Rows in row order, each as [(coeffs, rel, rhs)] with coefficients in
    ascending variable order. Materialized on demand (used by the dense
    core and by {!feasible}). *)

val eval_objective : t -> float array -> float

val feasible : ?eps:float -> t -> float array -> bool
(** Bounds plus every row hold within [eps] (default 1e-6). Integrality
    is not checked — this validates candidate points (incumbent seeds,
    snapped B&B leaves) against the continuous relaxation only. *)
