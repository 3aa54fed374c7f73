(** The five synthetic industrial cases standing in for the paper's I1-I5.

    Each spec is tuned so that the generated design reproduces the
    published #Net count and, after processing, lands near the published
    #HNet/#HPin statistics (Table 1 left columns):

    {v
      case   #Net   #HNet  #HPin   character
      I1     2660    356   1306    medium buses, 1-4 sink blocks, mixed reach
      I2     1782    837   1701    many tiny nets, chip-crossing, point-to-point
      I3     5072    168    336    few wide buses (~60 bits), short local links
      I4     3224    403   1474    medium buses, multi-sink, moderate locality
      I5     1994    933   1897    many tiny nets, chip-crossing (largest power)
    v} *)

val i1 : Gen.spec
val i2 : Gen.spec
val i3 : Gen.spec
val i4 : Gen.spec
val i5 : Gen.spec

val all : Gen.spec list
(** I1..I5 in order. *)

val by_name : string -> Gen.spec option
(** Case lookup by (case-insensitive) name. *)

type tier = { t_name : string; t_spec : Gen.spec }
(** A scale tier: a synthetic design well beyond Table 1. The tiers'
    end-to-end (generate + prepare + LR select) budgets on commodity
    hardware are 120 s for t10k, 400 s for t30k and 1,800 s for t100k. *)

val t10k : tier
(** ~10k nets (2500 groups of 3-5 bits, 12x12 die, 80% local). *)

val t30k : tier
(** ~30k nets — same structure, 3x the groups. *)

val t100k : tier
(** ~100k nets — the stress tier; preparation's pairwise crossing
    filter and selection both become visible at this size. *)

val tiers : tier list
(** [t10k; t30k; t100k] in ascending order. *)

val tier_by_name : string -> tier option
(** Tier lookup by (case-insensitive) name. *)

val small : ?seed:int -> unit -> Operon.Signal.design
(** A miniature design (a few dozen nets) for unit tests, examples and
    quick smoke runs. *)

val tiny : ?seed:int -> unit -> Operon.Signal.design
(** An even smaller design (a handful of groups) whose ILP is solvable
    exactly within milliseconds. *)

val split : ?seed:int -> unit -> Operon.Signal.design
(** Two small clusters at opposite ends of a wide die with no
    interacting pair between them — a 2-region partition severs zero
    pairs, so a partitioned ILP run is byte-identical to the flat flow
    (the partition-smoke CI case). *)
