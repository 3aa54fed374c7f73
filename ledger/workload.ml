(* The four workloads of the ledger benchmark and their inputs.

   Every workload is batch synthesis in a closed loop: one caller starts
   the next design only after the previous one has finished. The designs
   are the repository's own generator specs at reduced size, so that one
   pass over a workload's cases takes a few seconds and a run of twenty
   seconds holds several passes:

   - the Table 1 specs keep their die, floorplan and bus mix but only a
     third of their signal groups (the full I2 alone runs ~25 s, and a
     full Table 1 pass over a minute, on a 2-core container). A third,
     not a quarter: crossing estimation grows much faster than the net
     count, and at a quarter it falls from the largest layer to 9%;
   - the t10k tier keeps its die and floorplan but half its groups
     (~5k nets), where the min-cost-flow assignment is still about half
     the op, as in the full tier.

   [--seed S] perturbs the generated designs (see [perturb]); S = 0
   reproduces the specs exactly. The flow's own seed stays 42. *)

open Operon
open Operon_benchgen

type engine =
  | Lr_flat  (** [Flow.synthesize], LR, flat *)
  | Ilp_prepared  (** [Flow.select_with] in ILP mode on a prepared design *)
  | Lr_partitioned  (** [Flow.synthesize], LR, two regions, one domain *)

type t = { name : string; engine : engine; specs : Gen.spec list }

let with_groups divisor (spec : Gen.spec) =
  { spec with Gen.n_groups = Stdlib.max 1 (spec.Gen.n_groups / divisor) }

let table1 = List.map (with_groups 3) Cases.all
let tier = with_groups 2 Cases.t10k.Cases.t_spec

(* Why each workload was chosen is recorded with it in BENCHMARK.json. *)
let all =
  [ { name = "table1-lr"; engine = Lr_flat; specs = table1 };
    { name = "t5k-lr"; engine = Lr_flat; specs = [ tier ] };
    { name = "ilp-select"; engine = Ilp_prepared; specs = table1 };
    { name = "t5k-part"; engine = Lr_partitioned; specs = [ tier ] } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The ILP budget is deliberately huge: at the default 120 s the per-block
   branch-and-bound budgets are slices of the wall clock, so node counts
   vary from run to run. *)
let ilp_budget = 1e6

(* Explicit rather than [Auto]: at ~1.2k hyper nets [Auto] stays flat.
   The regions run on one domain: the output is the same at any job
   count, and on two domains of a shared two-core host every minor
   collection waits for both cores, so the op time measured the host's
   other load (quartile spread over ten runs past 25%). *)
let regions = 2

let config w =
  let params = Operon_optical.Params.default in
  match w.engine with
  | Lr_flat -> Flow.Config.make params
  | Ilp_prepared -> Flow.Config.make ~mode:Flow.Ilp ~ilp_budget params
  | Lr_partitioned -> Flow.Config.make ~partition:(Flow.Config.Regions regions) params

(* The solver path a clean run of the workload reports. *)
let engine_path w = match w.engine with Ilp_prepared -> "ilp" | _ -> "lr"

type case = {
  label : string;
  design : Signal.design;
  prepared : (Hypernet.t array * Selection.ctx) option;
      (** [Some] for [Ilp_prepared]: the op then only selects *)
}

let case_of w label design =
  let prepared =
    match w.engine with
    | Ilp_prepared -> Some (Flow.prepare_with (config w) design)
    | Lr_flat | Lr_partitioned -> None
  in
  { label; design; prepared }

(* Seed S > 0 translates every signal group rigidly by an offset drawn
   uniformly within [shift] of the die size per axis (pins clamped to the
   die; about one pin pitch): each seed is a distinct design with the
   spec's floorplan, bus mix and size. Larger moves make the results
   spread too far from seed to seed for a bound to mean anything:
   regenerating from [spec.seed + S] (a new floorplan) varies the
   table1-lr op time by 21% (quartile spread over ten seeds), a 1% shift
   still varies its power by 12%, and at 0.1% the ILP's branch-and-bound
   time on I4 varies fifteen-fold. *)
let shift = 0.0002

let perturb ~seed (spec : Gen.spec) (d : Signal.design) =
  if seed = 0 then d
  else
    let open Operon_geom in
    let rng = Operon_util.Prng.create ((spec.Gen.seed * 7919) + seed) in
    let die = d.Signal.die in
    let dx_max = shift *. Rect.width die and dy_max = shift *. Rect.height die in
    let groups =
      Array.map
        (fun (g : Signal.group) ->
          let dx = Operon_util.Prng.float_range rng (-.dx_max) dx_max in
          let dy = Operon_util.Prng.float_range rng (-.dy_max) dy_max in
          let move (p : Point.t) =
            Point.make
              (Float.min die.Rect.xmax (Float.max die.Rect.xmin (p.Point.x +. dx)))
              (Float.min die.Rect.ymax (Float.max die.Rect.ymin (p.Point.y +. dy)))
          in
          { g with
            Signal.bits =
              Array.map
                (fun (b : Signal.bit) ->
                  Signal.bit ~source:(move b.Signal.source)
                    ~sinks:(Array.map move b.Signal.sinks))
                g.Signal.bits })
        d.Signal.groups
    in
    Signal.design ~die ~groups

let setup w ~seed =
  List.map
    (fun (spec : Gen.spec) ->
      case_of w spec.Gen.name (perturb ~seed spec (Gen.generate spec)))
    w.specs

(* The timed operation: one design through the workload's entry point. *)
let op w case =
  match case.prepared with
  | None -> Flow.synthesize (config w) case.design
  | Some (hnets, ctx) -> Flow.select_with (config w) case.design hnets ctx
