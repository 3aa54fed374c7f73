open Operon_util
open Operon_steiner
open Operon_engine

type mode = Runctx.mode = Ilp | Lr

module Config = struct
  (* Thermal-reliability scenario: a static temperature map of the die
     plus the objective-weight ladder the Pareto sweep runs selection
     over. The spec deliberately lives outside the preparation slice
     (candidate generation never reads it), so prepared artifacts and
     registry entries are shared between thermal and plain jobs. *)
  type thermal = {
    map : Operon_thermal.Thermal_map.t;
    weights : float array;  (* sweep ladder; first entry drives the
                               returned flow's selection *)
  }

  (* Hierarchical partition-and-route: [Off] is the flat flow (the
     default and the parity oracle), [Regions n] decomposes selection
     into [n] spatial regions solved independently on the Domain pool
     with a corridor-stitch fix-up, [Auto] picks a region count from the
     design size (and stays flat below the profitable scale). *)
  type partition = Off | Auto | Regions of int

  type t = {
    params : Operon_optical.Params.t;
    processing : Processing.config option;
    mode : mode;
    ilp_budget : float;
    max_cands_per_net : int;
    jobs : int;
    strict : bool;
    injections : Fault.injection list;
    cache : bool;
    seed : int;
    solver_core : Operon_solver.Solver.core;
    thermal : thermal option;
    partition : partition;
  }

  let default_thermal_weights = [| 0.0; 0.5; 1.0; 2.0; 4.0; 8.0 |]

  let make ?processing ?(mode = Lr) ?(ilp_budget = 3000.0)
      ?(max_cands_per_net = 10) ?(jobs = 1) ?(strict = false)
      ?(injections = []) ?(cache = true) ?(seed = 42)
      ?(solver_core = Operon_solver.Solver.Sparse) ?thermal
      ?(partition = Off) params =
    (match Operon_optical.Params.validate params with
     | Ok () -> ()
     | Error msg -> invalid_arg ("Config.make: " ^ msg));
    { params; processing; mode; ilp_budget; max_cands_per_net; jobs; strict;
      injections; cache; seed; solver_core; thermal; partition }

  let default params = make params

  let with_jobs jobs t = { t with jobs }
  let with_cache cache t = { t with cache }

  let with_thermal ?(weights = default_thermal_weights) map t =
    if Array.length weights = 0 then
      invalid_arg "Config.with_thermal: empty weight ladder";
    Array.iter
      (fun w ->
        if not (Float.is_finite w) || w < 0.0 then
          invalid_arg
            (Printf.sprintf
               "Config.with_thermal: weight %g must be finite and non-negative"
               w))
      weights;
    { t with thermal = Some { map; weights = Array.copy weights } }

  let to_runctx_config t =
    { Runctx.params = t.params;
      mode = t.mode;
      ilp_budget = t.ilp_budget;
      max_cands_per_net = t.max_cands_per_net;
      jobs = t.jobs;
      strict = t.strict;
      injections = t.injections;
      cache = t.cache;
      solver_core = t.solver_core }
end

(* One evaluated point of the thermal Pareto sweep: the selection found
   at one objective weight, with its physical power and its worst-case
   thermal margin (both recomputable from [tp_choice] alone). *)
type thermal_point = {
  tp_weight : float;
  tp_power : float;  (* physical power of the selection, pJ/bit *)
  tp_margin : float;
      (* l_max minus the worst temperature-aware path loss, dB *)
  tp_hash : string;  (* FNV-1a 64 of the choice vector, 16 hex digits *)
  tp_choice : int array;
  tp_seconds : float;  (* selection wall-clock of this weight *)
}

type thermal_result = {
  tr_front : thermal_point list;
      (* Pareto-optimal points, power strictly ascending and margin
         strictly ascending *)
  tr_swept : int;  (* weights evaluated *)
  tr_dropped : int;  (* points removed as duplicate or dominated *)
  tr_map : string;  (* Thermal_map.summary of the scenario map *)
  tr_seconds : float;  (* whole-sweep wall-clock *)
}

(* Shape of one partitioned selection, surfaced through the export's
   [partition] block and the Partition instrument counters. *)
type partition_stats = {
  pt_regions : int;
  pt_corridor_nets : int;  (* nets with a neighbor across the cut *)
  pt_cut_pairs : int;  (* interacting pairs the cut severed *)
  pt_total_pairs : int;
  pt_boundary_components : int;
  pt_largest_region : int;
  pt_stitch_changed : int;  (* nets the corridor fix-up re-decided *)
  pt_plan_seconds : float;
  pt_stitch_seconds : float;
}

type t = {
  design : Signal.design;
  hnets : Hypernet.t array;
  ctx : Selection.ctx;
  mode : mode;
  choice : int array;
  power : float;
  select_seconds : float;
  ilp : Ilp_select.result option;
  lr : Lr_select.result option;
  placement : Wdm_place.placement;
  assignment : Assign.result;
  trace : Instrument.sink;
  faults : Fault.t list;
  quarantined_nets : int array;
  solver_path : string;
  cache : Xmatrix.stats;
  thermal : thermal_result option;
  partition : partition_stats option;
}

(* Region-count policy. [Auto] aims for [auto_region_nets] nets per
   region and stays flat (returns [None]) below two regions' worth —
   partitioning a small design buys nothing and costs a stitch. An
   explicit [Regions n] is honored whenever at least two non-trivial
   regions are possible. *)
let auto_region_nets = 1024

let resolve_partition (p : Config.partition) ~nets =
  let r =
    match p with
    | Config.Off -> 0
    | Config.Regions r -> Stdlib.min r nets
    | Config.Auto -> Stdlib.min 64 (nets / auto_region_nets)
  in
  if r >= 2 then Some r else None

(* ------------------------------------------------------------------ *)
(* The six pipeline stages (paper Figure 2).                          *)
(* ------------------------------------------------------------------ *)

let stage_processing processing =
  Pipeline.stage Instrument.Processing (fun rc design ->
      let params = rc.Runctx.config.Runctx.params in
      let hnets = Processing.run ?config:processing rc.Runctx.rng params design in
      let nets, hn, hpins = Processing.stats hnets in
      (* Crossing loss is bundled by the design's expected waveguide channel
         occupancy; the adjusted parameters travel inside the ctx. *)
      let params =
        if hn = 0 then params
        else
          Operon_optical.Params.auto_bundle params
            ~mean_bits:(float_of_int nets /. float_of_int hn)
      in
      let sink = rc.Runctx.sink in
      Instrument.incr sink Instrument.Processing "nets" nets;
      Instrument.incr sink Instrument.Processing "hnets" hn;
      Instrument.incr sink Instrument.Processing "hpins" hpins;
      (design, params, hnets))

(* Optical baseline segments of every hyper net feed the crossing
   estimator used while pruning the co-design DP. One task per net;
   the executor preserves net order, so the concatenated segment array —
   and hence the crossing index — is identical whichever backend ran it.
   A net whose baseline task faults is quarantined: it contributes no
   optical segments and the codesign stage will route it all-electrical. *)
(* The per-net contribution to the design-wide crossing index. Also the
   unit of the ECO delta indices, so both paths share one definition. *)
let baseline_tree_segments (hnet : Hypernet.t) =
  let terminals = Hypernet.centers hnet in
  if Array.length terminals <= 1 then [||]
  else
    let topo = Bi1s.build Topology.L2 terminals ~root:0 in
    Array.map (fun s -> (hnet.Hypernet.id, s)) (Topology.segments topo)

let stage_baselines =
  Pipeline.stage Instrument.Baselines (fun rc (design, params, hnets) ->
      let results =
        Executor.try_parallel_mapi rc.Runctx.exec
          (fun _ hnet ->
            Runctx.check_inject rc ~stage:Instrument.Baselines ~net:hnet.Hypernet.id ();
            baseline_tree_segments hnet)
          hnets
      in
      let per_net =
        Array.mapi
          (fun i result ->
            match result with
            | Ok segs -> segs
            | Error (e, bt) ->
                Runctx.degrade rc ~stage:Instrument.Baselines
                  ~net:hnets.(i).Hypernet.id e bt;
                [||])
          results
      in
      let segments = Array.concat (Array.to_list per_net) in
      Instrument.incr rc.Runctx.sink Instrument.Baselines "segments"
        (Array.length segments);
      let index = Crossing.build_index ~die:design.Signal.die segments in
      (design, params, hnets, index))

(* The outcome of a net quarantined upstream, which skips the DP: its
   all-electrical fallback as its only candidate. *)
let quarantined_cands params hnet =
  `Fresh
    ( Codesign.electrical_only params hnet,
      { Codesign.raw = 1; deduped = 1; kept = 1 },
      ([||] : Codesign.xcounts) )

(* Merge per-net co-design outcomes on the coordinator, in net-id order:
   a [`Fresh] net's DP counters are charged, a [`Kept] net (an ECO
   reuse) carries its previous candidate list over, and a failed net is
   quarantined onto its all-electrical fallback. The fallback is built
   here, after the fan-out, so healthy nets' results are untouched.
   Returns the candidate lists, their crossing counts and the reuse
   mask. *)
let merge_codesign rc params hnets results =
  let sink = rc.Runctx.sink in
  let xcounts = Array.make (Array.length hnets) ([||] : Codesign.xcounts) in
  let reused = Array.make (Array.length hnets) false in
  let cand_lists =
    Array.mapi
      (fun i result ->
        match result with
        | Ok (`Kept (cands, counts)) ->
            reused.(i) <- true;
            xcounts.(i) <- counts;
            cands
        | Ok (`Fresh (cands, s, counts)) ->
            Instrument.incr sink Instrument.Codesign "raw" s.Codesign.raw;
            Instrument.incr sink Instrument.Codesign "kept" s.Codesign.kept;
            Instrument.incr sink Instrument.Codesign "pruned"
              (s.Codesign.raw - s.Codesign.kept);
            xcounts.(i) <- counts;
            cands
        | Error (e, bt) ->
            Runctx.degrade rc ~stage:Instrument.Codesign
              ~net:hnets.(i).Hypernet.id e bt;
            Codesign.electrical_only params hnets.(i))
      results
  in
  let quarantined = Runctx.quarantined rc in
  if Array.length quarantined > 0 then
    Instrument.incr sink Instrument.Codesign "quarantined"
      (Array.length quarantined);
  (cand_lists, xcounts, reused)

let stage_codesign =
  Pipeline.stage Instrument.Codesign (fun rc (design, params, hnets, index) ->
      let max_total = rc.Runctx.config.Runctx.max_cands_per_net in
      (* Nets already quarantined upstream (baselines faults) skip the DP
         outright: their crossing estimates would be built from segments
         that were never generated. *)
      let upstream = Runctx.quarantined rc in
      let is_quarantined id = Array.exists (fun q -> q = id) upstream in
      (* Per-net PRNG streams, split off in net-id order *before* the
         fan-out. Any randomized decision a per-net task ever makes must
         draw from its own stream, never from [rc.rng], so that results
         cannot depend on domain scheduling. Today's DP kernels are fully
         deterministic and retire the stream unused; the split discipline
         is the contract parallel candidate generation relies on. *)
      let net_rngs = Array.map (fun _ -> Prng.split rc.Runctx.rng) hnets in
      let results =
        Executor.try_parallel_mapi rc.Runctx.exec
          (fun i hnet ->
            Runctx.check_inject rc ~stage:Instrument.Codesign ~net:hnet.Hypernet.id ();
            let _net_rng = net_rngs.(i) in
            if is_quarantined hnet.Hypernet.id then
              quarantined_cands params hnet
            else
              let crossing_est = Crossing.estimator index ~net:hnet.Hypernet.id in
              let counts = Codesign.crossing_counts ~crossing_est hnet in
              let cands, stats =
                Codesign.for_hypernet_counted ~max_total ~counts params hnet
              in
              `Fresh (cands, stats, counts))
          hnets
      in
      let cand_lists, xcounts, _ = merge_codesign rc params hnets results in
      (design, params, hnets, cand_lists, xcounts))

(* Building the selection context is charged to Codesign, as it was when
   the two lived in one stage; it is split out so the ECO path can build
   the context with per-net reuse on recycled candidate lists. *)
let record_xmatrix sink ctx =
  let xs = Xmatrix.stats ctx.Selection.xmat in
  if xs.Xmatrix.enabled then begin
    Instrument.incr sink Instrument.Codesign "xmatrix_pairs" xs.Xmatrix.pairs;
    Instrument.incr sink Instrument.Codesign "xmatrix_entries" xs.Xmatrix.entries;
    Instrument.incr sink Instrument.Codesign "xmatrix_build_ms"
      (int_of_float (Float.round (xs.Xmatrix.build_seconds *. 1000.0)))
  end

let stage_ctx partition =
  Pipeline.stage Instrument.Codesign
    (fun rc (design, params, hnets, cand_lists, xcounts) ->
      (* A partitioned run builds per-region crossing caches during
         selection; precomputing the design-wide matrix here would be
         thrown-away work, so the full context stays direct (the
         partitioned path reports the aggregated per-region cache
         stats instead). *)
      let cache =
        rc.Runctx.config.Runctx.cache
        && resolve_partition partition ~nets:(Array.length cand_lists) = None
      in
      let ctx =
        Selection.make_ctx ~exec:rc.Runctx.exec ~cache params cand_lists
      in
      record_xmatrix rc.Runctx.sink ctx;
      (design, params, hnets, cand_lists, xcounts, ctx))

type selected = {
  s_design : Signal.design;
  s_hnets : Hypernet.t array;
  s_ctx : Selection.ctx;
  s_choice : int array;
  s_seconds : float;
  s_ilp : Ilp_select.result option;
  s_lr : Lr_select.result option;
  s_solver_path : string;
  s_partition : (Partition.t * partition_stats * Xmatrix.stats) option;
      (* when selection ran partitioned: the plan, carried forward so the
         WDM stages decompose along the same cut; its shape; and the sum
         of the per-region crossing-matrix stats, which stands in for the
         final context's own *)
}

(* Outcome of one region's selection, computed inside a Domain task.
   Pure data: faults are constructed in the task but recorded on the
   coordinator in region order, so the fault log, the counters and the
   merged choice are identical at any --jobs. *)
type region_out = {
  ro_choice : int array;
  ro_path : string list;  (* engines tried, in order *)
  ro_ilp : Ilp_select.result option;
  ro_lr : Lr_select.result option;
  ro_counters : (string * int) list;  (* the answering engine's *)
  ro_faults : Fault.t list;  (* in occurrence order *)
  ro_cache : Xmatrix.stats;
}

let engine_names = function
  | Ilp -> [ "ilp"; "lr"; "greedy" ]
  | Lr -> [ "lr"; "greedy" ]

(* The selection engine: a fallback chain with explicit budgets. The
   configured engine runs first (ILP under its wall-clock/pivot budget,
   LR under its iteration/wall-clock budget), then the cheaper engines
   in order, down to the solver-free greedy feasibility repair; if even
   that crashes, the all-electrical selection (the paper's Eq. 6
   baseline) cannot fail. Every failed hop is a Select fault, returned
   as data; a strict run raises the first one instead. Safe in a Domain
   task: besides [ctx], it reads only [rc]'s immutable config. *)
let select_region rc ?initial ctx =
  let cfg = rc.Runctx.config in
  let budget_seconds = cfg.Runctx.ilp_budget in
  let run = function
    | "ilp" ->
        Runctx.check_inject rc ~stage:Instrument.Select ();
        let r =
          Ilp_select.select ~budget_seconds ~core:cfg.Runctx.solver_core
            ?initial ctx
        in
        ( r.Ilp_select.choice, Some r, None,
          [ ("components", r.Ilp_select.components);
            ("timed_out", r.Ilp_select.timed_out);
            ("nodes", r.Ilp_select.nodes);
            ("lp_solves", r.Ilp_select.lp_solves);
            ("pivots", r.Ilp_select.pivots);
            ("refactorizations", r.Ilp_select.refactorizations);
            ("blocks_solved", r.Ilp_select.blocks_solved);
            ("blocks_skipped", r.Ilp_select.blocks_skipped) ] )
    | "lr" ->
        Runctx.check_inject rc ~stage:Instrument.Select ();
        let r = Lr_select.select ~budget_seconds ?initial ctx in
        ( r.Lr_select.choice, None, Some r,
          [ ("iterations", r.Lr_select.iterations);
            ("demoted", r.Lr_select.demoted) ] )
    | _ (* greedy *) ->
        (Selection.polish ctx (Selection.greedy ctx), None, None, [])
  in
  let rec go path faults = function
    | [] ->
        ( "electrical" :: path,
          faults,
          (Selection.all_electrical ctx, None, None, []) )
    | name :: rest -> (
        match run name with
        | r -> (name :: path, faults, r)
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            let fault = Fault.of_exn ~stage:Instrument.Select e bt in
            if cfg.Runctx.strict then
              Printexc.raise_with_backtrace (Fault.Error fault) bt;
            go (name :: path) (fault :: faults) rest)
  in
  let path, faults, (choice, ilp, lr, counters) =
    go [] [] (engine_names cfg.Runctx.mode)
  in
  { ro_choice = choice;
    ro_path = List.rev path;
    ro_ilp = ilp;
    ro_lr = lr;
    ro_counters = counters;
    ro_faults = List.rev faults;
    ro_cache = Xmatrix.stats ctx.Selection.xmat }

(* One region of a partitioned plan: the engine on the region's slice
   of the design-wide context — its member nets' candidate lists under a
   private crossing matrix, plus the matching rows of the thermal
   profile and of the warm start. *)
let select_slice rc ?initial (ctx : Selection.ctx) ids =
  let rows a = Array.map (fun i -> a.(i)) ids in
  let sub =
    Selection.make_ctx ~cache:rc.Runctx.config.Runctx.cache
      ctx.Selection.params
      (Array.map Array.to_list (rows ctx.Selection.cands))
  in
  let sub =
    match ctx.Selection.thermal with
    | None -> sub
    | Some th ->
        (* The penalty tensor is per-net and choice-independent, so a
           slice of it is exactly the profile a regional
           [thermal_profile] would compute. *)
        Selection.with_thermal sub
          { Selection.penalty = rows th.Selection.penalty;
            tcost = rows th.Selection.tcost;
            weight = 0.0 }
          ~weight:th.Selection.weight
  in
  let initial =
    match initial with
    | Some init when Array.length init = Array.length ctx.Selection.cands ->
        (* Per-net candidate indices translate directly; the engines
           sanitize out-of-range entries themselves. *)
        Some (rows init)
    | _ -> None
  in
  select_region rc ?initial sub

(* Selection runs the engine chain on every region of a plan, on the
   Domain pool, and merges in region order. The flat flow is the
   one-region plan over the full context: nothing is sliced, so the
   design-wide crossing matrix and LR's global convergence state are
   exactly the flat engine's.

   An active partition spec plans a spatial decomposition instead. Each
   region selects on its own slice with the full budget (regions run
   concurrently, so the wall-clock budget is per region by
   construction), and a restricted polish pass repairs the corridor
   nets. When the cut severs no interactions the merged ILP/greedy
   result is bit-identical to the flat run's; LR couples nets globally
   through its convergence tests, so partitioned LR is only
   power-bounded, not bit-equal (DESIGN.md §16). A real exception in the
   plan or the stitch degrades to the one-region plan. *)
let stage_select partition =
  Pipeline.stage Instrument.Select (fun rc (design, hnets, ctx, initial) ->
      let cfg = rc.Runctx.config in
      let sink = rc.Runctx.sink in
      let count key v = Instrument.incr sink Instrument.Select key v in
      (match initial with Some _ -> count "warm_start" 1 | None -> ());
      let n = Array.length ctx.Selection.cands in
      let solve ?(hops = []) regions region =
        let t0 = Timer.now () in
        (* A region whose task died outside the engine chain (slicing)
           falls to its electrical candidates, the chain's own floor. *)
        let floor r =
          { ro_choice =
              Array.map (fun i -> ctx.Selection.elec_idx.(i)) regions.(r);
            ro_path = engine_names cfg.Runctx.mode @ [ "electrical" ];
            ro_ilp = None;
            ro_lr = None;
            ro_counters = [];
            ro_faults = [];
            ro_cache = Xmatrix.stats (Xmatrix.direct [||]) }
        in
        let outs =
          Fanout.map rc ~stage:Instrument.Select ~floor region regions
        in
        let choice = Array.make n 0 in
        Array.iteri
          (fun r out ->
            Array.iteri
              (fun k i -> choice.(i) <- out.ro_choice.(k))
              regions.(r);
            List.iter
              (fun f ->
                Runctx.record_fault rc f;
                count "fallbacks" 1)
              out.ro_faults;
            List.iter (fun (key, v) -> count key v) out.ro_counters)
          outs;
        (* The deepest fallback any region reached names the run's solver
           path: a prefix of the same chain, so a clean partitioned run
           reports exactly the flat run's path. *)
        let path =
          Array.fold_left
            (fun p o ->
              if List.length o.ro_path > List.length p then o.ro_path else p)
            [] outs
        in
        ( { s_design = design;
            s_hnets = hnets;
            s_ctx = ctx;
            s_choice = choice;
            s_seconds = Timer.now () -. t0;
            s_ilp = (match outs with [| o |] -> o.ro_ilp | _ -> None);
            s_lr = (match outs with [| o |] -> o.ro_lr | _ -> None);
            s_solver_path = String.concat "->" (hops @ path);
            s_partition = None },
          outs )
      in
      let flat hops =
        let before = Xmatrix.stats ctx.Selection.xmat in
        let sel, outs =
          solve ~hops [| Array.init n Fun.id |] (fun _ ->
              select_region rc ?initial ctx)
        in
        let after = outs.(0).ro_cache in
        count "cache_hits" (after.Xmatrix.hits - before.Xmatrix.hits);
        count "cache_misses" (after.Xmatrix.misses - before.Xmatrix.misses);
        sel
      in
      let partitioned regions =
        let timed f =
          Instrument.timed sink Instrument.Partition (fun () -> Timer.time f)
        in
        let plan, plan_dt =
          timed (fun () ->
              Partition.make ~regions ctx.Selection.bboxes
                ~neighbors:ctx.Selection.neighbors)
        in
        let sel, outs =
          solve plan.Partition.regions (select_slice rc ?initial ctx)
        in
        (* Corridor stitch: regional solutions are feasible within their
           regions, so repairing (and then improving) just the corridor
           nets restores global feasibility. A cut severing no
           interactions needs no stitch — the merge is already the flat
           answer for the component-local engines. *)
        let merged = sel.s_choice in
        let stitched, stitch_dt =
          if plan.Partition.cut_pairs = 0 then (merged, 0.0)
          else
            timed (fun () ->
                Selection.polish ~only:plan.Partition.corridor ctx merged)
        in
        let changed = ref 0 in
        Array.iteri (fun i j -> if merged.(i) <> j then incr changed) stitched;
        let stats =
          { pt_regions = Array.length plan.Partition.regions;
            pt_corridor_nets = Array.length plan.Partition.corridor;
            pt_cut_pairs = plan.Partition.cut_pairs;
            pt_total_pairs = plan.Partition.total_pairs;
            pt_boundary_components = Array.length plan.Partition.boundary;
            pt_largest_region =
              Array.fold_left
                (fun acc ids -> Stdlib.max acc (Array.length ids))
                0 plan.Partition.regions;
            pt_stitch_changed = !changed;
            pt_plan_seconds = plan_dt;
            pt_stitch_seconds = stitch_dt }
        in
        List.iter
          (fun (key, v) -> Instrument.incr sink Instrument.Partition key v)
          [ ("regions", stats.pt_regions);
            ("corridor_nets", stats.pt_corridor_nets);
            ("cut_pairs", stats.pt_cut_pairs);
            ("total_pairs", stats.pt_total_pairs);
            ("boundary_components", stats.pt_boundary_components);
            ( "cut_permille",
              int_of_float
                (Float.round (1000.0 *. Partition.cut_fraction plan)) );
            ("stitch_changed", !changed) ];
        let sum f = Array.fold_left (fun acc o -> f acc o.ro_cache) in
        { sel with
          s_choice = stitched;
          s_seconds = plan_dt +. sel.s_seconds +. stitch_dt;
          s_partition =
            Some
              ( plan,
                stats,
                { Xmatrix.enabled = cfg.Runctx.cache;
                  pairs = sum (fun a c -> a + c.Xmatrix.pairs) 0 outs;
                  entries = sum (fun a c -> a + c.Xmatrix.entries) 0 outs;
                  build_seconds =
                    sum (fun a c -> a +. c.Xmatrix.build_seconds) 0.0 outs;
                  hits = sum (fun a c -> a + c.Xmatrix.hits) 0 outs;
                  misses = sum (fun a c -> a + c.Xmatrix.misses) 0 outs } ) }
      in
      match resolve_partition partition ~nets:n with
      | None -> flat []
      | Some regions -> (
          match partitioned regions with
          | sel -> sel
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              Runctx.degrade rc ~stage:Instrument.Select e bt;
              count "fallbacks" 1;
              flat [ "partition" ]))

(* The realization stages' fan-out: [f] on every region's part on the
   pool, merged in region order — track arrays concatenated, and each
   local connection's entry moved to its global id [globals.(r).(k)],
   its track indices shifted past the earlier regions' tracks. Tasks are
   pure, so the merge is identical at any --jobs. A failed region sends
   the stage down to [whole], the monolithic one-part split, whose
   failure propagates. *)
let rec realize_regions rc ~stage ~whole f (parts, globals) ~nconns ~empty
    ~tracks ~entries =
  let results =
    Fanout.map rc ~stage ~floor:(fun _ -> None) (fun p -> Some (f p)) parts
  in
  if Array.exists Option.is_none results then
    realize_regions rc ~stage ~whole f whole ~nconns ~empty ~tracks ~entries
  else begin
    let rs = Array.map Option.get results in
    let merged = Array.make nconns empty in
    let base = ref 0 in
    Array.iteri
      (fun r p ->
        let b = !base in
        Array.iteri (fun k e -> merged.(globals.(r).(k)) <- e) (entries b p);
        base := b + Array.length (tracks p))
      rs;
    if Array.length rs > 1 then
      Instrument.incr rc.Runctx.sink stage "regions" (Array.length rs);
    (rs, globals, Array.concat (Array.to_list (Array.map tracks rs)), merged)
  end

(* Per-region WDM realization: each region's connections are placed on
   that region's own tracks, with local dense connection ids, so the
   superlinear retirement/min-cost-flow solves of [stage_assign]
   decompose along the same cut as selection did. The merged track
   array is legalized once: track spacing is a global constraint, and
   running the pass at the same point as the flat flow means the
   per-region assignment sees exactly the coordinates a flat one
   would. *)
let stage_wdm =
  Pipeline.stage Instrument.Wdm (fun rc sel ->
      let params = sel.s_ctx.Selection.params in
      let conns = Wdm_place.connections_of_selection sel.s_ctx sel.s_choice in
      let all = [| Array.init (Array.length conns) Fun.id |] in
      let globals =
        match sel.s_partition with
        | None -> all
        | Some (plan, _, _) ->
            let buckets = Array.make (Array.length plan.Partition.regions) [] in
            for i = Array.length conns - 1 downto 0 do
              let net = conns.(i).Operon_optical.Wdm.net in
              let r = plan.Partition.region_of.(net) in
              buckets.(r) <- i :: buckets.(r)
            done;
            Array.map Array.of_list buckets
      in
      let placements, globals, tracks, assignment =
        realize_regions rc ~stage:Instrument.Wdm ~whole:(all, all)
          (fun ids ->
            Wdm_place.place params
              (Array.mapi
                 (fun k gi -> { conns.(gi) with Operon_optical.Wdm.id = k })
                 ids))
          (globals, globals) ~nconns:(Array.length conns) ~empty:(-1)
          ~tracks:(fun p -> p.Wdm_place.tracks)
          ~entries:(fun b p ->
            Array.map
              (fun t -> if t >= 0 then b + t else t)
              p.Wdm_place.assignment)
      in
      ignore (Wdm_place.legalize params tracks);
      let count key v = Instrument.incr rc.Runctx.sink Instrument.Wdm key v in
      count "connections" (Array.length conns);
      count "tracks" (Array.length tracks);
      (sel, { Wdm_place.conns; tracks; assignment }, (placements, globals)))

(* Retirement and min-cost re-assignment per region: a region's
   connections are only eligible for its own tracks, so the region
   solves are exact sub-problems. Cross-region track sharing is
   forfeited; the partition-smoke CI job bounds the resulting
   track-count delta. *)
let stage_assign =
  Pipeline.stage Instrument.Assign (fun rc (sel, placement, regional) ->
      let params = sel.s_ctx.Selection.params in
      let sink = rc.Runctx.sink in
      let all = Array.init (Array.length placement.Wdm_place.conns) Fun.id in
      let rs, _, tracks, flows =
        realize_regions rc ~stage:Instrument.Assign
          ~whole:([| placement |], [| all |])
          (Assign.run params) regional ~nconns:(Array.length all) ~empty:[]
          ~tracks:(fun (a : Assign.result) -> a.Assign.tracks)
          ~entries:(fun b (a : Assign.result) ->
            Array.map (List.map (fun (wi, f) -> (b + wi, f))) a.Assign.flows)
      in
      let sum field = Array.fold_left (fun acc a -> acc + field a) 0 rs in
      let assignment =
        { Assign.tracks;
          flows;
          initial_count = sum (fun a -> a.Assign.initial_count);
          final_count = Array.length tracks;
          displacement_cost =
            Array.fold_left
              (fun acc (a : Assign.result) -> acc +. a.Assign.displacement_cost)
              0.0 rs;
          searches = sum (fun a -> a.Assign.searches);
          retire_solves = sum (fun a -> a.Assign.retire_solves);
          pinned = sum (fun a -> a.Assign.pinned) }
      in
      List.iter
        (fun (key, v) -> Instrument.incr sink Instrument.Assign key v)
        [ ("initial", assignment.Assign.initial_count);
          ("final", assignment.Assign.final_count);
          ("searches", assignment.Assign.searches);
          ("retire_solves", assignment.Assign.retire_solves);
          ("pinned", assignment.Assign.pinned) ];
      { design = sel.s_design;
        hnets = sel.s_hnets;
        ctx = sel.s_ctx;
        mode = rc.Runctx.config.Runctx.mode;
        choice = sel.s_choice;
        power = Selection.power sel.s_ctx sel.s_choice;
        select_seconds = sel.s_seconds;
        ilp = sel.s_ilp;
        lr = sel.s_lr;
        placement;
        assignment;
        trace = sink;
        faults = Runctx.faults rc;
        quarantined_nets = Runctx.quarantined rc;
        solver_path = sel.s_solver_path;
        cache =
          (match sel.s_partition with
           | Some (_, _, stats) -> stats
           | None -> Xmatrix.stats sel.s_ctx.Selection.xmat);
        thermal = None;
        partition = Option.map (fun (_, stats, _) -> stats) sel.s_partition })

let prepare_pipeline processing partition =
  Pipeline.(
    stage_processing processing >>> stage_baselines >>> stage_codesign
    >>> stage_ctx partition)

let select_pipeline partition =
  Pipeline.(stage_select partition >>> stage_wdm >>> stage_assign)

(* ------------------------------------------------------------------ *)
(* Thermal Pareto sweep.                                              *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over the choice vector: a stable, printable identity for "the
   same selection" across weights, job counts and processes. *)
let choice_hash choice =
  let h =
    Array.fold_left
      (fun h j ->
        Int64.mul (Int64.logxor h (Int64.of_int j)) 0x100000001b3L)
      0xcbf29ce484222325L choice
  in
  Printf.sprintf "%016Lx" h

(* Duplicate selections collapse to their first (lowest-weight)
   occurrence; the survivors keep only the non-dominated points. Sorted
   by power ascending (ties broken margin-descending), a point survives
   iff its margin strictly exceeds the best margin so far — so the front
   is strictly ascending in both power and margin. *)
let pareto_front points =
  let seen = Hashtbl.create 16 in
  let uniq =
    List.filter
      (fun p ->
        if Hashtbl.mem seen p.tp_hash then false
        else begin
          Hashtbl.add seen p.tp_hash ();
          true
        end)
      points
  in
  let sorted =
    List.stable_sort
      (fun a b ->
        match Float.compare a.tp_power b.tp_power with
        | 0 -> Float.compare b.tp_margin a.tp_margin
        | c -> c)
      uniq
  in
  List.rev
    (List.fold_left
       (fun acc p ->
         match acc with
         | q :: _ when p.tp_margin <= q.tp_margin -> acc
         | _ -> p :: acc)
       [] sorted)

(* A thermal scenario with no positive weight is inert by contract
   (weight 0 must reproduce the plain flow bit for bit), so only specs
   with a positive weight switch the entry points onto the sweep path. *)
let active_thermal (config : Config.t) =
  match config.Config.thermal with
  | Some spec when Array.exists (fun w -> w > 0.0) spec.Config.weights ->
      Some spec
  | _ -> None

(* Run selection once per ladder weight over one shared context (the
   detuning profile is choice-independent, so candidates, neighbourhoods
   and the crossing cache are computed once). Weight 0 deliberately uses
   the plain context — same expression trees, bit-identical selection to
   a thermal-free run. Margins of every point are evaluated under the
   weight-0 thermal context: penalties applied, objective untouched, so
   each exported point is recomputable from its choice vector alone. The
   first weight's selection carries on through the WDM stages as the
   flow's primary result. *)
let thermal_run rc ?initial ?(partition = Config.Off) (spec : Config.thermal)
    (design, hnets, ctx) =
  let sink = rc.Runctx.sink in
  let t0 = Timer.now () in
  let profile =
    Instrument.timed sink Instrument.Pareto (fun () ->
        Selection.thermal_profile ctx spec.Config.map)
  in
  let eval_ctx = Selection.with_thermal ctx profile ~weight:0.0 in
  let sels =
    Array.map
      (fun w ->
        let ctx_w =
          if w = 0.0 then ctx else Selection.with_thermal ctx profile ~weight:w
        in
        let sel =
          Pipeline.run rc (stage_select partition)
            (design, hnets, ctx_w, initial)
        in
        let pt =
          { tp_weight = w;
            tp_power = Selection.power ctx sel.s_choice;
            tp_margin = Selection.thermal_margin eval_ctx sel.s_choice;
            tp_hash = choice_hash sel.s_choice;
            tp_choice = Array.copy sel.s_choice;
            tp_seconds = sel.s_seconds }
        in
        (pt, sel))
      spec.Config.weights
  in
  let points = Array.to_list (Array.map fst sels) in
  let front = pareto_front points in
  let swept = List.length points in
  Instrument.incr sink Instrument.Pareto "weights" swept;
  Instrument.incr sink Instrument.Pareto "front" (List.length front);
  Instrument.incr sink Instrument.Pareto "dropped" (swept - List.length front);
  let _, first_sel = sels.(0) in
  let flow = Pipeline.run rc Pipeline.(stage_wdm >>> stage_assign) first_sel in
  { flow with
    thermal =
      Some
        { tr_front = front;
          tr_swept = swept;
          tr_dropped = swept - List.length front;
          tr_map = Operon_thermal.Thermal_map.summary spec.Config.map;
          tr_seconds = Timer.now () -. t0 } }

(* ------------------------------------------------------------------ *)
(* Prepared artifacts and the ECO re-preparation path.                *)
(* ------------------------------------------------------------------ *)

type eco_stats = {
  nets_reused : int;
  nets_recomputed : int;
  xrows_reused : int;
  dirty : int;
  interaction_dirty : int;
  added : int;
  removed : int;
  dirty_closure : int;
  cold_fallback : bool;
}

type prepared = {
  p_design : Signal.design;
  p_config : Config.t;
  p_hnets : Hypernet.t array;
  p_cands : Candidate.t list array;
  p_xcounts : Codesign.xcounts array;
  p_ctx : Selection.ctx;
  p_quarantined : int array;
  p_eco : eco_stats option;
}

(* ------------------------------------------------------------------ *)
(* Entry points.                                                      *)
(* ------------------------------------------------------------------ *)

let run_ctx ?processing ?(partition = Config.Off) rc design =
  let design, _params, hnets, _cands, _xcounts, ctx =
    Pipeline.run rc (prepare_pipeline processing partition) design
  in
  Pipeline.run rc (select_pipeline partition) (design, hnets, ctx, None)

(* A fresh run-context for one Config-driven entry point; callers seed
   via [Config.seed]. *)
let runctx_of ?sink (cfg : Config.t) =
  let rc = Runctx.create ~seed:cfg.Config.seed (Config.to_runctx_config cfg) in
  match sink with None -> rc | Some sink -> { rc with Runctx.sink = sink }

let prepare_rc rc (config : Config.t) design =
  Pipeline.run rc
    (prepare_pipeline config.Config.processing config.Config.partition)
    design

(* Selection and the WDM stages draw no randomness; the seed only
   matters to the (already finished) processing stage. *)
let select_rc rc ?initial (config : Config.t) (design, hnets, ctx) =
  match active_thermal config with
  | None ->
      Pipeline.run rc
        (select_pipeline config.Config.partition)
        (design, hnets, ctx, initial)
  | Some spec ->
      thermal_run rc ?initial ~partition:config.Config.partition spec
        (design, hnets, ctx)

let synthesize ?sink config design =
  let rc = runctx_of ?sink config in
  let design, _params, hnets, _cands, _xcounts, ctx =
    prepare_rc rc config design
  in
  select_rc rc config (design, hnets, ctx)

let prepared_of rc config (design, _params, hnets, cands, xcounts, ctx) eco =
  { p_design = design;
    p_config = config;
    p_hnets = hnets;
    p_cands = cands;
    p_xcounts = xcounts;
    p_ctx = ctx;
    p_quarantined = Runctx.quarantined rc;
    p_eco = eco }

let prepare ?sink config design =
  let rc = runctx_of ?sink config in
  prepared_of rc config (prepare_rc rc config design) None

let prepare_with ?sink config design =
  let p = prepare ?sink config design in
  (p.p_hnets, p.p_ctx)

let select_with ?sink ?initial config design hnets ctx =
  select_rc (runctx_of ?sink config) ?initial config (design, hnets, ctx)

let select_prepared ?sink ?initial config p =
  select_with ?sink ?initial config p.p_design p.p_hnets p.p_ctx

(* --- ECO re-preparation --- *)

(* The configuration slice [prepare] actually reads. Two preparations
   with equal slices and equal designs produce identical artifacts, so
   per-net reuse across them is sound. *)
let prep_config_equal (a : Config.t) (b : Config.t) =
  a.Config.seed = b.Config.seed
  && a.Config.max_cands_per_net = b.Config.max_cands_per_net
  && a.Config.cache = b.Config.cache
  && a.Config.params = b.Config.params
  && a.Config.processing = b.Config.processing

let cold_eco_stats n =
  { nets_reused = 0;
    nets_recomputed = n;
    xrows_reused = 0;
    dirty = 0;
    interaction_dirty = 0;
    added = 0;
    removed = 0;
    dirty_closure = n;
    cold_fallback = true }

let prepare_eco ?sink ~(prev : prepared) config design =
  let cold () =
    let p = prepare ?sink config design in
    (match sink with
     | Some s -> Instrument.incr s Instrument.Eco "cold_fallback" 1
     | None -> ());
    { p with p_eco = Some (cold_eco_stats (Array.length p.p_hnets)) }
  in
  (* Gates: anything that could make the previous artifacts incomparable
     to what a cold preparation of [design] would compute falls back to
     the cold path. Injections perturb per-net work, a quarantined net's
     stored candidates are fallbacks rather than true DP output, and a
     differing preparation config changes every net's artifacts. *)
  if
    config.Config.injections <> []
    || prev.p_config.Config.injections <> []
    || Array.length prev.p_quarantined > 0
    || not (prep_config_equal config prev.p_config)
  then cold ()
  else begin
    let rc = runctx_of ?sink config in
    let sink = rc.Runctx.sink in
    (* Processing always runs in full: it is cheap, and running it makes
       the hyper nets — and the PRNG state every later stage sees — the
       cold run's, by construction. *)
    let design, params, hnets =
      Pipeline.run rc (stage_processing config.Config.processing) design
    in
    let diff =
      Instrument.timed sink Instrument.Eco (fun () ->
          Design_diff.diff ~neighbors:prev.p_ctx.Selection.neighbors
            prev.p_hnets hnets)
    in
    if
      (not diff.Design_diff.compatible)
      || params <> prev.p_ctx.Selection.params
    then cold ()
    else begin
      (* Baselines are recomputed for every net: the crossing index is a
         single design-wide structure and rebuilding it exactly matches
         the cold run's; per-net baseline cost is negligible next to the
         co-design DP. *)
      let design, params, hnets, index =
        Pipeline.run rc stage_baselines (design, params, hnets)
      in
      let closure = diff.Design_diff.closure in
      let status = diff.Design_diff.status in
      let cand_lists, xcounts, ctx, reused =
        Instrument.timed sink Instrument.Codesign (fun () ->
            let max_total = rc.Runctx.config.Runctx.max_cands_per_net in
            let upstream = Runctx.quarantined rc in
            let is_quarantined id = Array.exists (fun q -> q = id) upstream in
            (* Delta indices over just the changed nets' baseline trees,
               old and new. Crossing counts are additive over any
               partition of the design's segment set, and the grid
               geometry (die, cell count) matches the design-wide index,
               so for an unchanged net [cached - old_delta + new_delta]
               is exactly the count a cold recount would produce.
               The new delta mirrors the design-wide index: a net the
               baselines stage just quarantined contributes no segments
               there, so it contributes none to the delta either. *)
            let delta hs ~keep =
              let acc = ref [] in
              Array.iteri
                (fun i (h : Hypernet.t) ->
                  if status.(i) = Design_diff.Dirty && keep h then
                    match baseline_tree_segments h with
                    | segs -> acc := segs :: !acc
                    | exception _ -> ())
                hs;
              Crossing.build_index ~die:design.Signal.die (Array.concat !acc)
            in
            let idx_old = delta prev.p_hnets ~keep:(fun _ -> true) in
            let idx_new =
              delta hnets ~keep:(fun h -> not (is_quarantined h.Hypernet.id))
            in
            (* Same per-net split discipline as the cold stage: streams
               are split for every net, reused or not, so the PRNG state
               and any randomized per-net decision match the cold run. *)
            let net_rngs =
              Array.map (fun _ -> Prng.split rc.Runctx.rng) hnets
            in
            (* A recomputation whose output equals the previous candidate
               list still certifies full reuse — the list is carried over
               and its crossing-matrix rows and neighbour links stay
               valid, since both depend only on the candidate values.
               Only the refreshed counts must be kept: they are this
               run's true counts, the base the next ECO patch builds on.
               This matters because a moved net rarely changes its
               neighbours' DP outcome: their counts shift, but the same
               trees win, so most of the closure collapses back to
               reuse. *)
            let fresh i hnet counts =
              let cands, s =
                Codesign.for_hypernet_counted ~max_total ~counts params hnet
              in
              if cands = prev.p_cands.(i) then `Kept (prev.p_cands.(i), counts)
              else `Fresh (cands, s, counts)
            in
            (* Dirty nets recount against the design-wide index, the
               one a cold run queries, so a recount here agrees with a
               cold run. *)
            let full_recount i (hnet : Hypernet.t) =
              let crossing_est =
                Crossing.estimator index ~net:hnet.Hypernet.id
              in
              fresh i hnet (Codesign.crossing_counts ~crossing_est hnet)
            in
            let results =
              Executor.try_parallel_mapi rc.Runctx.exec
                (fun i hnet ->
                  Runctx.check_inject rc ~stage:Instrument.Codesign
                    ~net:hnet.Hypernet.id ();
                  let _net_rng = net_rngs.(i) in
                  if not closure.(i) then
                    (* No changed geometry overlaps this net's bbox: no
                       queried segment's count can have moved. *)
                    `Kept (prev.p_cands.(i), prev.p_xcounts.(i))
                  else if is_quarantined hnet.Hypernet.id then
                    quarantined_cands params hnet
                  else if status.(i) = Design_diff.Dirty then
                    (* The net itself changed: cached counts are keyed to
                       topologies that no longer exist. Recount against
                       the design-wide index. *)
                    full_recount i hnet
                  else begin
                    (* Clean content key, but inside the closure: same
                       terminals, same topologies, same queried segments
                       — patch the cached counts with the delta. Counts
                       that come out unchanged certify the whole
                       candidate list (and its Xmatrix rows) for reuse;
                       changed counts replay the DP locally, with no
                       design-wide index queries at all. *)
                    let id = hnet.Hypernet.id in
                    let sub s = Crossing.count_crossings idx_old ~exclude_net:id s in
                    let add s = Crossing.count_crossings idx_new ~exclude_net:id s in
                    match
                      Codesign.adjust_counts ~sub ~add hnet prev.p_xcounts.(i)
                    with
                    | Some counts when counts = prev.p_xcounts.(i) ->
                        `Kept (prev.p_cands.(i), counts)
                    | Some counts -> fresh i hnet counts
                    | None ->
                        (* Unreachable for a clean-keyed net (identical
                           terminals imply identical topology shapes);
                           recount from scratch to stay safe. *)
                        full_recount i hnet
                  end)
                hnets
            in
            let cand_lists, xcounts, reused =
              merge_codesign rc params hnets results
            in
            (* A net that faulted during recomputation holds a fallback
               candidate, not the cold DP output; it was never marked
               reused, so it is never certified for Xmatrix row reuse. *)
            let ctx =
              Selection.make_ctx ~exec:rc.Runctx.exec
                ~cache:rc.Runctx.config.Runctx.cache
                ~reuse:(prev.p_ctx, reused) params cand_lists
            in
            record_xmatrix sink ctx;
            (cand_lists, xcounts, ctx, reused))
      in
      let nets_reused =
        Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 reused
      in
      let nets_recomputed = Array.length hnets - nets_reused in
      let xrows_reused = Xmatrix.reused_rows ctx.Selection.xmat in
      Instrument.incr sink Instrument.Eco "nets_reused" nets_reused;
      Instrument.incr sink Instrument.Eco "nets_recomputed" nets_recomputed;
      Instrument.incr sink Instrument.Eco "xrows_reused" xrows_reused;
      prepared_of rc config (design, params, hnets, cand_lists, xcounts, ctx)
        (Some
           { nets_reused;
             nets_recomputed;
             xrows_reused;
             dirty = diff.Design_diff.n_dirty;
             interaction_dirty = diff.Design_diff.n_interaction;
             added = diff.Design_diff.n_added;
             removed = diff.Design_diff.n_removed;
             dirty_closure = Design_diff.closure_size diff;
             cold_fallback = false })
    end
  end
