(* Traced replay of one op: the flow re-run by calling each layer's public
   function in pipeline order, each call recorded as a span. The replay
   must reproduce the untraced op bit for bit (choice, power, final track
   count); [Main] compares the two.

   The order and arguments mirror [Flow]: processing draws from a PRNG
   seeded with the config's seed; baselines, crossing counts and the
   co-design DP fan out per net on the config's executor; the selection
   context is built cache-free and its crossing matrix added separately
   (which is what [Selection.make_ctx ~cache:true] does in one call). A
   partitioned run has no design-wide matrix: each region builds its own
   context and matrix and runs LR on the pool, the corridor is stitched
   with [Selection.polish ~only], and WDM placement and assignment run
   per region around one global legalization. *)

open Operon
open Operon_util
open Operon_optical
open Operon_steiner

type outcome = {
  choice : int array;
  power : float;
  tracks_final : int;
  op_seconds : float;
      (** wall time of the part of the replay the untraced op covers *)
}

let baseline_segments (h : Hypernet.t) =
  let terminals = Hypernet.centers h in
  if Array.length terminals <= 1 then [||]
  else
    let topo = Bi1s.build Topology.L2 terminals ~root:0 in
    Array.map (fun s -> (h.Hypernet.id, s)) (Topology.segments topo)

let sum f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs

let prepare r exec (cfg : Flow.Config.t) ~cache (design : Signal.design) =
  let hnets, params =
    Span.record r "processing" (fun () ->
        let rng = Prng.create cfg.Flow.Config.seed in
        let p0 = cfg.Flow.Config.params in
        let hnets =
          Processing.run ?config:cfg.Flow.Config.processing rng p0 design
        in
        let nets, hn, hpins = Processing.stats hnets in
        let params =
          if hn = 0 then p0
          else
            Params.auto_bundle p0
              ~mean_bits:(float_of_int nets /. float_of_int hn)
        in
        ((hnets, params), [ ("hnets", hn); ("hpins", hpins) ]))
  in
  let index =
    Span.record r "baselines" (fun () ->
        let per_net = Executor.parallel_map exec baseline_segments hnets in
        let segments = Array.concat (Array.to_list per_net) in
        ( Crossing.build_index ~die:design.Signal.die segments,
          [ ("segments", Array.length segments) ] ))
  in
  let counts =
    Span.fan_out r exec "crossing"
      ~counters:(fun ys -> [ ("queries", sum snd ys) ])
      (fun (h : Hypernet.t) ->
        let est = Crossing.estimator index ~net:h.Hypernet.id in
        let queries = ref 0 in
        let counts =
          Codesign.crossing_counts
            ~crossing_est:(fun s ->
              incr queries;
              est s)
            h
        in
        (counts, !queries))
      hnets
  in
  let generated =
    Span.fan_out r exec "codesign"
      ~counters:(fun ys ->
        [ ("raw", sum (fun (_, s) -> s.Codesign.raw) ys);
          ("kept", sum (fun (_, s) -> s.Codesign.kept) ys) ])
      (fun (h, (counts, _)) ->
        Codesign.for_hypernet_counted
          ~max_total:cfg.Flow.Config.max_cands_per_net ~counts params h)
      (Array.combine hnets counts)
  in
  let ctx =
    Span.record r "selection" (fun () ->
        let ctx = Selection.make_ctx ~cache:false params (Array.map fst generated) in
        (ctx, [ ("neighbor_pairs", sum Array.length ctx.Selection.neighbors / 2) ]))
  in
  if not cache then ctx
  else
    Span.record r "xmatrix" (fun () ->
        let xmat = Xmatrix.build ~exec ctx.Selection.cands ctx.Selection.neighbors in
        let s = Xmatrix.stats xmat in
        ( { ctx with Selection.xmat },
          [ ("pairs", s.Xmatrix.pairs); ("entries", s.Xmatrix.entries) ] ))

let hits (ctx : Selection.ctx) = (Xmatrix.stats ctx.Selection.xmat).Xmatrix.hits

let select r (cfg : Flow.Config.t) ctx =
  let budget_seconds = cfg.Flow.Config.ilp_budget in
  Span.record r "select" (fun () ->
      match cfg.Flow.Config.mode with
      | Flow.Lr ->
          let res = Lr_select.select ~budget_seconds ctx in
          ( res.Lr_select.choice,
            [ ("iterations", res.Lr_select.iterations);
              ("demoted", res.Lr_select.demoted);
              ("xmatrix_hits", hits ctx) ] )
      | Flow.Ilp ->
          let res =
            Ilp_select.select ~budget_seconds ~core:cfg.Flow.Config.solver_core ctx
          in
          ( res.Ilp_select.choice,
            [ ("components", res.Ilp_select.components);
              ("timed_out", res.Ilp_select.timed_out);
              ("nodes", res.Ilp_select.nodes);
              ("lp_solves", res.Ilp_select.lp_solves);
              ("pivots", res.Ilp_select.pivots);
              ("refactorizations", res.Ilp_select.refactorizations);
              ("xmatrix_hits", hits ctx) ] ))

let prepare_region rr sub_lists (ctx : Selection.ctx) =
  let sub =
    Span.record rr "selection" (fun () ->
        let sub = Selection.make_ctx ~cache:false ctx.Selection.params sub_lists in
        (sub, [ ("neighbor_pairs", sum Array.length sub.Selection.neighbors / 2) ]))
  in
  Span.record rr "xmatrix" (fun () ->
      let xmat = Xmatrix.build sub.Selection.cands sub.Selection.neighbors in
      let s = Xmatrix.stats xmat in
      ( { sub with Selection.xmat },
        [ ("pairs", s.Xmatrix.pairs); ("entries", s.Xmatrix.entries) ] ))

let select_partitioned r exec cfg ~regions (ctx : Selection.ctx) =
  let plan =
    Span.record r "partition.plan" (fun () ->
        let plan =
          Partition.make ~regions ctx.Selection.bboxes
            ~neighbors:ctx.Selection.neighbors
        in
        ( plan,
          [ ("regions", Array.length plan.Partition.regions);
            ("cut_pairs", plan.Partition.cut_pairs);
            ("corridor_nets", Array.length plan.Partition.corridor) ] ))
  in
  let choices =
    Span.record r "pool.select" (fun () ->
        ( Span.pool r exec
            (fun rr ids ->
              let sub_lists =
                Array.map (fun i -> Array.to_list ctx.Selection.cands.(i)) ids
              in
              let sub = prepare_region rr sub_lists ctx in
              select rr cfg sub)
            plan.Partition.regions,
          [] ))
  in
  let merged = Array.make (Array.length ctx.Selection.cands) 0 in
  Array.iteri
    (fun k ids -> Array.iteri (fun m i -> merged.(i) <- choices.(k).(m)) ids)
    plan.Partition.regions;
  let choice =
    if plan.Partition.cut_pairs = 0 then merged
    else
      Span.record r "partition.stitch" (fun () ->
          let stitched =
            Selection.polish ~only:plan.Partition.corridor ctx merged
          in
          let changed = ref 0 in
          Array.iteri (fun i j -> if merged.(i) <> j then incr changed) stitched;
          (stitched, [ ("stitch_changed", !changed) ]))
  in
  (plan, choice)

(* Tracks as placed, before [Assign.run] refreshes their usage: the input
   the retirement probe needs. *)
let snapshot (p : Wdm_place.placement) =
  ( p.Wdm_place.conns,
    Array.map (fun t -> { t with Wdm.coord = t.Wdm.coord }) p.Wdm_place.tracks )

let assign rr params (p : Wdm_place.placement) =
  Span.record rr "assign" (fun () ->
      let a = Assign.run params p in
      (a.Assign.final_count, [ ("tracks_final", a.Assign.final_count) ]))

(* The retirement probe: [Assign.survivors] timed on its own, outside the
   op window (the op's [Assign.run] performs the same work inside). *)
let retire_probe r params probes =
  Span.record r "assign.retire" (fun () ->
      List.iter
        (fun (conns, tracks) ->
          List.iter
            (fun o -> ignore (Assign.survivors params conns o tracks))
            [ Wdm.Horizontal; Wdm.Vertical ])
        probes;
      ((), []))

let realize_flat r params (ctx : Selection.ctx) choice =
  let placement =
    Span.record r "wdm" (fun () ->
        let conns = Wdm_place.connections_of_selection ctx choice in
        let p = Wdm_place.place params conns in
        ignore (Wdm_place.legalize params p.Wdm_place.tracks);
        ( p,
          [ ("connections", Array.length conns);
            ("tracks_placed", Array.length p.Wdm_place.tracks) ] ))
  in
  let probe = snapshot placement in
  (assign r params placement, [ probe ])

let realize_partitioned r exec params (plan : Partition.t) (ctx : Selection.ctx)
    choice =
  let placements =
    Span.record r "wdm" (fun () ->
        let conns = Wdm_place.connections_of_selection ctx choice in
        let nregions = Array.length plan.Partition.regions in
        let buckets = Array.make nregions [] in
        for i = Array.length conns - 1 downto 0 do
          let k = plan.Partition.region_of.(conns.(i).Wdm.net) in
          buckets.(k) <- i :: buckets.(k)
        done;
        let placements =
          Span.record r "pool.wdm" (fun () ->
              ( Span.pool r exec
                  (fun rr ids ->
                    Span.record rr "wdm.place" (fun () ->
                        let local =
                          List.mapi (fun k gi -> { conns.(gi) with Wdm.id = k }) ids
                        in
                        (Wdm_place.place params (Array.of_list local), [])))
                  buckets,
                [] ))
        in
        let tracks =
          Array.concat
            (Array.to_list (Array.map (fun p -> p.Wdm_place.tracks) placements))
        in
        ignore (Wdm_place.legalize params tracks);
        ( placements,
          [ ("connections", Array.length conns);
            ("tracks_placed", Array.length tracks) ] ))
  in
  let probes = Array.to_list (Array.map snapshot placements) in
  let finals =
    Span.record r "pool.assign" (fun () ->
        (Span.pool r exec (fun rr p -> assign rr params p) placements, []))
  in
  (Array.fold_left ( + ) 0 finals, probes)

let run r (w : Workload.t) (case : Workload.case) =
  let cfg = Workload.config w in
  let exec = Executor.create ~jobs:cfg.Flow.Config.jobs in
  let t0 = Timer.now () in
  match w.Workload.engine with
  | Workload.Lr_flat | Workload.Ilp_prepared ->
      let ctx = prepare r exec cfg ~cache:true case.Workload.design in
      let t_select = Timer.now () in
      let choice = select r cfg ctx in
      let params = ctx.Selection.params in
      let tracks_final, probes = realize_flat r params ctx choice in
      let t1 = Timer.now () in
      retire_probe r params probes;
      let start =
        if w.Workload.engine = Workload.Ilp_prepared then t_select else t0
      in
      { choice; power = Selection.power ctx choice; tracks_final;
        op_seconds = t1 -. start }
  | Workload.Lr_partitioned ->
      let ctx = prepare r exec cfg ~cache:false case.Workload.design in
      let plan, choice =
        select_partitioned r exec cfg ~regions:Workload.regions ctx
      in
      let params = ctx.Selection.params in
      let tracks_final, probes =
        realize_partitioned r exec params plan ctx choice
      in
      let t1 = Timer.now () in
      retire_probe r params probes;
      { choice; power = Selection.power ctx choice; tracks_final;
        op_seconds = t1 -. t0 }
