(* OPERON benchmark harness — regenerates the tables and figures of the
   paper's evaluation (Section 5), the design-choice ablations and the
   kernel micro-benchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1     # Table 1
     dune exec bench/main.exe fig3b      # Fig. 3(b) splitter cascade
     dune exec bench/main.exe fig5       # Fig. 5 co-design candidates
     dune exec bench/main.exe fig8       # Fig. 8 WDM counts
     dune exec bench/main.exe fig9       # Fig. 9 hotspot maps (case I2)
     dune exec bench/main.exe ablate     # DESIGN.md section 5 ablations
     dune exec bench/main.exe micro      # Bechamel kernel micro-benchmarks

   The ILP wall-clock budget per case defaults to 120 s (the paper used
   3000 s on GUROBI); override with OPERON_ILP_BUDGET=<seconds>. *)

open Operon_util
open Operon_optical
open Operon
open Operon_benchgen
open Operon_engine

let params = Params.default

let ilp_budget =
  match Sys.getenv_opt "OPERON_ILP_BUDGET" with
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some v when v > 0.0 -> v
      | _ ->
          Printf.eprintf
            "bench: ignoring malformed OPERON_ILP_BUDGET=%S (using 120 s)\n%!" s;
          120.0)
  | None -> 120.0

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

type table1_row = {
  name : string;
  nets : int;
  hnets : int;
  hpins : int;
  p_elec : float;
  p_glow : float;
  p_ilp : float;
  cpu_ilp : float;
  ilp_timed_out : bool;
  p_lr : float;
  cpu_lr : float;
  prep_sink : Instrument.sink;  (** processing/baselines/codesign stages *)
  lr_sink : Instrument.sink;  (** select/wdm/assign under LR *)
  ilp_sink : Instrument.sink;  (** select/wdm/assign under ILP *)
}

let run_case spec =
  let design = Gen.generate spec in
  let p_elec = Baseline.electrical_power params design in
  let prep_sink = Instrument.create () in
  let hnets, ctx = Flow.prepare_with ~sink:prep_sink (Flow.Config.default params) design in
  let adjusted = ctx.Selection.params in
  let nets, hn, hp = Processing.stats hnets in
  let glow = Baseline.glow adjusted hnets in
  let lr_sink = Instrument.create () in
  let lr =
    Flow.select_with ~sink:lr_sink
      (Flow.Config.make ~mode:Flow.Lr params)
      design hnets ctx
  in
  let ilp_sink = Instrument.create () in
  let ilp =
    Flow.select_with ~sink:ilp_sink
      (Flow.Config.make ~mode:Flow.Ilp ~ilp_budget params)
      design hnets ctx
  in
  let ilp_r = Option.get ilp.Flow.ilp in
  { name = spec.Gen.name;
    nets;
    hnets = hn;
    hpins = hp;
    p_elec;
    p_glow = glow.Baseline.power;
    p_ilp = ilp.Flow.power;
    cpu_ilp = ilp.Flow.select_seconds;
    ilp_timed_out = ilp_r.Ilp_select.timed_out > 0;
    p_lr = lr.Flow.power;
    cpu_lr = lr.Flow.select_seconds;
    prep_sink;
    lr_sink;
    ilp_sink }

let stage_timing_table rows =
  print_endline "=== per-stage wall-clock seconds (candidate stages shared by both engines) ===";
  let cell s = Printf.sprintf "%.3f" s in
  let render r =
    [ r.name;
      cell (Instrument.seconds r.prep_sink Instrument.Processing);
      cell (Instrument.seconds r.prep_sink Instrument.Baselines);
      cell (Instrument.seconds r.prep_sink Instrument.Codesign);
      cell (Instrument.seconds r.lr_sink Instrument.Select);
      cell (Instrument.seconds r.ilp_sink Instrument.Select);
      cell (Instrument.seconds r.lr_sink Instrument.Wdm);
      cell (Instrument.seconds r.lr_sink Instrument.Assign) ]
  in
  print_endline
    (Report.table
       ~headers:
         [ "Bench"; "processing"; "baselines"; "codesign"; "select(LR)";
           "select(ILP)"; "wdm"; "assign" ]
       ~align:
         [ Report.Left; Report.Right; Report.Right; Report.Right; Report.Right;
           Report.Right; Report.Right; Report.Right ]
       (List.map render rows));
  print_endline ""

let table1 () =
  print_endline "=== Table 1: Performance Comparisons among Different Designs ===";
  Printf.printf "(ILP budget %.0f s per case; the paper capped GUROBI at 3000 s)\n" ilp_budget;
  let rows = List.map run_case Cases.all in
  let avg f = Stats.mean (Array.of_list (List.map f rows)) in
  let avg_elec = avg (fun r -> r.p_elec) in
  let avg_glow = avg (fun r -> r.p_glow) in
  let avg_ilp = avg (fun r -> r.p_ilp) in
  let avg_lr = avg (fun r -> r.p_lr) in
  let render_row r =
    [ r.name; string_of_int r.nets; string_of_int r.hnets; string_of_int r.hpins;
      Report.float_cell r.p_elec; Report.float_cell r.p_glow; Report.float_cell r.p_ilp;
      (if r.ilp_timed_out then Printf.sprintf "> %.0f" ilp_budget
       else Report.float_cell ~decimals:1 r.cpu_ilp);
      Report.float_cell r.p_lr; Report.float_cell ~decimals:1 r.cpu_lr ]
  in
  let avg_row =
    [ "average"; "-"; "-"; "-"; Report.float_cell avg_elec; Report.float_cell avg_glow;
      Report.float_cell avg_ilp; "-"; Report.float_cell avg_lr; "-" ]
  in
  let ratio_row =
    [ "ratio"; "-"; "-"; "-"; Report.ratio_cell avg_elec avg_glow; "1.000";
      Report.ratio_cell avg_ilp avg_glow; "-"; Report.ratio_cell avg_lr avg_glow; "-" ]
  in
  print_endline
    (Report.table
       ~headers:
         [ "Bench"; "#Net"; "#HNet"; "#HPin"; "Electrical"; "Optical"; "OPERON(ILP)";
           "CPU(s)"; "OPERON(LR)"; "CPU(s)" ]
       ~align:
         [ Report.Left; Report.Right; Report.Right; Report.Right; Report.Right;
           Report.Right; Report.Right; Report.Right; Report.Right; Report.Right ]
       (List.map render_row rows @ [ avg_row; ratio_row ]));
  Printf.printf
    "\npaper reference ratios (vs Optical): electrical 3.565, ILP 0.860, LR 0.889\n\n%!";
  stage_timing_table rows

(* ------------------------------------------------------------------ *)
(* Fig. 3(b)                                                          *)
(* ------------------------------------------------------------------ *)

let fig3b () =
  print_endline "=== Fig. 3(b): normalized power in cascaded 50-50 Y-branch splitters ===";
  let rows =
    Splitter.cascade params ~stages:4
    |> List.map (fun r ->
           [ string_of_int r.Splitter.stage;
             string_of_int r.Splitter.outputs;
             Printf.sprintf "%.4f" r.Splitter.power_fraction;
             Printf.sprintf "%.2f" r.Splitter.loss_db ])
  in
  print_endline
    (Report.table
       ~headers:[ "stage"; "outputs"; "power/arm"; "loss (dB)" ]
       ~align:[ Report.Right; Report.Right; Report.Right; Report.Right ]
       rows);
  print_endline
    "(two cascaded 50-50 stages leave ~1/4 of the input power per arm, as in the paper)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 5                                                             *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  print_endline "=== Fig. 5: optical-electrical co-design candidates of one hyper net ===";
  let centers =
    [| Operon_geom.Point.make 0.0 2.0; Operon_geom.Point.make (-1.2) 0.0;
       Operon_geom.Point.make 1.2 0.0 |]
  in
  let pins =
    Array.mapi
      (fun i c ->
        { Hypernet.center = c; pin_count = 8; source_count = (if i = 0 then 8 else 0) })
      centers
  in
  let hnet = Hypernet.make ~id:0 ~group:0 ~bits:8 ~pins in
  let cands = Codesign.for_hypernet params hnet in
  let rows =
    List.mapi
      (fun i (c : Candidate.t) ->
        [ string_of_int i;
          Report.float_cell ~decimals:3 c.Candidate.power;
          string_of_int c.Candidate.n_mod;
          string_of_int c.Candidate.n_det;
          Printf.sprintf "%.2f" c.Candidate.elec_wirelength;
          Printf.sprintf "%.2f" c.Candidate.max_intrinsic_loss;
          (if c.Candidate.pure_electrical then "all-electrical"
           else if Array.length c.Candidate.elec_segments = 0 then "all-optical"
           else "hybrid") ])
      cands
  in
  print_endline
    (Report.table
       ~headers:[ "#"; "power"; "n_mod"; "n_det"; "copper(cm)"; "loss(dB)"; "kind" ]
       ~align:
         [ Report.Right; Report.Right; Report.Right; Report.Right; Report.Right;
           Report.Right; Report.Left ]
       rows);
  print_endline ""

(* ------------------------------------------------------------------ *)
(* Fig. 8                                                             *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  print_endline "=== Fig. 8: WDMs before placement, before and after assignment ===";
  let rows, reductions =
    List.fold_left
      (fun (rows, reds) spec ->
        let design = Gen.generate spec in
        let hnets, ctx = Flow.prepare_with (Flow.Config.default params) design in
        let lr = Flow.select_with (Flow.Config.default params) design hnets ctx in
        let conns = Array.length lr.Flow.placement.Wdm_place.conns in
        let a = lr.Flow.assignment in
        let norm v =
          if conns = 0 then "-"
          else Printf.sprintf "%.1f%%" (100.0 *. float_of_int v /. float_of_int conns)
        in
        let row =
          [ spec.Gen.name; string_of_int conns;
            Printf.sprintf "%d (%s)" a.Assign.initial_count (norm a.Assign.initial_count);
            Printf.sprintf "%d (%s)" a.Assign.final_count (norm a.Assign.final_count);
            Printf.sprintf "-%.1f%%" (100.0 *. Assign.reduction_ratio a) ]
        in
        (row :: rows, Assign.reduction_ratio a :: reds))
      ([], []) Cases.all
  in
  print_endline
    (Report.table
       ~headers:[ "Bench"; "#Connections"; "#Initial WDMs"; "#Final WDMs"; "assignment" ]
       ~align:[ Report.Left; Report.Right; Report.Right; Report.Right; Report.Right ]
       (List.rev rows));
  Printf.printf "average assignment reduction: -%.1f%% (paper: -8.9%%)\n\n%!"
    (100.0 *. Stats.mean (Array.of_list reductions))

(* ------------------------------------------------------------------ *)
(* Fig. 9                                                             *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  print_endline "=== Fig. 9: power hotspot maps of I2 (GLOW vs OPERON) ===";
  let design = Gen.generate Cases.i2 in
  let hnets, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let adjusted = ctx.Selection.params in
  let lr = Flow.select_with (Flow.Config.default params) design hnets ctx in
  let glow = Baseline.glow adjusted hnets in
  let die = design.Signal.die in
  let operon_maps = Hotspot.of_selection ~nx:48 ~ny:24 ~die ctx lr.Flow.choice in
  let glow_maps =
    Hotspot.of_selection ~nx:48 ~ny:24 ~die glow.Baseline.ctx glow.Baseline.choice
  in
  Printf.printf "(a) GLOW optical layer:\n%s\n"
    (Operon_geom.Gridmap.render glow_maps.Hotspot.optical);
  Printf.printf "(b) GLOW electrical layer:\n%s\n"
    (Operon_geom.Gridmap.render glow_maps.Hotspot.electrical);
  Printf.printf "(c) OPERON optical layer:\n%s\n"
    (Operon_geom.Gridmap.render operon_maps.Hotspot.optical);
  Printf.printf "(d) OPERON electrical layer:\n%s\n"
    (Operon_geom.Gridmap.render operon_maps.Hotspot.electrical);
  Printf.printf "optical-layer correlation (a vs c): %.3f (paper: 'very similar manner')\n"
    (Operon_geom.Gridmap.correlation glow_maps.Hotspot.optical operon_maps.Hotspot.optical);
  Printf.printf "electrical totals: GLOW %.1f -> OPERON %.1f  peaks: %.2f -> %.2f\n"
    (Operon_geom.Gridmap.total glow_maps.Hotspot.electrical)
    (Operon_geom.Gridmap.total operon_maps.Hotspot.electrical)
    (Operon_geom.Gridmap.peak glow_maps.Hotspot.electrical)
    (Operon_geom.Gridmap.peak operon_maps.Hotspot.electrical);
  Printf.printf "(GLOW kept %d/%d nets optical; OPERON power %.1f vs GLOW %.1f)\n\n%!"
    glow.Baseline.optical_nets (Array.length hnets) lr.Flow.power glow.Baseline.power

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  print_endline "=== Bechamel micro-benchmarks of the per-table kernels ===";
  let open Bechamel in
  let open Toolkit in
  (* Fixed small workloads exercising each experiment's kernel. *)
  let design = Cases.small ~seed:7 () in
  let micro_hnets, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let micro_bboxes =
    Array.map (fun h -> Hypernet.bbox h) micro_hnets
  in
  let centers =
    [| Operon_geom.Point.make 0.0 2.0; Operon_geom.Point.make (-1.2) 0.0;
       Operon_geom.Point.make 1.2 0.0; Operon_geom.Point.make 2.0 2.5 |]
  in
  let pins =
    Array.mapi
      (fun i c ->
        { Hypernet.center = c; pin_count = 8; source_count = (if i = 0 then 8 else 0) })
      centers
  in
  let hnet = Hypernet.make ~id:0 ~group:0 ~bits:8 ~pins in
  let mk_conn id x0 y =
    { Wdm.id; net = id;
      seg =
        Operon_geom.Segment.make
          (Operon_geom.Point.make x0 y)
          (Operon_geom.Point.make (x0 +. 3.0) y);
      bits = 20 }
  in
  let fig6_conns = [| mk_conn 0 0.0 1.0; mk_conn 1 0.5 1.02; mk_conn 2 1.0 1.04 |] in
  let tests =
    Test.make_grouped ~name:"operon"
      [ Test.make ~name:"table1/codesign-dp" (Staged.stage (fun () ->
            ignore (Codesign.for_hypernet params hnet)));
        Test.make ~name:"table1/lr-select" (Staged.stage (fun () ->
            ignore (Lr_select.select ~max_iterations:3 ctx)));
        Test.make ~name:"table1/bi1s-steiner" (Staged.stage (fun () ->
            ignore
              (Operon_steiner.Bi1s.build Operon_steiner.Topology.L2
                 (Hypernet.centers hnet) ~root:0)));
        Test.make ~name:"fig3b/splitter-cascade" (Staged.stage (fun () ->
            ignore (Splitter.cascade params ~stages:4)));
        Test.make ~name:"fig8/wdm-place-assign" (Staged.stage (fun () ->
            let placement = Wdm_place.place params fig6_conns in
            ignore (Assign.run params placement)));
        Test.make ~name:"fig9/hotspot-maps" (Staged.stage (fun () ->
            ignore
              (Hotspot.of_selection ~die:design.Signal.die ctx
                 (Selection.all_electrical ctx))));
        Test.make ~name:"partition/interacting-pairs" (Staged.stage (fun () ->
            ignore (Crossing.interacting_pairs micro_bboxes))) ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  print_endline
    (Report.table
       ~headers:[ "kernel"; "time/run" ]
       ~align:[ Report.Left; Report.Right ]
       (List.map
          (fun (name, ns) ->
            let cell =
              if Float.is_nan ns then "n/a"
              else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            in
            [ name; cell ])
          rows));
  print_endline ""

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                    *)
(* ------------------------------------------------------------------ *)

let ablate () =
  print_endline "=== Ablations of the design choices (DESIGN.md section 5) ===";

  (* 1. DP candidate-pruning cap: does aggressive pruning cost power? *)
  print_endline "--- (1) co-design DP pruning cap (per-node state budget) ---";
  let rng = Prng.create 4242 in
  let nets =
    List.init 40 (fun k ->
        let n = 3 + Prng.int rng 4 in
        let centers =
          Array.init n (fun i ->
              if i = 0 then Operon_geom.Point.make 0.0 0.0
              else Operon_geom.Point.make (Prng.float rng 4.0) (Prng.float rng 4.0))
        in
        let pins =
          Array.mapi
            (fun i c ->
              { Hypernet.center = c; pin_count = 1;
                source_count = (if i = 0 then 1 else 0) })
            centers
        in
        Hypernet.make ~id:k ~group:0 ~bits:(1 + Prng.int rng 31) ~pins)
  in
  let best_at cap =
    let t0 = Unix.gettimeofday () in
    let total =
      List.fold_left
        (fun acc hnet ->
          match Codesign.for_hypernet ~max_cands:cap params hnet with
          | best :: _ -> acc +. best.Candidate.power
          | [] -> acc)
        0.0 nets
    in
    (total, Unix.gettimeofday () -. t0)
  in
  let reference, _ = best_at 64 in
  let rows =
    List.map
      (fun cap ->
        let total, dt = best_at cap in
        [ string_of_int cap; Report.float_cell total;
          Printf.sprintf "+%.2f%%" (100.0 *. ((total /. reference) -. 1.0));
          Printf.sprintf "%.3f" dt ])
      [ 1; 2; 4; 8; 16; 64 ]
  in
  print_endline
    (Report.table
       ~headers:[ "max_cands"; "best-power sum"; "gap vs 64"; "seconds" ]
       ~align:[ Report.Right; Report.Right; Report.Right; Report.Right ]
       rows);

  (* 2. Section 3.3 crossing-variable reduction. *)
  print_endline "--- (2) interaction reduction (bbox overlap -> geometry-refined) ---";
  let design = Gen.generate { Cases.i1 with Gen.n_groups = 150 } in
  let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let n = Array.length ctx.Selection.cands in
  let all_pairs = n * (n - 1) / 2 in
  let bbox_pairs =
    let count = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match (ctx.Selection.bboxes.(i), ctx.Selection.bboxes.(j)) with
        | Some a, Some b when Operon_geom.Rect.overlaps a b -> incr count
        | _ -> ()
      done
    done;
    !count
  in
  let refined_pairs =
    Array.fold_left (fun acc l -> acc + Array.length l) 0 ctx.Selection.neighbors / 2
  in
  Printf.printf
    "  %d nets: all pairs %d -> bbox-overlapping %d -> actually-crossing %d\n"
    n all_pairs bbox_pairs refined_pairs;
  Printf.printf
    "  (quadratic coupling terms kept: %.1f%% of the naive formulation)\n\n"
    (100.0 *. float_of_int refined_pairs /. float_of_int (Stdlib.max 1 all_pairs));

  (* 3. LR iteration budget (Algorithm 1's <=10 rule). *)
  print_endline "--- (3) Lagrangian-relaxation iteration budget (case I1) ---";
  let design = Gen.generate Cases.i1 in
  let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let rows =
    List.map
      (fun k ->
        let r = Lr_select.select ~max_iterations:k ctx in
        [ string_of_int k; Report.float_cell r.Lr_select.power;
          string_of_int r.Lr_select.demoted;
          Printf.sprintf "%.2f" r.Lr_select.elapsed ])
      [ 1; 2; 3; 5; 10 ]
  in
  print_endline
    (Report.table
       ~headers:[ "iterations"; "power"; "demoted"; "seconds" ]
       ~align:[ Report.Right; Report.Right; Report.Right; Report.Right ]
       rows);

  (* 4. WDM stages: sweep placement alone vs + flow-based assignment,
     plus the wavelength-level spatial reuse of the Channels extension. *)
  print_endline "--- (4) WDM sharing stages (case I1) ---";
  let lr =
    Flow.select_with (Flow.Config.default params) design
      (Processing.run (Prng.create 42) params design) ctx
  in
  let a = lr.Flow.assignment in
  let conns = lr.Flow.placement.Wdm_place.conns in
  let plan = Channels.assign ctx.Selection.params conns a in
  Printf.printf "  connections %d -> placement %d WDMs -> assignment %d WDMs (-%.1f%%)\n"
    (Array.length conns) a.Assign.initial_count a.Assign.final_count
    (100.0 *. Assign.reduction_ratio a);
  Printf.printf "  wavelength channels: %d used, %d concurrent peak (spatial reuse %.1f%%)\n\n"
    (Array.fold_left (fun acc t -> acc + t.Operon_optical.Wdm.used) 0 a.Assign.tracks)
    (Array.fold_left ( + ) 0 plan.Channels.peak_channels)
    (100.0 *. Channels.spatial_reuse plan a);

  (* 5. Crossing bundle-factor sensitivity (the one free calibration). *)
  print_endline "--- (5) crossing bundle-factor sensitivity (case I1, LR power) ---";
  let rows =
    List.map
      (fun bf ->
        let p = { params with Params.bundle_factor = bf } in
        let design = Gen.generate Cases.i1 in
        let hnets = Processing.run (Prng.create 42) p design in
        (* bypass auto_bundle by selecting against these exact params *)
        let cand_lists =
          Array.map (fun h -> Codesign.for_hypernet p h) hnets
        in
        let ctx = Selection.make_ctx p cand_lists in
        let r = Lr_select.select ctx in
        [ Printf.sprintf "%.1f" bf; Report.float_cell r.Lr_select.power;
          string_of_int r.Lr_select.demoted ])
      [ 1.0; 2.0; 6.0; 16.0 ]
  in
  print_endline
    (Report.table
       ~headers:[ "bundle"; "LR power"; "demoted" ]
       ~align:[ Report.Right; Report.Right; Report.Right ]
       rows);

  (* 6. Timing extension: does the power-driven selection also help delay? *)
  print_endline "--- (6) worst source-to-sink delay (extension; ps) ---";
  let d = Operon_optical.Delay.default in
  let rows =
    List.map
      (fun spec ->
        let design = Gen.generate spec in
        let hnets, ctx = Flow.prepare_with (Flow.Config.default params) design in
        let lr = Flow.select_with (Flow.Config.default params) design hnets ctx in
        let sel = Timing.selection d ctx lr.Flow.choice in
        let reference = Timing.electrical_reference d ctx in
        [ spec.Gen.name;
          Report.float_cell ~decimals:0 reference.Timing.mean_worst_ps;
          Report.float_cell ~decimals:0 sel.Timing.mean_worst_ps;
          Report.ratio_cell sel.Timing.mean_worst_ps reference.Timing.mean_worst_ps ])
      [ Cases.i1; Cases.i3 ]
  in
  print_endline
    (Report.table
       ~headers:[ "case"; "copper mean"; "OPERON mean"; "ratio" ]
       ~align:[ Report.Left; Report.Right; Report.Right; Report.Right ]
       rows);

  (* 7. Post-route signoff: does the bundled crossing estimate hold up
     against the physical waveguide geometry? *)
  print_endline "--- (7) post-route loss signoff (case I1) ---";
  let design = Gen.generate Cases.i1 in
  let hnets, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let lr = Flow.select_with (Flow.Config.default params) design hnets ctx in
  let s =
    Signoff.run ctx.Selection.params ctx lr.Flow.choice lr.Flow.placement
      lr.Flow.assignment
  in
  Printf.printf
    "  %d optical nets / %d paths: worst physical loss %.2f dB (budget %.0f), %d violations\n"
    s.Signoff.nets_checked s.Signoff.paths_checked s.Signoff.worst_loss_db
    ctx.Selection.params.Params.l_max s.Signoff.violations;
  Printf.printf "  mean routing detour x%.2f, %d physical waveguide crossings\n"
    s.Signoff.mean_detour_ratio s.Signoff.waveguide_crossings;
  Printf.printf
    "  mean per-path crossing loss: estimated %.2f dB vs physical %.2f dB\n"
    s.Signoff.mean_estimated_crossing_db s.Signoff.mean_physical_crossing_db;
  print_endline ""

(* ------------------------------------------------------------------ *)

(* In the order a run with no arguments takes them. *)
let targets =
  [ ("fig3b", fig3b); ("fig5", fig5); ("table1", table1); ("fig8", fig8);
    ("fig9", fig9); ("ablate", ablate); ("micro", micro) ]

(* Every name is checked before any target runs, so a typo costs nothing. *)
let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as rest) -> List.map String.lowercase_ascii rest
    | _ -> List.map fst targets
  in
  List.map
    (fun t ->
      match List.assoc_opt t targets with
      | Some run -> run
      | None ->
          Printf.eprintf "unknown target %S (%s)\n" t
            (String.concat " " (List.map fst targets));
          exit 2)
    requested
  |> List.iter (fun run -> run ())
