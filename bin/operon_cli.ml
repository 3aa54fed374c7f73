(* OPERON command-line driver.

   Subcommands:
     run      - full flow on a named case (I1..I5, small, tiny)
     stats    - signal-processing statistics (#Net/#HNet/#HPin)
     splitter - Y-branch cascade table (the Fig. 3b simulation)
     wdm      - WDM placement + assignment summary (Fig. 8 datapoint)
     serve    - batch synthesis service over NDJSON on stdin/stdout *)

open Cmdliner
open Operon
open Operon_benchgen

let design_of_case name seed =
  match Cases.by_name name with
  | Some spec -> Some (Gen.generate { spec with Gen.seed = (match seed with Some s -> s | None -> spec.Gen.seed) })
  | None -> (
      match String.lowercase_ascii name with
      | "small" -> Some (Cases.small ?seed ())
      | "tiny" -> Some (Cases.tiny ?seed ())
      | "split" -> Some (Cases.split ?seed ())
      | _ -> (
          match Cases.tier_by_name name with
          | Some tier ->
              let spec = tier.Cases.t_spec in
              Some
                (Gen.generate
                   { spec with
                     Gen.seed = (match seed with Some s -> s | None -> spec.Gen.seed)
                   })
          | None -> None))

let case_arg =
  let doc = "Benchmark case: I1..I5, small, tiny, split, or a scale tier (t10k, t30k, t100k)." in
  Arg.(value & opt string "small" & info [ "case"; "c" ] ~docv:"CASE" ~doc)

let seed_arg =
  let doc = "Override the case's deterministic seed (positive integer)." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

(* Kept as a raw string so a typo'd engine name produces our one-line
   usage error and exit code 2, not Cmdliner's parse failure (124). *)
let mode_arg =
  let doc = "Candidate selection engine: lr (fast, default) or ilp (exact)." in
  Arg.(value & opt string "lr" & info [ "mode"; "m" ] ~docv:"MODE" ~doc)

let budget_arg =
  let doc = "ILP wall-clock budget in seconds." in
  Arg.(value & opt float 60.0 & info [ "ilp-budget" ] ~docv:"SECONDS" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the per-hypernet candidate generation (1 = \
     sequential; 0 = one per core). Results are bit-identical to \
     sequential runs."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let trace_arg =
  let doc = "Print the per-stage wall-clock/counter report of the pipeline." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let strict_arg =
  let doc =
    "Fail fast on the first pipeline fault instead of degrading \
     gracefully (quarantine/fallback)."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let solver_core_arg =
  let doc =
    "LP core behind ILP selection: sparse (revised simplex, default) or \
     dense (the pre-redesign tableau, kept for parity runs). Selections \
     are identical either way; only the solve time differs."
  in
  Arg.(value & opt string "sparse" & info [ "solver-core" ] ~docv:"CORE" ~doc)

let inject_arg =
  let doc =
    "Inject a deterministic fault at STAGE:NET:KIND. STAGE is baselines \
     or codesign (net is a hyper-net id or * for any) or select (net \
     must be *); kind is one of injected, crash, capacity, budget, \
     validation. Repeatable; merged with the $(b,OPERON_FAULTS) \
     environment variable (comma-separated specs)."
  in
  Arg.(value & opt_all string []
       & info [ "inject-fault" ] ~docv:"STAGE:NET:KIND" ~doc)

let mutate_arg =
  let doc =
    "Displace this fraction of signal groups (ECO perturbation) before \
     synthesis. Deterministic given $(b,--mutate-seed)."
  in
  Arg.(value & opt (some float) None & info [ "mutate" ] ~docv:"RATIO" ~doc)

let mutate_seed_arg =
  let doc = "PRNG seed of the $(b,--mutate) perturbation." in
  Arg.(value & opt int 1 & info [ "mutate-seed" ] ~docv:"SEED" ~doc)

let eco_from_arg =
  let doc =
    "Incremental (ECO) run: read the baseline design from a previous \
     $(b,operon export) file, prepare it, then re-prepare the current \
     design against it — only changed hyper nets and their interaction \
     closure are recomputed. The result is bit-identical to a cold run."
  in
  Arg.(value & opt (some string) None
       & info [ "eco-from" ] ~docv:"EXPORT.json" ~doc)

let thermal_map_arg =
  let doc =
    "Thermal-reliability scenario: load a die temperature map (the \
     $(b,operon thermal-map) text format) and sweep selection over the \
     $(b,--thermal-weights) ladder, exporting the power/margin Pareto \
     front. Weight 0 reproduces the plain flow bit for bit."
  in
  Arg.(value & opt (some string) None
       & info [ "thermal-map" ] ~docv:"MAP.txt" ~doc)

let thermal_weights_arg =
  let doc =
    "Comma-separated thermal objective-weight ladder (default \
     0,0.5,1,2,4,8). Requires $(b,--thermal-map); weights must be \
     finite and non-negative."
  in
  Arg.(value & opt (some string) None
       & info [ "thermal-weights" ] ~docv:"W1,W2,.." ~doc)

let partition_arg =
  let doc =
    "Hierarchical partition-and-route: off (default, the flat flow), \
     auto (pick a region count from the design size, ~1024 nets per \
     region), or an explicit region count N. Regions are selected \
     independently on the worker pool and the severed corridor is \
     stitched by a bounded fix-up pass; when the cut severs no \
     interacting pairs an ILP-mode partitioned run is bit-identical to \
     the flat one at any $(b,--jobs)."
  in
  Arg.(value & opt string "off" & info [ "partition" ] ~docv:"off|auto|N" ~doc)

(* --- validation: one-line diagnostic on stderr, exit code 2 --- *)

let fail_usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("operon: " ^ msg);
      exit 2)
    fmt

let validate_mode s =
  match String.lowercase_ascii s with
  | "lr" -> Flow.Lr
  | "ilp" -> Flow.Ilp
  | other -> fail_usage "unknown --mode %S (expected lr or ilp)" other

let validate_solver_core s =
  match Operon_solver.Solver.core_of_name (String.lowercase_ascii s) with
  | Some core -> core
  | None -> fail_usage "unknown --solver-core %S (expected sparse or dense)" s

let validate_jobs jobs =
  if jobs < 0 then fail_usage "--jobs must be >= 0 (got %d)" jobs;
  jobs

let validate_seed = function
  | Some s when s <= 0 -> fail_usage "--seed must be positive (got %d)" s
  | seed -> seed

(* Written positively so that NaN, which fails every comparison, is
   refused too. *)
let validate_budget budget =
  if not (budget > 0.0) then
    fail_usage "--ilp-budget must be positive (got %g)" budget;
  budget

(* A typo'd --inject-fault is a usage error (exit 2); a typo'd
   OPERON_FAULTS token is warned about by name and skipped, as
   bench/main.exe does with an OPERON_ILP_BUDGET that is not a positive
   number — the variable may linger in an environment that never meant
   it for this invocation, and silently injecting nothing would hide the
   typo. *)
let validate_injections specs =
  let from_env =
    match Sys.getenv_opt "OPERON_FAULTS" with
    | Some s when String.trim s <> "" ->
        let injections, bad = Operon_engine.Fault.injections_of_string_lenient s in
        List.iter
          (fun (token, msg) ->
            Printf.eprintf
              "operon: ignoring malformed OPERON_FAULTS token %S: %s\n%!" token msg)
          bad;
        injections
    | _ -> []
  in
  match Operon_engine.Fault.injections_of_string (String.concat "," specs) with
  | Ok injections -> from_env @ injections
  | Error msg -> fail_usage "bad --inject-fault spec: %s" msg

(* Thermal scenario of a run: both flags validate to one-line exit-2
   diagnostics naming the offending value, per the CLI's usage-error
   convention. *)
let validate_thermal thermal_map thermal_weights =
  let weights =
    match thermal_weights with
    | None -> Flow.Config.default_thermal_weights
    | Some s ->
        if thermal_map = None then
          fail_usage "--thermal-weights requires --thermal-map";
        let toks =
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun t -> t <> "")
        in
        if toks = [] then fail_usage "--thermal-weights %S lists no weights" s;
        toks
        |> List.map (fun tok ->
               match float_of_string_opt tok with
               | Some w when Float.is_finite w && w >= 0.0 -> w
               | Some w ->
                   fail_usage
                     "--thermal-weights value %g out of range (must be finite \
                      and >= 0)"
                     w
               | None -> fail_usage "--thermal-weights has bad value %S" tok)
        |> Array.of_list
  in
  match thermal_map with
  | None -> None
  | Some path -> (
      match Operon_thermal.Thermal_map.load path with
      | Ok map -> Some { Flow.Config.map; weights }
      | Error msg -> fail_usage "--thermal-map %s: %s" path msg)

(* "off" and "auto" by keyword; anything else must be a whole region
   count >= 1 (1 is legal and means the flat flow — the activation
   threshold lives in [Flow.resolve_partition]). *)
let validate_partition s =
  match String.lowercase_ascii (String.trim s) with
  | "off" -> Flow.Config.Off
  | "auto" -> Flow.Config.Auto
  | t -> (
      match int_of_string_opt t with
      | Some r when r >= 1 -> Flow.Config.Regions r
      | Some r -> fail_usage "--partition region count must be >= 1 (got %d)" r
      | None -> fail_usage "bad --partition %S (expected off, auto or N)" s)

let make_config ?(solver_core = "sparse") ?thermal ?partition params mode
    budget jobs strict inject_specs =
  let jobs = validate_jobs jobs in
  let jobs = if jobs = 0 then Operon_util.Executor.default_jobs () else jobs in
  Flow.Config.make ~mode:(validate_mode mode)
    ~ilp_budget:(validate_budget budget) ~jobs ~strict
    ~injections:(validate_injections inject_specs)
    ~solver_core:(validate_solver_core solver_core) ?thermal ?partition params

let apply_mutate mutate mutate_seed design =
  match mutate with
  | None -> design
  | Some ratio ->
      if not (ratio > 0.0 && ratio <= 1.0) then
        fail_usage "--mutate must be in (0, 1] (got %g)" ratio;
      if mutate_seed <= 0 then
        fail_usage "--mutate-seed must be positive (got %d)" mutate_seed;
      Mutate.design ~ratio ~seed:mutate_seed design

(* The run/export back half: cold synthesis, or — with --eco-from — an
   incremental re-preparation against the design recorded in a previous
   export. Either way the flow result is bit-identical to a cold run of
   [design]; the ECO path only reports what it saved, on stderr, and its
   trace holds the re-preparation's stages as a cold run's holds the
   preparation's. *)
let synthesize_cli ?eco_from config design =
  match eco_from with
  | None -> Flow.synthesize config design
  | Some path -> (
      match Operon_service.Design_io.load_export path with
      | Error msg -> fail_usage "--eco-from: %s" msg
      | Ok baseline ->
          let prev = lazy (Flow.prepare config baseline) in
          let sink = Operon_engine.Instrument.create () in
          let p = Flow.prepare_eco ~sink ~prev config design in
          (match p.Flow.p_eco with
           | Some e when e.Flow.cold_fallback ->
               Printf.eprintf
                 "eco: cold fallback (baseline not reusable); all %d nets \
                  recomputed\n%!"
                 e.Flow.nets_recomputed
           | Some e ->
               Printf.eprintf
                 "eco: reused %d nets, recomputed %d (dirty %d, interaction \
                  %d, added %d, removed %d), crossing rows reused %d\n%!"
                 e.Flow.nets_reused e.Flow.nets_recomputed e.Flow.dirty
                 e.Flow.interaction_dirty e.Flow.added e.Flow.removed
                 e.Flow.xrows_reused
           | None -> ());
          Flow.select_prepared ~sink config p)

let print_trace result =
  print_endline
    (Report.stage_table ~title:"pipeline stages" result.Flow.trace)

let print_degradation result =
  match Report.degradation_summary result with
  | Some summary -> print_string summary
  | None -> ()

let with_design name seed f =
  match design_of_case name seed with
  | None ->
      Printf.eprintf "unknown case %S (try I1..I5, small, tiny, split, t10k..t100k)\n" name;
      exit 2
  | Some design -> (
      (* Under --strict a pipeline fault aborts the run; report it as a
         one-line structured diagnostic rather than a raw backtrace. *)
      try f design
      with Operon_engine.Fault.Error fault ->
        Printf.eprintf "operon: fault: %s\n"
          (Operon_engine.Fault.to_string fault);
        if fault.Operon_engine.Fault.backtrace <> "" then
          prerr_string fault.Operon_engine.Fault.backtrace;
        exit 1)

let run_cmd =
  let run case seed mode budget jobs trace strict inject solver_core mutate
      mutate_seed eco_from thermal_map thermal_weights partition =
    let seed = validate_seed seed in
    let thermal = validate_thermal thermal_map thermal_weights in
    let partition = validate_partition partition in
    with_design case seed (fun design ->
        let design = apply_mutate mutate mutate_seed design in
        let params = Operon_optical.Params.default in
        let config =
          make_config ~solver_core ?thermal ~partition params mode budget jobs
            strict inject
        in
        let result = synthesize_cli ?eco_from config design in
        let nets, hnets, hpins = Processing.stats result.Flow.hnets in
        Printf.printf "case %s: #Net=%d #HNet=%d #HPin=%d\n" case nets hnets hpins;
        Printf.printf "electrical baseline power: %.2f\n"
          (Baseline.electrical_power params design);
        let g = Baseline.glow result.Flow.ctx.Selection.params result.Flow.hnets in
        Printf.printf
          "GLOW-like optical power:   %.2f (optical %d, fallback %d, undetectable %d)\n"
          g.Baseline.power g.Baseline.optical_nets g.Baseline.electrical_nets
          g.Baseline.underestimated;
        Printf.printf "OPERON power:              %.2f (%s, %.2fs select)\n"
          result.Flow.power
          (match result.Flow.mode with Flow.Lr -> "LR" | Flow.Ilp -> "ILP")
          result.Flow.select_seconds;
        (match result.Flow.ilp with
         | Some r ->
             Printf.printf
               "  ILP: components=%d timed_out=%d nodes=%d pivots=%d \
                refactorizations=%d blocks_solved=%d blocks_skipped=%d \
                proven=%b (%s core)\n"
               r.Ilp_select.components r.Ilp_select.timed_out r.Ilp_select.nodes
               r.Ilp_select.pivots r.Ilp_select.refactorizations
               r.Ilp_select.blocks_solved r.Ilp_select.blocks_skipped
               r.Ilp_select.proven
               (Operon_solver.Solver.core_name config.Flow.Config.solver_core)
         | None -> ());
        (match result.Flow.lr with
         | Some r ->
             Printf.printf "  LR: iterations=%d demoted=%d violation=%.3f dB\n"
               r.Lr_select.iterations r.Lr_select.demoted r.Lr_select.final_violation
         | None -> ());
        Printf.printf "WDM: connections=%d placed=%d final=%d (-%.1f%%)\n"
          (Array.length result.Flow.placement.Wdm_place.conns)
          result.Flow.assignment.Assign.initial_count
          result.Flow.assignment.Assign.final_count
          (100.0 *. Assign.reduction_ratio result.Flow.assignment);
        let s =
          Signoff.run result.Flow.ctx.Selection.params result.Flow.ctx
            result.Flow.choice result.Flow.placement result.Flow.assignment
        in
        Printf.printf
          "signoff: %d paths, worst loss %.2f dB, %d violations, detour x%.2f, \
           %d waveguide crossings\n"
          s.Signoff.paths_checked s.Signoff.worst_loss_db s.Signoff.violations
          s.Signoff.mean_detour_ratio s.Signoff.waveguide_crossings;
        (match result.Flow.partition with
         | Some p ->
             Printf.printf
               "partition: %d regions (largest %d), corridor %d nets, cut \
                %d/%d pairs (%d components), stitch revised %d \
                (plan %.3fs, stitch %.3fs)\n"
               p.Flow.pt_regions p.Flow.pt_largest_region
               p.Flow.pt_corridor_nets p.Flow.pt_cut_pairs
               p.Flow.pt_total_pairs p.Flow.pt_boundary_components
               p.Flow.pt_stitch_changed p.Flow.pt_plan_seconds
               p.Flow.pt_stitch_seconds
         | None -> ());
        (match Report.thermal_table result with
         | Some table -> print_endline table
         | None -> ());
        print_degradation result;
        if trace then print_trace result)
  in
  let doc = "Run the full OPERON flow on a case." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ case_arg $ seed_arg $ mode_arg $ budget_arg $ jobs_arg
          $ trace_arg $ strict_arg $ inject_arg $ solver_core_arg $ mutate_arg
          $ mutate_seed_arg $ eco_from_arg $ thermal_map_arg
          $ thermal_weights_arg $ partition_arg)

let stats_cmd =
  let run case seed =
    let seed = validate_seed seed in
    with_design case seed (fun design ->
        let params = Operon_optical.Params.default in
        let rng = Operon_util.Prng.create 42 in
        let hnets = Processing.run rng params design in
        let nets, hn, hp = Processing.stats hnets in
        Printf.printf "#Net=%d #HNet=%d #HPin=%d groups=%d pins=%d\n" nets hn hp
          (Array.length design.Signal.groups)
          (Signal.pin_count design))
  in
  let doc = "Signal-processing statistics for a case." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ case_arg $ seed_arg)

let splitter_cmd =
  let stages_arg =
    Arg.(value & opt int 2 & info [ "stages" ] ~docv:"N" ~doc:"Cascade depth.")
  in
  let run stages =
    let params = Operon_optical.Params.default in
    let reports = Operon_optical.Splitter.cascade params ~stages in
    List.iter
      (fun r ->
        Printf.printf "stage %d: %3d outputs, %.4f of input each (%.2f dB)\n"
          r.Operon_optical.Splitter.stage r.Operon_optical.Splitter.outputs
          r.Operon_optical.Splitter.power_fraction r.Operon_optical.Splitter.loss_db)
      reports
  in
  let doc = "Cascaded Y-branch splitter power distribution (paper Fig. 3b)." in
  Cmd.v (Cmd.info "splitter" ~doc) Term.(const run $ stages_arg)

let wdm_cmd =
  let run case seed jobs trace strict inject =
    let seed = validate_seed seed in
    with_design case seed (fun design ->
        let params = Operon_optical.Params.default in
        let config = make_config params "lr" 60.0 jobs strict inject in
        let result = Flow.synthesize config design in
        let a = result.Flow.assignment in
        Printf.printf "connections:   %d\n" (Array.length result.Flow.placement.Wdm_place.conns);
        Printf.printf "initial WDMs:  %d\n" a.Assign.initial_count;
        Printf.printf "final WDMs:    %d\n" a.Assign.final_count;
        Printf.printf "reduction:     %.1f%%\n" (100.0 *. Assign.reduction_ratio a);
        Printf.printf "displacement:  %.4f cm-bits\n" a.Assign.displacement_cost;
        print_degradation result;
        if trace then print_trace result)
  in
  let doc = "WDM placement and network-flow assignment summary (Fig. 8)." in
  Cmd.v (Cmd.info "wdm" ~doc)
    Term.(const run $ case_arg $ seed_arg $ jobs_arg $ trace_arg $ strict_arg
          $ inject_arg)

let export_cmd =
  let out_arg =
    let doc = "Output file (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let no_timings_arg =
    let doc =
      "Emit exactly the serve protocol's result payload: omit the \
       wall-clock-dependent fields (the per-stage trace and the cache \
       timing counters) and the channels block, so the document is a \
       pure function of design and configuration — byte-comparable \
       across runs and against $(b,operon serve) results."
    in
    Arg.(value & flag & info [ "no-timings" ] ~doc)
  in
  let run case seed mode budget jobs strict inject solver_core no_timings out
      mutate mutate_seed eco_from thermal_map thermal_weights partition =
    let seed = validate_seed seed in
    let thermal = validate_thermal thermal_map thermal_weights in
    let partition = validate_partition partition in
    with_design case seed (fun design ->
        let design = apply_mutate mutate mutate_seed design in
        let params = Operon_optical.Params.default in
        let config =
          make_config ~solver_core ?thermal ~partition params mode budget jobs
            strict inject
        in
        let result = synthesize_cli ?eco_from config design in
        let conns = result.Flow.placement.Wdm_place.conns in
        let plan =
          Channels.assign result.Flow.ctx.Selection.params conns result.Flow.assignment
        in
        let json =
          if no_timings then Export.flow_to_json ~timings:false result
          else Export.flow_to_json ~channels:plan result
        in
        (match Report.degradation_summary result with
         | Some summary -> prerr_string summary
         | None -> ());
        match out with
        | None -> print_endline json
        | Some path ->
            Export.write_file path json;
            Printf.printf "wrote %s (%d bytes)\n" path (String.length json))
  in
  let doc = "Run the flow and export the synthesized design as JSON." in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ case_arg $ seed_arg $ mode_arg $ budget_arg $ jobs_arg
          $ strict_arg $ inject_arg $ solver_core_arg $ no_timings_arg $ out_arg
          $ mutate_arg $ mutate_seed_arg $ eco_from_arg $ thermal_map_arg
          $ thermal_weights_arg $ partition_arg)

let thermal_map_cmd =
  let hotspots_arg =
    Arg.(value & opt int 6
         & info [ "hotspots" ] ~docv:"N" ~doc:"Gaussian hotspot count.")
  in
  let amplitude_arg =
    Arg.(value & opt float 25.0
         & info [ "amplitude" ] ~docv:"DEGC"
             ~doc:"Peak hotspot temperature rise above ambient, degC.")
  in
  let decay_arg =
    Arg.(value & opt float 0.15
         & info [ "decay" ] ~docv:"FRACTION"
             ~doc:"Hotspot spread as a fraction of the shorter die edge.")
  in
  let grid_arg =
    Arg.(value & opt int 24
         & info [ "grid" ] ~docv:"N" ~doc:"Grid resolution (N x N cells).")
  in
  let ambient_arg =
    Arg.(value & opt float 45.0
         & info [ "ambient" ] ~docv:"DEGC"
             ~doc:"Ambient temperature, degC, within [-1414, 1414].")
  in
  let map_seed_arg =
    Arg.(value & opt int 1
         & info [ "map-seed" ] ~docv:"SEED"
             ~doc:"PRNG seed of the hotspot placement.")
  in
  let out_arg =
    let doc = "Output file (default: stdout)." in
    Arg.(value & opt (some string) None
         & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let run case seed hotspots amplitude decay grid ambient map_seed out =
    let seed = validate_seed seed in
    if hotspots < 0 then fail_usage "--hotspots must be >= 0 (got %d)" hotspots;
    if hotspots > Operon_thermal.Thermal_map.max_hotspots then
      fail_usage "--hotspots must be at most %d (got %d)"
        Operon_thermal.Thermal_map.max_hotspots hotspots;
    if not (amplitude >= 0.0 && amplitude <= Operon_thermal.Thermal_map.max_amplitude) then
      fail_usage "--amplitude must be in [0, %g] (got %g)"
        Operon_thermal.Thermal_map.max_amplitude amplitude;
    if not (decay > 0.0 && Float.is_finite decay) then
      fail_usage "--decay must be positive and finite (got %g)" decay;
    if grid <= 0 then fail_usage "--grid must be positive (got %d)" grid;
    if grid > Operon_thermal.Thermal_map.max_grid then
      fail_usage "--grid must be at most %d (got %d)" Operon_thermal.Thermal_map.max_grid
        grid;
    if not (Float.abs ambient <= Operon_thermal.Thermal_map.max_ambient) then
      fail_usage "--ambient must be in [-%g, %g] (got %g)"
        Operon_thermal.Thermal_map.max_ambient Operon_thermal.Thermal_map.max_ambient ambient;
    if map_seed <= 0 then
      fail_usage "--map-seed must be positive (got %d)" map_seed;
    with_design case seed (fun design ->
        let rng = Operon_util.Prng.create map_seed in
        let map =
          Operon_thermal.Thermal_map.synthetic ~nx:grid ~ny:grid ~ambient
            ~hotspots ~amplitude ~decay ~die:design.Signal.die rng
        in
        let text = Operon_thermal.Thermal_map.to_string map in
        match out with
        | None -> print_string text
        | Some path ->
            Export.write_file path text;
            Printf.printf "wrote %s (%s)\n" path
              (Operon_thermal.Thermal_map.summary map))
  in
  let doc =
    "Generate a synthetic die temperature map for a case (seeded Gaussian \
     hotspots), in the text format $(b,--thermal-map) loads. The same \
     seed always produces the same map, and the %.17g text round-trip is \
     exact, so scenario runs are reproducible across machines."
  in
  Cmd.v (Cmd.info "thermal-map" ~doc)
    Term.(const run $ case_arg $ seed_arg $ hotspots_arg $ amplitude_arg
          $ decay_arg $ grid_arg $ ambient_arg $ map_seed_arg $ out_arg)

let timing_cmd =
  let run case seed mode budget jobs =
    let seed = validate_seed seed in
    with_design case seed (fun design ->
        let params = Operon_optical.Params.default in
        let config = make_config params mode budget jobs false [] in
        let result = Flow.synthesize config design in
        let d = Operon_optical.Delay.default in
        let sel = Timing.selection d result.Flow.ctx result.Flow.choice in
        let reference = Timing.electrical_reference d result.Flow.ctx in
        Printf.printf "worst source-to-sink delay (ps):\n";
        Printf.printf "  all-electrical reference: mean %8.1f  max %8.1f\n"
          reference.Timing.mean_worst_ps reference.Timing.max_worst_ps;
        Printf.printf "  OPERON selection:         mean %8.1f  max %8.1f\n"
          sel.Timing.mean_worst_ps sel.Timing.max_worst_ps;
        Printf.printf "  speedup:                  mean %7.2fx  max %7.2fx\n"
          (reference.Timing.mean_worst_ps /. Float.max 1e-9 sel.Timing.mean_worst_ps)
          (reference.Timing.max_worst_ps /. Float.max 1e-9 sel.Timing.max_worst_ps);
        Printf.printf "  (optical/copper delay crossover: %.2f cm)\n"
          (Operon_optical.Delay.crossover_cm d))
  in
  let doc = "Delay analysis of the synthesized routes (extension)." in
  Cmd.v (Cmd.info "timing" ~doc)
    Term.(const run $ case_arg $ seed_arg $ mode_arg $ budget_arg $ jobs_arg)

let serve_cmd =
  let capacity_arg =
    let doc =
      "Bounded job-queue capacity: a submit that would exceed it is \
       rejected with a structured $(i,busy) response instead of \
       blocking the client."
    in
    Arg.(value & opt int 64 & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let registry_capacity_arg =
    let doc =
      "Cap the prepared-design registry at N entries, evicting the \
       least recently used beyond it (0 = unbounded, the default)."
    in
    Arg.(value & opt int 0 & info [ "registry-capacity" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc =
      "Fork N fault-isolated shard worker processes and consistent-hash \
       designs across them; a crashed shard is restarted with backoff \
       and its in-flight jobs are retried once on a survivor. 0 (the \
       default) serves in-process without forking."
    in
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let socket_arg =
    let doc =
      "Also listen on a Unix-domain socket at $(docv) (NDJSON, one \
       concurrent session per connection)."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc = "Also listen on loopback TCP port $(docv)." in
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)
  in
  let run jobs capacity registry_capacity shards socket tcp =
    let jobs = validate_jobs jobs in
    let workers =
      if jobs = 0 then Operon_util.Executor.default_jobs () else jobs
    in
    if capacity < 1 then
      fail_usage "--queue-capacity must be >= 1 (got %d)" capacity;
    if registry_capacity < 0 then
      fail_usage "--registry-capacity must be >= 0 (got %d)" registry_capacity;
    if shards < 0 then fail_usage "--shards must be >= 0 (got %d)" shards;
    (match tcp with
    | Some p when p < 0 || p > 65535 ->
        fail_usage "--tcp port must be in [0, 65535] (got %d)" p
    | _ -> ());
    let registry_capacity =
      if registry_capacity = 0 then None else Some registry_capacity
    in
    let resolve ~case ~seed = design_of_case case seed in
    let params = Operon_optical.Params.default in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let listeners =
      (match socket with
      | Some path -> [ Operon_service.Transport.unix_listener path ]
      | None -> [])
      @
      match tcp with
      | Some port -> [ Operon_service.Transport.tcp_listener port ]
      | None -> []
    in
    (* The in-process service, or — with --shards — a fault-isolated
       fleet of forked services. The fleet's parent must stay
       domain-free (the runtime refuses fork after any domain is
       created), so it speaks only threads: stdio loop, socket sessions,
       shard readers. Either way stdio and the sockets (if any) share one
       [handle]. *)
    let handle, on_child_fork, shutdown =
      if shards = 0 then begin
        let svc =
          Operon_service.Service.create ~workers ~capacity ?registry_capacity
            ~resolve ~params ()
        in
        Operon_service.Service.start svc;
        ( Operon_service.Service.handle_line svc,
          ignore,
          fun () -> Operon_service.Service.shutdown svc )
      end
      else begin
        let sup =
          Operon_service.Supervisor.create ~shards ~workers
            ~queue_capacity:capacity ?registry_capacity ~resolve ~params ()
        in
        Operon_service.Supervisor.start sup;
        ( Operon_service.Supervisor.handle_line sup,
          Operon_service.Supervisor.on_child_fork sup,
          fun () -> Operon_service.Supervisor.shutdown sup )
      end
    in
    let transport = Operon_service.Transport.start ~listeners ~handle () in
    on_child_fork (fun () -> Operon_service.Transport.close_in_child transport);
    Fun.protect
      ~finally:(fun () ->
        Operon_service.Transport.stop transport;
        shutdown ())
      (fun () -> Operon_service.Transport.serve_channel ~handle stdin stdout)
  in
  let doc =
    "Batch synthesis service: newline-delimited JSON requests on stdin \
     (and, with $(b,--socket)/$(b,--tcp), on sockets), one response per \
     line. With $(b,--shards) N, jobs are consistent-hashed across N \
     fault-isolated forked worker processes with crash retry and \
     deadline shedding. Results are byte-identical to $(b,operon export \
     --no-timings) for the same case and options, whatever the worker \
     or shard count."
  in
  let jobs_arg =
    let doc = "Worker domains serving jobs (0 = one per core)." in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ jobs_arg $ capacity_arg $ registry_capacity_arg $ shards_arg
      $ socket_arg $ tcp_arg)

let () =
  let doc = "OPERON: optical-electrical power-efficient route synthesis" in
  let info = Cmd.info "operon" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; stats_cmd; splitter_cmd; wdm_cmd; export_cmd;
            thermal_map_cmd; timing_cmd; serve_cmd ]))
