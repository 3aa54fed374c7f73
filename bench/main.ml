(* OPERON benchmark harness — regenerates every table and figure of the
   paper's evaluation (Section 5).

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1     # Table 1
     dune exec bench/main.exe fig3b      # Fig. 3(b) splitter cascade
     dune exec bench/main.exe fig5       # Fig. 5 co-design candidates
     dune exec bench/main.exe fig8       # Fig. 8 WDM counts
     dune exec bench/main.exe fig9       # Fig. 9 hotspot maps (case I2)
     dune exec bench/main.exe serve      # batch service throughput/latency
     dune exec bench/main.exe sustained  # multi-shard saturation + kill -9 scenario
     dune exec bench/main.exe eco        # incremental ECO vs cold re-synthesis
     dune exec bench/main.exe solver     # dense tableau vs sparse revised simplex
     dune exec bench/main.exe scale      # 10k-100k-net scale tiers vs wall-clock targets
     dune exec bench/main.exe thermal    # thermal Pareto sweep: power vs worst-case margin
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
      | Some v -> v
      | None ->
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
  faults : int;  (** degradations across the LR and ILP runs *)
  quarantined_nets : int;  (** nets on the all-electrical fallback *)
  lr_degradation : string;  (** Export.degradation_to_json of the LR run *)
  ilp_degradation : string;  (** same for the ILP run *)
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
    ilp_sink;
    faults = List.length lr.Flow.faults + List.length ilp.Flow.faults;
    quarantined_nets =
      Array.length lr.Flow.quarantined_nets
      + Array.length ilp.Flow.quarantined_nets;
    lr_degradation = Export.degradation_to_json lr;
    ilp_degradation = Export.degradation_to_json ilp }

(* ------------------------------------------------------------------ *)
(* Machine-readable results (bench/results/latest.json)               *)
(* ------------------------------------------------------------------ *)

let results_dir = Filename.concat "bench" "results"

let rec ensure_dir path =
  if not (Sys.file_exists path) then begin
    ensure_dir (Filename.dirname path);
    (try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let stage_seconds sink stage = Instrument.seconds sink stage

let run_stamp =
  lazy
    (let tm = Unix.gmtime (Unix.time ()) in
     Printf.sprintf "%04d-%02d-%02dT%02d%02d%02dZ.json" (tm.Unix.tm_year + 1900)
       (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
       tm.Unix.tm_sec)

(* Rows of the cached-vs-uncached selection comparison (the "cache"
   target); serialized into latest.json next to the Table 1 cases. *)
type cache_row = {
  c_name : string;
  c_cached_s : float;
  c_uncached_s : float;
  c_hits : int;
  c_misses : int;
  c_uncached_queries : int;
  c_pairs : int;
  c_entries : int;
  c_build_s : float;
  c_identical : bool;  (** cached and uncached selections agree bit-for-bit *)
}

(* Rows of the batch-service benchmark (the "serve" target). *)
type serve_row = {
  s_name : string;
  s_workers : int;
  s_jobs : int;  (** repeat jobs measured (after the cold first submit) *)
  s_wall_s : float;  (** wall-clock of the repeat batch *)
  s_throughput : float;  (** repeat jobs per second *)
  s_p50_ms : float;
  s_p95_ms : float;
  s_first_s : float;  (** cold submit->result latency (registry miss) *)
  s_repeat_s : float;  (** mean repeat latency (registry hits) *)
  s_hits : int;
  s_misses : int;
}

(* Rows of the sustained-load serving benchmark (the "sustained"
   target): the multi-shard server driven as a subprocess at
   saturation, per shard count, with an optional kill-one-shard-mid-load
   scenario. Serialized into the same "serve" section of latest.json as
   the in-process rows. *)
type sustained_row = {
  u_shards : int;
  u_jobs : int;
  u_wall_s : float;  (** submit of the first job to last terminal *)
  u_throughput : float;  (** terminals per second at saturation *)
  u_p50_ms : float;  (** completion-time percentiles from batch start *)
  u_p95_ms : float;
  u_p99_ms : float;
  u_killed : bool;  (** one shard was kill -9'd mid-batch *)
  u_completed : int;
  u_crashed : int;  (** shard_crash terminals (retried-then-died) *)
  u_restarts : int;  (** supervisor restart counter after the batch *)
  u_crash_signals : int;
}

(* Rows of the incremental-ECO benchmark (the "eco" target). *)
type eco_row = {
  e_name : string;
  e_ratio : float;  (** fraction of signal groups displaced *)
  e_nets : int;
  e_reused : int;
  e_recomputed : int;
  e_xrows : int;  (** crossing-matrix rows aliased from the baseline *)
  e_cold_s : float;  (** cold prepare + select wall-clock *)
  e_eco_s : float;  (** incremental prepare + select wall-clock *)
  e_identical : bool;  (** ECO and cold exports agree byte-for-byte *)
  e_cold_fallback : bool;
}

(* Rows of the solver-core comparison (the "solver" target): dense
   tableau vs sparse revised simplex on the same prepared case. *)
type solver_row = {
  v_name : string;
  v_nets : int;
  v_dense_s : float;
  v_sparse_s : float;
  v_dense_pivots : int;
  v_sparse_pivots : int;
  v_refactorizations : int;  (** sparse-core basis rebuilds *)
  v_dense_to : bool;  (** dense run hit the ILP budget *)
  v_sparse_to : bool;
  v_identical : bool;  (** choice and power agree bit-for-bit *)
}

(* Rows of the scale-tier benchmark (the "scale" target): end-to-end LR
   synthesis wall-clock on the 10k-100k-net tiers, against each tier's
   declared budget. *)
type scale_row = {
  g_name : string;
  g_target_nets : int;
  g_target_s : float;
  g_nets : int;
  g_hnets : int;
  g_gen_s : float;
  g_prep_s : float;
  g_select_s : float;
      (** selection plus WDM placement and assignment, which the two
          fields below break out *)
  g_wdm_s : float;  (** WDM placement and legalization *)
  g_assign_s : float;  (** track retirement and min-cost assignment *)
  g_initial_tracks : int;
  g_final_tracks : int;
  g_power : float;
  g_met : bool;  (** total wall-clock within the tier target *)
  g_part_regions : int;  (** regions the partitioned run formed *)
  g_part_prep_s : float;  (** partitioned-mode preparation wall-clock *)
  g_part_select_s : float;  (** partitioned selection incl. stitch *)
  g_part_wdm_s : float;
  g_part_assign_s : float;
  g_part_initial_tracks : int;
  g_part_final_tracks : int;
  g_part_power : float;
  g_part_speedup : float;  (** flat / partitioned (prepare + select) *)
  g_part_power_delta_pct : float;
      (** partitioned power vs flat, percent (positive = worse) *)
}

(* Rows of the thermal Pareto-sweep benchmark (the "thermal" target):
   power/margin trade-off of the weight ladder on a synthetic hotspot
   map, per Table 1 case. *)
type thermal_row = {
  t_name : string;
  t_nets : int;
  t_map : string;  (** Thermal_map.summary of the synthetic field *)
  t_swept : int;
  t_front : int;
  t_dropped : int;
  t_sweep_s : float;
  t_base_power : float;  (** temperature-blind selection's power *)
  t_base_margin : float;  (** its worst-case thermal margin, dB *)
  t_best_power : float;  (** power of the front's best-margin point *)
  t_best_margin : float;
  t_identical : bool;
      (** an inert (weight-0-only) thermal run reproduces the plain
          selection bit-for-bit *)
}

(* One results file serves every target: whichever ran last rewrites
   latest.json with every section accumulated so far this process. *)
let table1_results : table1_row list ref = ref []
let cache_results : cache_row list ref = ref []
let serve_results : serve_row list ref = ref []
let sustained_results : sustained_row list ref = ref []
let eco_results : eco_row list ref = ref []
let solver_results : solver_row list ref = ref []
let scale_results : scale_row list ref = ref []
let thermal_results : thermal_row list ref = ref []

let write_results () =
  let jf = Printf.sprintf "%.6f" in
  let case_json r =
    Printf.sprintf
      {|    {"name":"%s","nets":%d,"hnets":%d,"hpins":%d,
     "power":{"electrical":%s,"glow":%s,"operon_ilp":%s,"operon_lr":%s},
     "cpu":{"ilp_select":%s,"lr_select":%s,"ilp_timed_out":%b},
     "faults":%d,"quarantined_nets":%d,
     "degradation":{"lr":%s,"ilp":%s},
     "stages":{"prepare":%s,"lr":%s,"ilp":%s}}|}
      r.name r.nets r.hnets r.hpins (jf r.p_elec) (jf r.p_glow) (jf r.p_ilp)
      (jf r.p_lr) (jf r.cpu_ilp) (jf r.cpu_lr) r.ilp_timed_out r.faults
      r.quarantined_nets r.lr_degradation r.ilp_degradation
      (Export.trace_to_json r.prep_sink)
      (Export.trace_to_json r.lr_sink)
      (Export.trace_to_json r.ilp_sink)
  in
  let cache_json r =
    Printf.sprintf
      {|    {"name":"%s","cached_seconds":%s,"uncached_seconds":%s,"speedup":%s,
     "hits":%d,"misses":%d,"uncached_queries":%d,
     "pairs":%d,"entries":%d,"build_seconds":%s,"choice_identical":%b}|}
      r.c_name (jf r.c_cached_s) (jf r.c_uncached_s)
      (jf (r.c_uncached_s /. Float.max 1e-9 r.c_cached_s))
      r.c_hits r.c_misses r.c_uncached_queries r.c_pairs r.c_entries
      (jf r.c_build_s) r.c_identical
  in
  let serve_json r =
    Printf.sprintf
      {|    {"name":"%s","workers":%d,"jobs":%d,"wall_seconds":%s,
     "throughput_jobs_per_s":%s,"p50_ms":%s,"p95_ms":%s,
     "first_submit_seconds":%s,"repeat_submit_seconds":%s,"registry_speedup":%s,
     "registry":{"hits":%d,"misses":%d}}|}
      r.s_name r.s_workers r.s_jobs (jf r.s_wall_s) (jf r.s_throughput)
      (jf r.s_p50_ms) (jf r.s_p95_ms) (jf r.s_first_s) (jf r.s_repeat_s)
      (jf (r.s_first_s /. Float.max 1e-9 r.s_repeat_s))
      r.s_hits r.s_misses
  in
  let sustained_json r =
    Printf.sprintf
      {|    {"name":"sustained","shards":%d,"jobs":%d,"wall_seconds":%s,
     "throughput_jobs_per_s":%s,"p50_ms":%s,"p95_ms":%s,"p99_ms":%s,
     "kill_one_shard":%b,"completed":%d,"shard_crash":%d,
     "supervisor":{"restarts":%d,"crash_signals":%d}}|}
      r.u_shards r.u_jobs (jf r.u_wall_s) (jf r.u_throughput) (jf r.u_p50_ms)
      (jf r.u_p95_ms) (jf r.u_p99_ms) r.u_killed r.u_completed r.u_crashed
      r.u_restarts r.u_crash_signals
  in
  let eco_json r =
    Printf.sprintf
      {|    {"name":"%s","mutate_ratio":%s,"nets":%d,
     "nets_reused":%d,"nets_recomputed":%d,"xrows_reused":%d,
     "cold_seconds":%s,"eco_seconds":%s,"speedup":%s,
     "identical":%b,"cold_fallback":%b}|}
      r.e_name (jf r.e_ratio) r.e_nets r.e_reused r.e_recomputed r.e_xrows
      (jf r.e_cold_s) (jf r.e_eco_s)
      (jf (r.e_cold_s /. Float.max 1e-9 r.e_eco_s))
      r.e_identical r.e_cold_fallback
  in
  let solver_json r =
    Printf.sprintf
      {|    {"name":"%s","nets":%d,"dense_seconds":%s,"sparse_seconds":%s,
     "speedup":%s,"pivots":{"dense":%d,"sparse":%d},"refactorizations":%d,
     "timed_out":{"dense":%b,"sparse":%b},"choice_identical":%b}|}
      r.v_name r.v_nets (jf r.v_dense_s) (jf r.v_sparse_s)
      (jf (r.v_dense_s /. Float.max 1e-9 r.v_sparse_s))
      r.v_dense_pivots r.v_sparse_pivots r.v_refactorizations r.v_dense_to
      r.v_sparse_to r.v_identical
  in
  let scale_json r =
    Printf.sprintf
      {|    {"name":"%s","target_nets":%d,"target_seconds":%s,
     "nets":%d,"hnets":%d,"power":%s,
     "generate_seconds":%s,"prepare_seconds":%s,"select_seconds":%s,
     "wdm_seconds":%s,"assign_seconds":%s,
     "initial_tracks":%d,"final_tracks":%d,
     "total_seconds":%s,"target_met":%b,
     "partitioned":{"regions":%d,"prepare_seconds":%s,"select_seconds":%s,
       "wdm_seconds":%s,"assign_seconds":%s,
       "initial_tracks":%d,"final_tracks":%d,
       "power":%s,"speedup":%s,"power_delta_pct":%s}}|}
      r.g_name r.g_target_nets (jf r.g_target_s) r.g_nets r.g_hnets
      (jf r.g_power) (jf r.g_gen_s) (jf r.g_prep_s) (jf r.g_select_s)
      (jf r.g_wdm_s) (jf r.g_assign_s) r.g_initial_tracks r.g_final_tracks
      (jf (r.g_gen_s +. r.g_prep_s +. r.g_select_s))
      r.g_met r.g_part_regions (jf r.g_part_prep_s) (jf r.g_part_select_s)
      (jf r.g_part_wdm_s) (jf r.g_part_assign_s) r.g_part_initial_tracks
      r.g_part_final_tracks (jf r.g_part_power) (jf r.g_part_speedup)
      (jf r.g_part_power_delta_pct)
  in
  let thermal_json r =
    Printf.sprintf
      {|    {"name":"%s","nets":%d,"map":"%s",
     "swept":%d,"front":%d,"dropped":%d,"sweep_seconds":%s,
     "baseline":{"power":%s,"margin_db":%s},
     "best_margin":{"power":%s,"margin_db":%s},
     "inert_identical":%b}|}
      r.t_name r.t_nets r.t_map r.t_swept r.t_front r.t_dropped
      (jf r.t_sweep_s) (jf r.t_base_power) (jf r.t_base_margin)
      (jf r.t_best_power) (jf r.t_best_margin) r.t_identical
  in
  let json =
    Printf.sprintf
      "{\n  \"ilp_budget\": %s,\n  \"cases\": [\n%s\n  ],\n  \"cache_bench\": [\n%s\n  ],\n  \"serve\": [\n%s\n  ],\n  \"eco\": [\n%s\n  ],\n  \"solver\": [\n%s\n  ],\n  \"scale_tiers\": [\n%s\n  ],\n  \"thermal\": [\n%s\n  ]\n}\n"
      (jf ilp_budget)
      (String.concat ",\n" (List.map case_json !table1_results))
      (String.concat ",\n" (List.map cache_json !cache_results))
      (String.concat ",\n"
         (List.map serve_json !serve_results
         @ List.map sustained_json !sustained_results))
      (String.concat ",\n" (List.map eco_json !eco_results))
      (String.concat ",\n" (List.map solver_json !solver_results))
      (String.concat ",\n" (List.map scale_json !scale_results))
      (String.concat ",\n" (List.map thermal_json !thermal_results))
  in
  ensure_dir results_dir;
  let path = Filename.concat results_dir "latest.json" in
  Export.write_file path json;
  (* Also keep a per-run timestamped copy alongside latest.json, so
     successive bench runs remain comparable after the fact. The stamp
     is fixed once per process: every target of one run accumulates
     into the same file. *)
  let stamped = Filename.concat results_dir (Lazy.force run_stamp) in
  Export.write_file stamped json;
  Printf.printf "wrote %s and %s (%d bytes)\n\n%!" path stamped
    (String.length json)

let stage_timing_table rows =
  print_endline "=== per-stage wall-clock seconds (candidate stages shared by both engines) ===";
  let cell s = Printf.sprintf "%.3f" s in
  let render r =
    [ r.name;
      cell (stage_seconds r.prep_sink Instrument.Processing);
      cell (stage_seconds r.prep_sink Instrument.Baselines);
      cell (stage_seconds r.prep_sink Instrument.Codesign);
      cell (stage_seconds r.lr_sink Instrument.Select);
      cell (stage_seconds r.ilp_sink Instrument.Select);
      cell (stage_seconds r.lr_sink Instrument.Wdm);
      cell (stage_seconds r.lr_sink Instrument.Assign) ]
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
  stage_timing_table rows;
  table1_results := rows;
  write_results ()

(* ------------------------------------------------------------------ *)
(* Crossing-matrix cache: cached vs uncached selection wall-clock     *)
(* ------------------------------------------------------------------ *)

(* Named-case selection from an env var; unknown entries are warned
   about by name and skipped, defaults apply when unset/empty. *)
let designs_of_env var default =
  match Sys.getenv_opt var with
  | None | Some "" -> default ()
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun name ->
             let name = String.trim name in
             if name = "" then None
             else
               match Cases.by_name name with
               | Some spec -> Some (spec.Gen.name, Gen.generate spec)
               | None -> (
                   match String.lowercase_ascii name with
                   | "small" -> Some ("small", Cases.small ())
                   | "tiny" -> Some ("tiny", Cases.tiny ())
                   | _ ->
                       Printf.eprintf "bench: unknown %s entry %S (skipped)\n%!"
                         var name;
                       None))

(* Cases to compare; OPERON_CACHE_CASES=<name,name,...> (I1..I5, small,
   tiny) restricts the sweep — CI uses a small subset. *)
let cache_designs () =
  designs_of_env "OPERON_CACHE_CASES" (fun () ->
      List.map (fun spec -> (spec.Gen.name, Gen.generate spec)) Cases.all)

let cache_bench () =
  print_endline "=== crossing-matrix cache: cached vs uncached LR selection ===";
  let rows =
    List.map
      (fun (name, design) ->
        let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
        let build = Xmatrix.stats ctx.Selection.xmat in
        (* Attribute hit/miss counters to the selection runs only. *)
        Xmatrix.reset_counters ctx.Selection.xmat;
        let cached = Lr_select.select ctx in
        let after = Xmatrix.stats ctx.Selection.xmat in
        let ctx_u = Selection.uncached ctx in
        let uncached = Lr_select.select ctx_u in
        let ustats = Xmatrix.stats ctx_u.Selection.xmat in
        let identical =
          cached.Lr_select.choice = uncached.Lr_select.choice
          && cached.Lr_select.power = uncached.Lr_select.power
        in
        if not identical then
          Printf.eprintf "bench: cache parity violation on %s!\n%!" name;
        { c_name = name;
          c_cached_s = cached.Lr_select.elapsed;
          c_uncached_s = uncached.Lr_select.elapsed;
          c_hits = after.Xmatrix.hits;
          c_misses = after.Xmatrix.misses;
          c_uncached_queries = ustats.Xmatrix.misses;
          c_pairs = build.Xmatrix.pairs;
          c_entries = build.Xmatrix.entries;
          c_build_s = build.Xmatrix.build_seconds;
          c_identical = identical })
      (cache_designs ())
  in
  let render r =
    [ r.c_name;
      Printf.sprintf "%.3f" r.c_build_s;
      string_of_int r.c_pairs;
      string_of_int r.c_entries;
      Printf.sprintf "%.3f" r.c_cached_s;
      Printf.sprintf "%.3f" r.c_uncached_s;
      Printf.sprintf "%.2fx" (r.c_uncached_s /. Float.max 1e-9 r.c_cached_s);
      string_of_int r.c_hits;
      string_of_int r.c_misses;
      (if r.c_identical then "yes" else "NO") ]
  in
  print_endline
    (Report.table
       ~headers:
         [ "Bench"; "build(s)"; "pairs"; "entries"; "cached(s)"; "uncached(s)";
           "speedup"; "hits"; "misses"; "identical" ]
       ~align:
         [ Report.Left; Report.Right; Report.Right; Report.Right; Report.Right;
           Report.Right; Report.Right; Report.Right; Report.Right; Report.Right ]
       (List.map render rows));
  print_endline "";
  cache_results := rows;
  write_results ()

(* ------------------------------------------------------------------ *)
(* Incremental ECO re-synthesis: cold vs eco wall-clock               *)
(* ------------------------------------------------------------------ *)

(* Cases via OPERON_ECO_CASES (default I2 — big enough that preparation
   dominates and per-net reuse pays). Each case is prepared cold once,
   then re-synthesized at several mutation ratios both cold and
   incrementally; exports must agree byte-for-byte. *)
let eco_designs () =
  designs_of_env "OPERON_ECO_CASES" (fun () ->
      match Cases.by_name "I2" with
      | Some spec -> [ (spec.Gen.name, Gen.generate spec) ]
      | None -> [ ("small", Cases.small ()) ])

let eco_bench () =
  print_endline "=== incremental ECO re-synthesis: cold vs eco wall-clock ===";
  let config = Flow.Config.default params in
  let ratios = [ 0.05; 0.1; 0.25 ] in
  let rows =
    List.concat_map
      (fun (name, design) ->
        let prev = Flow.prepare config design in
        List.map
          (fun ratio ->
            let revised = Mutate.design ~ratio ~seed:9001 design in
            let t0 = Timer.now () in
            let cold_p = Flow.prepare config revised in
            let cold_flow = Flow.select_prepared config cold_p in
            let cold_s = Timer.now () -. t0 in
            let t1 = Timer.now () in
            let eco_p = Flow.prepare_eco ~prev config revised in
            let eco_flow = Flow.select_prepared config eco_p in
            let eco_s = Timer.now () -. t1 in
            let identical =
              Export.flow_to_json ~timings:false cold_flow
              = Export.flow_to_json ~timings:false eco_flow
            in
            if not identical then
              Printf.eprintf "bench: ECO parity violation on %s @ %g!\n%!" name
                ratio;
            let e = Option.get eco_p.Flow.p_eco in
            { e_name = name;
              e_ratio = ratio;
              e_nets = Array.length eco_p.Flow.p_hnets;
              e_reused = e.Flow.nets_reused;
              e_recomputed = e.Flow.nets_recomputed;
              e_xrows = e.Flow.xrows_reused;
              e_cold_s = cold_s;
              e_eco_s = eco_s;
              e_identical = identical;
              e_cold_fallback = e.Flow.cold_fallback })
          ratios)
      (eco_designs ())
  in
  let render r =
    [ r.e_name;
      Printf.sprintf "%g" r.e_ratio;
      Printf.sprintf "%d/%d" r.e_recomputed r.e_nets;
      string_of_int r.e_xrows;
      Printf.sprintf "%.3f" r.e_cold_s;
      Printf.sprintf "%.3f" r.e_eco_s;
      Printf.sprintf "%.2fx" (r.e_cold_s /. Float.max 1e-9 r.e_eco_s);
      (if r.e_identical then "yes" else "NO") ]
  in
  print_endline
    (Report.table
       ~headers:
         [ "Bench"; "ratio"; "recomputed"; "xrows"; "cold(s)"; "eco(s)";
           "speedup"; "identical" ]
       ~align:
         [ Report.Left; Report.Right; Report.Right; Report.Right; Report.Right;
           Report.Right; Report.Right; Report.Right ]
       (List.map render rows));
  print_endline "";
  eco_results := rows;
  write_results ()

(* ------------------------------------------------------------------ *)
(* Solver cores: dense tableau vs sparse revised simplex              *)
(* ------------------------------------------------------------------ *)

(* Cases via OPERON_SOLVER_CASES (default I1..I5). Each case is
   prepared once, then ILP-selected with both cores against the same
   context; choice and power must agree bit-for-bit whenever neither
   run hit the wall-clock budget. *)
let solver_designs () =
  designs_of_env "OPERON_SOLVER_CASES" (fun () ->
      List.map (fun spec -> (spec.Gen.name, Gen.generate spec)) Cases.all)

let solver_bench () =
  print_endline
    "=== solver cores: dense tableau vs sparse revised simplex (ILP select) ===";
  let rows =
    List.map
      (fun (name, design) ->
        let hnets, ctx = Flow.prepare_with (Flow.Config.default params) design in
        let nets, _, _ = Processing.stats hnets in
        let run core =
          Flow.select_with
            (Flow.Config.make ~mode:Flow.Ilp ~ilp_budget ~solver_core:core
               params)
            design hnets ctx
        in
        let dense = run Operon_solver.Solver.Dense in
        let sparse = run Operon_solver.Solver.Sparse in
        let stats r = Option.get r.Flow.ilp in
        let timed_out r = (stats r).Ilp_select.timed_out > 0 in
        let identical =
          dense.Flow.choice = sparse.Flow.choice
          && dense.Flow.power = sparse.Flow.power
        in
        if (not identical) && not (timed_out dense || timed_out sparse) then
          Printf.eprintf "bench: solver core parity violation on %s!\n%!" name;
        { v_name = name;
          v_nets = nets;
          v_dense_s = dense.Flow.select_seconds;
          v_sparse_s = sparse.Flow.select_seconds;
          v_dense_pivots = (stats dense).Ilp_select.pivots;
          v_sparse_pivots = (stats sparse).Ilp_select.pivots;
          v_refactorizations = (stats sparse).Ilp_select.refactorizations;
          v_dense_to = timed_out dense;
          v_sparse_to = timed_out sparse;
          v_identical = identical })
      (solver_designs ())
  in
  let render r =
    [ r.v_name;
      string_of_int r.v_nets;
      Printf.sprintf "%.3f%s" r.v_dense_s (if r.v_dense_to then "*" else "");
      Printf.sprintf "%.3f%s" r.v_sparse_s (if r.v_sparse_to then "*" else "");
      Printf.sprintf "%.2fx" (r.v_dense_s /. Float.max 1e-9 r.v_sparse_s);
      string_of_int r.v_dense_pivots;
      string_of_int r.v_sparse_pivots;
      string_of_int r.v_refactorizations;
      (if r.v_identical then "yes"
       else if r.v_dense_to || r.v_sparse_to then "n/a"
       else "NO") ]
  in
  print_endline
    (Report.table
       ~headers:
         [ "Bench"; "#Net"; "dense(s)"; "sparse(s)"; "speedup"; "dense piv";
           "sparse piv"; "refact"; "identical" ]
       ~align:
         [ Report.Left; Report.Right; Report.Right; Report.Right; Report.Right;
           Report.Right; Report.Right; Report.Right; Report.Right ]
       (List.map render rows));
  print_endline "(* = run hit the ILP wall-clock budget)\n";
  solver_results := rows;
  write_results ()

(* ------------------------------------------------------------------ *)
(* Scale tiers: end-to-end wall-clock at 10k-100k nets                *)
(* ------------------------------------------------------------------ *)

(* Tiers via OPERON_SCALE_TIERS=<t10k,t30k,t100k> (default t10k — the
   larger tiers are opt-in; t100k takes tens of minutes). Each tier is
   synthesized end-to-end under LR and compared to its declared
   wall-clock target. *)
let scale_tiers_of_env () =
  match Sys.getenv_opt "OPERON_SCALE_TIERS" with
  | None | Some "" -> [ Cases.t10k ]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun name ->
             let name = String.trim name in
             if name = "" then None
             else
               match Cases.tier_by_name name with
               | Some t -> Some t
               | None ->
                   Printf.eprintf
                     "bench: unknown OPERON_SCALE_TIERS entry %S (skipped)\n%!"
                     name;
                   None)

let scale_bench () =
  print_endline
    "=== scale tiers: end-to-end LR synthesis wall-clock vs tier targets, \
     flat vs partitioned ===";
  let config = Flow.Config.make ~mode:Flow.Lr params in
  (* Partitioned contender: same flow, Auto region count, the worker
     pool sized to the machine. Preparation is re-run under the
     partitioned config because the two modes prepare differently (the
     flat design-wide crossing cache is skipped when per-region caches
     will be built instead). *)
  let part_config =
    Flow.Config.make ~mode:Flow.Lr ~jobs:(Executor.default_jobs ())
      ~partition:Flow.Config.Auto params
  in
  let rows =
    List.map
      (fun (t : Cases.tier) ->
        let t0 = Timer.now () in
        let design = Gen.generate t.Cases.t_spec in
        let gen_s = Timer.now () -. t0 in
        let t1 = Timer.now () in
        let hnets, ctx = Flow.prepare_with config design in
        let prep_s = Timer.now () -. t1 in
        let nets, hn, _ = Processing.stats hnets in
        let t2 = Timer.now () in
        let sink = Instrument.create () in
        let r = Flow.select_with ~sink config design hnets ctx in
        let select_s = Timer.now () -. t2 in
        let total = gen_s +. prep_s +. select_s in
        let t3 = Timer.now () in
        let p_hnets, p_ctx = Flow.prepare_with part_config design in
        let part_prep_s = Timer.now () -. t3 in
        let t4 = Timer.now () in
        let part_sink = Instrument.create () in
        let pr = Flow.select_with ~sink:part_sink part_config design p_hnets p_ctx in
        let part_select_s = Timer.now () -. t4 in
        let part_regions =
          match pr.Flow.partition with
          | Some p -> p.Flow.pt_regions
          | None -> 1
        in
        { g_name = t.Cases.t_name;
          g_target_nets = t.Cases.t_target_nets;
          g_target_s = t.Cases.t_target_seconds;
          g_nets = nets;
          g_hnets = hn;
          g_gen_s = gen_s;
          g_prep_s = prep_s;
          g_select_s = select_s;
          g_wdm_s = stage_seconds sink Instrument.Wdm;
          g_assign_s = stage_seconds sink Instrument.Assign;
          g_initial_tracks = r.Flow.assignment.Assign.initial_count;
          g_final_tracks = r.Flow.assignment.Assign.final_count;
          g_power = r.Flow.power;
          g_met = total <= t.Cases.t_target_seconds;
          g_part_regions = part_regions;
          g_part_prep_s = part_prep_s;
          g_part_select_s = part_select_s;
          g_part_wdm_s = stage_seconds part_sink Instrument.Wdm;
          g_part_assign_s = stage_seconds part_sink Instrument.Assign;
          g_part_initial_tracks = pr.Flow.assignment.Assign.initial_count;
          g_part_final_tracks = pr.Flow.assignment.Assign.final_count;
          g_part_power = pr.Flow.power;
          g_part_speedup =
            (prep_s +. select_s)
            /. Float.max 1e-9 (part_prep_s +. part_select_s);
          g_part_power_delta_pct =
            (if r.Flow.power = 0.0 then 0.0
             else
               100.0 *. (pr.Flow.power -. r.Flow.power)
               /. r.Flow.power) })
      (scale_tiers_of_env ())
  in
  let render r =
    [ r.g_name;
      string_of_int r.g_nets;
      string_of_int r.g_hnets;
      Printf.sprintf "%.2f" r.g_gen_s;
      Printf.sprintf "%.2f" r.g_prep_s;
      Printf.sprintf "%.2f" r.g_select_s;
      Printf.sprintf "%.2f" r.g_wdm_s;
      Printf.sprintf "%.2f" r.g_assign_s;
      Printf.sprintf "%d/%d" r.g_final_tracks r.g_initial_tracks;
      Printf.sprintf "%.2f" (r.g_gen_s +. r.g_prep_s +. r.g_select_s);
      Printf.sprintf "%.0f" r.g_target_s;
      (if r.g_met then "yes" else "NO");
      string_of_int r.g_part_regions;
      Printf.sprintf "%.2f" (r.g_part_prep_s +. r.g_part_select_s);
      Printf.sprintf "%.2f" r.g_part_assign_s;
      Printf.sprintf "%.2fx" r.g_part_speedup;
      Printf.sprintf "%+.2f%%" r.g_part_power_delta_pct ]
  in
  print_endline
    (Report.table
       ~headers:
         [ "tier"; "#Net"; "#HNet"; "gen(s)"; "prepare(s)"; "select(s)";
           "wdm(s)"; "assign(s)"; "tracks"; "total(s)"; "target(s)"; "met";
           "regions"; "part(s)"; "part assign(s)"; "speedup"; "dPower" ]
       ~align:
         (Report.Left :: List.init 16 (fun _ -> Report.Right))
       (List.map render rows));
  print_endline "";
  scale_results := rows;
  write_results ()

(* ------------------------------------------------------------------ *)
(* Batch synthesis service: throughput, latency, registry reuse       *)
(* ------------------------------------------------------------------ *)

(* Cases via OPERON_SERVE_CASES (default tiny + small — the service adds
   orchestration around the same flow Table 1 already times); repeat-job
   count via OPERON_SERVE_JOBS. *)
let serve_designs () =
  designs_of_env "OPERON_SERVE_CASES" (fun () ->
      [ ("tiny", Cases.tiny ()); ("small", Cases.small ()) ])

let serve_bench () =
  print_endline
    "=== batch synthesis service: throughput / latency / registry reuse ===";
  let open Operon_service in
  let n_jobs =
    match Sys.getenv_opt "OPERON_SERVE_JOBS" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some v when v > 0 -> v
        | _ ->
            Printf.eprintf
              "bench: ignoring malformed OPERON_SERVE_JOBS=%S (using 12)\n%!" s;
            12)
    | None -> 12
  in
  let workers = Stdlib.min 4 (Executor.default_jobs ()) in
  let config = Flow.Config.make ~mode:Flow.Lr params in
  let rows =
    List.map
      (fun (name, design) ->
        let sch = Scheduler.create ~workers ~capacity:(n_jobs + 1) () in
        Scheduler.start sch;
        let submit () =
          match Scheduler.submit sch ~config design with
          | Ok id -> id
          | Error _ -> failwith "bench: serve submit rejected"
        in
        (* Cold first job: pays the prepare (registry miss). *)
        let t0 = Timer.now () in
        ignore (Scheduler.wait sch (submit ()));
        let first_s = Timer.now () -. t0 in
        (* Repeat batch: every job reuses the prepared entry. *)
        let t1 = Timer.now () in
        let ids = List.init n_jobs (fun _ -> submit ()) in
        List.iter (fun id -> ignore (Scheduler.wait sch id)) ids;
        let wall = Timer.now () -. t1 in
        let c = Scheduler.counters sch in
        Scheduler.shutdown sch;
        let lat = Scheduler.latencies sch in
        (* latencies are completion-ordered; the cold job finished alone
           first, so the repeat jobs are everything after index 0. *)
        let repeat = Array.sub lat 1 (Array.length lat - 1) in
        { s_name = name;
          s_workers = workers;
          s_jobs = n_jobs;
          s_wall_s = wall;
          s_throughput = float_of_int n_jobs /. Float.max 1e-9 wall;
          s_p50_ms = 1000.0 *. Stats.percentile repeat 50.0;
          s_p95_ms = 1000.0 *. Stats.percentile repeat 95.0;
          s_first_s = first_s;
          s_repeat_s = Stats.mean repeat;
          s_hits = c.Scheduler.registry.Registry.hits;
          s_misses = c.Scheduler.registry.Registry.misses })
      (serve_designs ())
  in
  let render r =
    [ r.s_name;
      string_of_int r.s_workers;
      string_of_int r.s_jobs;
      Printf.sprintf "%.1f" r.s_throughput;
      Printf.sprintf "%.1f" r.s_p50_ms;
      Printf.sprintf "%.1f" r.s_p95_ms;
      Printf.sprintf "%.3f" r.s_first_s;
      Printf.sprintf "%.3f" r.s_repeat_s;
      Printf.sprintf "%.2fx" (r.s_first_s /. Float.max 1e-9 r.s_repeat_s);
      Printf.sprintf "%d/%d" r.s_hits (r.s_hits + r.s_misses) ]
  in
  print_endline
    (Report.table
       ~headers:
         [ "Bench"; "workers"; "jobs"; "jobs/s"; "p50(ms)"; "p95(ms)";
           "first(s)"; "repeat(s)"; "reuse speedup"; "reg hits" ]
       ~align:
         [ Report.Left; Report.Right; Report.Right; Report.Right; Report.Right;
           Report.Right; Report.Right; Report.Right; Report.Right; Report.Right ]
       (List.map render rows));
  print_endline "";
  serve_results := rows;
  write_results ()

(* ------------------------------------------------------------------ *)
(* Sustained multi-shard serving: saturation latency per shard count   *)
(* ------------------------------------------------------------------ *)

(* The fleet is driven as a subprocess ([operon serve --shards N] over
   stdio) rather than in-process: the supervisor must be able to fork,
   and this harness creates Domains for the other targets. Shard counts
   via OPERON_SUSTAINED_SHARDS=<n,n,...>, batch size via
   OPERON_SUSTAINED_JOBS, CLI binary via OPERON_CLI. *)

let find_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then None
    else if String.sub haystack i n = needle then Some i
    else go (i + 1)
  in
  go 0

let sustained_cli () =
  match Sys.getenv_opt "OPERON_CLI" with
  | Some p -> p
  | None ->
      (* _build/default/bench/main.exe -> _build/default/bin/operon_cli.exe *)
      Filename.concat
        (Filename.dirname (Filename.dirname Sys.executable_name))
        (Filename.concat "bin" "operon_cli.exe")

let sustained_shard_counts () =
  match Sys.getenv_opt "OPERON_SUSTAINED_SHARDS" with
  | None | Some "" -> [ 1; 2; 4 ]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun x ->
             match int_of_string_opt (String.trim x) with
             | Some n when n > 0 -> Some n
             | _ ->
                 Printf.eprintf
                   "bench: ignoring malformed OPERON_SUSTAINED_SHARDS entry %S\n%!"
                   x;
                 None)

(* One server run: submit [jobs] distinct small cases up front, then
   drain every terminal, timing each completion from the batch start.
   [kill_one] additionally kill -9s one shard child right after the
   last accept. *)
let sustained_run ~cli ~shards ~jobs ~kill_one =
  (* cloexec: the server must not inherit the write end of its own
     stdin pipe, or it will never see EOF at shutdown
     ([Unix.create_process] dup2s the ends it is given onto 0/1) *)
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--shards"; string_of_int shards |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w in
  let ic = Unix.in_channel_of_descr out_r in
  let send line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let field_of line key =
    (* minimal scrape of one top-level "key":int field *)
    let needle = Printf.sprintf "\"%s\":" key in
    match find_sub line needle with
    | None -> None
    | Some i ->
        let start = i + String.length needle in
        let stop = ref start in
        while
          !stop < String.length line
          && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
        do
          incr stop
        done;
        int_of_string_opt (String.sub line start (!stop - start))
  in
  let t0 = Timer.now () in
  for i = 1 to jobs do
    send
      (Printf.sprintf
         {|{"op":"submit","job":"u%d","case":"small","seed":%d,"mode":"lr"}|} i
         i);
    ignore (input_line ic)
  done;
  if kill_one then begin
    (* direct children of the server are its shard processes *)
    let children =
      try
        let f =
          open_in (Printf.sprintf "/proc/%d/task/%d/children" pid pid)
        in
        let line = try input_line f with End_of_file -> "" in
        close_in f;
        String.split_on_char ' ' line
        |> List.filter_map (fun s -> int_of_string_opt (String.trim s))
      with Sys_error _ -> []
    in
    match children with
    | victim :: _ -> Unix.kill victim Sys.sigkill
    | [] -> Printf.eprintf "bench: no shard child found to kill\n%!"
  end;
  let completions = Array.make jobs 0.0 in
  let completed = ref 0 and crashed = ref 0 in
  for i = 1 to jobs do
    send (Printf.sprintf {|{"op":"result","job":"u%d"}|} i);
    let reply = input_line ic in
    completions.(i - 1) <- Timer.now () -. t0;
    if find_sub reply "\"ok\":true" <> None then incr completed
    else if find_sub reply "\"kind\":\"shard_crash\"" <> None then
      incr crashed
  done;
  let wall = Timer.now () -. t0 in
  (* restart registration runs on a monitor thread behind the backoff
     delay; poll stats briefly rather than racing it *)
  let restarts = ref 0 and crash_signals = ref 0 in
  let deadline = Timer.now () +. if kill_one then 15.0 else 0.0 in
  let rec poll () =
    send {|{"op":"stats"}|};
    let line = input_line ic in
    restarts := Option.value ~default:0 (field_of line "restarts");
    crash_signals := Option.value ~default:0 (field_of line "crash_signals");
    if kill_one && !restarts < 1 && Timer.now () < deadline then begin
      Unix.sleepf 0.2;
      poll ()
    end
  in
  poll ();
  close_out oc;
  (try close_in ic with Sys_error _ -> ());
  ignore (Unix.waitpid [] pid);
  let pct p = 1000.0 *. Stats.percentile completions p in
  { u_shards = shards;
    u_jobs = jobs;
    u_wall_s = wall;
    u_throughput = float_of_int jobs /. Float.max 1e-9 wall;
    u_p50_ms = pct 50.0;
    u_p95_ms = pct 95.0;
    u_p99_ms = pct 99.0;
    u_killed = kill_one;
    u_completed = !completed;
    u_crashed = !crashed;
    u_restarts = !restarts;
    u_crash_signals = !crash_signals }

let sustained_bench () =
  print_endline
    "=== sustained multi-shard serving: saturation latency per shard count ===";
  let cli = sustained_cli () in
  if not (Sys.file_exists cli) then begin
    Printf.eprintf
      "bench: CLI binary %s not found (set OPERON_CLI); skipping sustained\n%!"
      cli;
    sustained_results := []
  end
  else begin
    let jobs =
      match Sys.getenv_opt "OPERON_SUSTAINED_JOBS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some v when v > 0 -> v
          | _ ->
              Printf.eprintf
                "bench: ignoring malformed OPERON_SUSTAINED_JOBS=%S (using 24)\n%!"
                s;
              24)
      | None -> 24
    in
    let counts = sustained_shard_counts () in
    let rows =
      List.map (fun n -> sustained_run ~cli ~shards:n ~jobs ~kill_one:false)
        counts
    in
    (* crash scenario at the widest fleet: same load, one shard killed *)
    let rows =
      match List.rev counts with
      | [] -> rows
      | widest :: _ ->
          rows @ [ sustained_run ~cli ~shards:widest ~jobs ~kill_one:true ]
    in
    let render r =
      [ string_of_int r.u_shards;
        string_of_int r.u_jobs;
        (if r.u_killed then "kill -9" else "-");
        Printf.sprintf "%.1f" r.u_throughput;
        Printf.sprintf "%.0f" r.u_p50_ms;
        Printf.sprintf "%.0f" r.u_p95_ms;
        Printf.sprintf "%.0f" r.u_p99_ms;
        Printf.sprintf "%d/%d" r.u_completed r.u_jobs;
        string_of_int r.u_restarts ]
    in
    print_endline
      (Report.table
         ~headers:
           [ "shards"; "jobs"; "fault"; "jobs/s"; "p50(ms)"; "p95(ms)";
             "p99(ms)"; "completed"; "restarts" ]
         ~align:
           [ Report.Right; Report.Right; Report.Left; Report.Right;
             Report.Right; Report.Right; Report.Right; Report.Right;
             Report.Right ]
         (List.map render rows));
    print_endline "";
    sustained_results := rows
  end;
  write_results ()

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
(* Thermal Pareto sweep: power vs worst-case thermal margin           *)
(* ------------------------------------------------------------------ *)

let thermal_bench () =
  print_endline
    "=== thermal: power vs worst-case thermal margin (synthetic hotspot maps) ===";
  let rows =
    List.map
      (fun spec ->
        let design = Gen.generate spec in
        let map =
          Operon_thermal.Thermal_map.synthetic ~hotspots:6 ~amplitude:25.0
            ~decay:0.15 ~die:design.Signal.die (Prng.create 1)
        in
        let hnets, ctx = Flow.prepare_with (Flow.Config.default params) design in
        let plain =
          Flow.select_with (Flow.Config.default params) design hnets ctx
        in
        (* The inert spec (no positive weight) must reproduce the plain
           selection exactly — the bit-identity contract of the mode. *)
        let inert =
          Flow.select_with
            (Flow.Config.with_thermal ~weights:[| 0.0 |] map
               (Flow.Config.default params))
            design hnets ctx
        in
        let swept =
          Flow.select_with
            (Flow.Config.with_thermal map (Flow.Config.default params))
            design hnets ctx
        in
        let tr = Option.get swept.Flow.thermal in
        let eval_ctx =
          Selection.with_thermal ctx (Selection.thermal_profile ctx map)
            ~weight:0.0
        in
        let base_margin = Selection.thermal_margin eval_ctx plain.Flow.choice in
        let best =
          List.fold_left
            (fun acc (p : Flow.thermal_point) ->
              match acc with
              | Some (b : Flow.thermal_point) when b.Flow.tp_margin >= p.Flow.tp_margin ->
                  acc
              | _ -> Some p)
            None tr.Flow.tr_front
        in
        let best_power, best_margin =
          match best with
          | Some p -> (p.Flow.tp_power, p.Flow.tp_margin)
          | None -> (plain.Flow.power, base_margin)
        in
        let nets, _, _ = Processing.stats hnets in
        { t_name = spec.Gen.name;
          t_nets = nets;
          t_map = Operon_thermal.Thermal_map.summary map;
          t_swept = tr.Flow.tr_swept;
          t_front = List.length tr.Flow.tr_front;
          t_dropped = tr.Flow.tr_dropped;
          t_sweep_s = tr.Flow.tr_seconds;
          t_base_power = plain.Flow.power;
          t_base_margin = base_margin;
          t_best_power = best_power;
          t_best_margin = best_margin;
          t_identical = inert.Flow.choice = plain.Flow.choice })
      [ Cases.i1; Cases.i2 ]
  in
  let render r =
    [ r.t_name; string_of_int r.t_nets;
      Printf.sprintf "%d/%d" r.t_front r.t_swept;
      Report.float_cell ~decimals:3 r.t_base_power;
      Report.float_cell ~decimals:3 r.t_base_margin;
      Report.float_cell ~decimals:3 r.t_best_power;
      Report.float_cell ~decimals:3 r.t_best_margin;
      Report.float_cell ~decimals:1 r.t_sweep_s;
      string_of_bool r.t_identical ]
  in
  print_endline
    (Report.table
       ~headers:
         [ "Bench"; "#Net"; "front"; "P(w=0)"; "margin(w=0)"; "P(best)";
           "margin(best)"; "sweep(s)"; "inert=plain" ]
       ~align:
         [ Report.Left; Report.Right; Report.Right; Report.Right; Report.Right;
           Report.Right; Report.Right; Report.Right; Report.Right ]
       (List.map render rows));
  print_endline "";
  thermal_results := rows;
  write_results ()

(* ------------------------------------------------------------------ *)

let () =
  let targets =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as rest) -> rest
    | _ ->
        [ "fig3b"; "fig5"; "table1"; "cache"; "serve"; "sustained"; "eco";
          "solver"; "scale"; "thermal"; "fig8"; "fig9"; "ablate"; "micro" ]
  in
  List.iter
    (fun t ->
      match String.lowercase_ascii t with
      | "table1" -> table1 ()
      | "cache" -> cache_bench ()
      | "serve" -> serve_bench ()
      | "sustained" -> sustained_bench ()
      | "eco" -> eco_bench ()
      | "solver" -> solver_bench ()
      | "scale" -> scale_bench ()
      | "thermal" -> thermal_bench ()
      | "fig3b" -> fig3b ()
      | "fig5" -> fig5 ()
      | "fig8" -> fig8 ()
      | "fig9" -> fig9 ()
      | "ablate" -> ablate ()
      | "micro" -> micro ()
      | other ->
          Printf.eprintf
            "unknown target %S (table1 cache serve sustained eco solver scale thermal fig3b fig5 fig8 fig9 ablate micro)\n"
            other;
          exit 2)
    targets
