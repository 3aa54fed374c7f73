(* One benchmark run of one workload: set up, warm up with one pass, then
   measure passes over the workload's cases until the time is up, checking
   every op outside the timed region.

   Untraced ([trace = false]) a run reports the end-to-end metrics. A
   traced run alternates an untraced pass with a traced replay of the
   same cases and reports the per-layer metrics, medians over its traced
   passes; the replay must reproduce the untraced op exactly. *)

open Operon
open Operon_util

type row = { case : string; metric : string; value : float; unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  rows : row list;  (** per-case detail plus every metric, for the ledger *)
  spans : Span.t list;  (** the first traced pass, empty when untraced *)
}

let e2e_units =
  [ ("synth_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("power_pj", "pJ/bit");
    ("wdm_tracks", "count");
    ("signoff_violations", "count") ]

(* Set-up is repeated and its median reported, so that a single slow
   start does not read as a regression: [setup_min_reps] times before the
   first pass, then, while all repetitions together stay under
   [setup_share] of the run, [setup_per_pass] more before each pass.
   Generation takes milliseconds, and its time at the start of a process
   differs from later by up to half, so the median must sample the whole
   run, not its first few milliseconds; the ILP workload's preparations
   take seconds and keep only the first repetitions. *)
let setup_min_reps = 3
let setup_per_pass = 3
let setup_share = 0.1

let median xs = Stats.median (Array.of_list xs)

(* High-water resident set of this process, MB. *)
let peak_rss_mb () =
  let from_status =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | text ->
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] ->
                Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                    float_of_int kb /. 1024.0)
            | _ -> None)
          (String.split_on_char '\n' text)
    | exception Sys_error _ -> None
  in
  match from_status with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

let run (w : Workload.t) ~setup ~seconds ~trace =
  (* Earlier set-ups are dropped and collected before the next one, so
     the peak resident set holds one copy of the inputs. *)
  let setup_times = ref [] in
  let timed_setup () =
    Gc.full_major ();
    let c, dt = Timer.time setup in
    setup_times := dt :: !setup_times;
    c
  in
  let setup_total () = List.fold_left ( +. ) 0.0 !setup_times in
  let cases = ref [||] in
  for _ = 1 to setup_min_reps do
    cases := [||];
    cases := Array.of_list (timed_setup ())
  done;
  let cases = !cases in
  let path = Workload.engine_path w in
  let n = Array.length cases in
  let attempted = ref 0 and failed = ref 0 in
  let fail (c : Workload.case) errs =
    incr failed;
    List.iter
      (fun e -> Printf.eprintf "ledger: %s %s: %s\n%!" w.Workload.name c.Workload.label e)
      errs
  in
  let reference = Array.make n None in
  let quality = Array.make n (0.0, 0, 0) in
  let op_times = Array.make n [] in
  let passes = ref [] in
  let untraced_pass () =
    let total = ref 0.0 in
    let flows =
      Array.mapi
        (fun k c ->
          (* Each op starts from a collected heap: its time and the
             resident peak then do not depend on the garbage of the ops
             before it. *)
          Gc.full_major ();
          let f, dt = Timer.time (fun () -> Workload.op w c) in
          total := !total +. dt;
          op_times.(k) <- dt :: op_times.(k);
          incr attempted;
          let errs = Check.run ~path ?reference:reference.(k) f in
          if errs <> [] then fail c errs;
          if reference.(k) = None then begin
            reference.(k) <- Some (Check.fingerprint f);
            if not trace then begin
              let ctx = f.Flow.ctx in
              let s =
                Signoff.run ctx.Selection.params ctx f.Flow.choice
                  f.Flow.placement f.Flow.assignment
              in
              quality.(k) <-
                ( f.Flow.power,
                  f.Flow.assignment.Assign.final_count,
                  s.Signoff.violations )
            end
          end;
          f)
        cases
    in
    passes := !total :: !passes;
    flows
  in
  let traced = ref [] and first_spans = ref [] in
  let traced_pass (flows : Flow.t array) =
    let r = Span.recorder () in
    let op_total = ref 0.0 in
    Array.iteri
      (fun k c ->
        incr attempted;
        Gc.full_major ();
        let o = Replay.run r w c in
        op_total := !op_total +. o.Replay.op_seconds;
        let f = flows.(k) in
        if
          not
            (o.Replay.choice = f.Flow.choice
            && Check.same_float o.Replay.power f.Flow.power
            && o.Replay.tracks_final = f.Flow.assignment.Assign.final_count)
        then fail c [ "traced replay differs from the untraced op" ];
        Span.record r "check" (fun () -> (ignore (Check.run ~path f), []));
        Span.record r "signoff" (fun () ->
            let ctx = f.Flow.ctx in
            let s =
              Signoff.run ctx.Selection.params ctx f.Flow.choice
                f.Flow.placement f.Flow.assignment
            in
            ((), [ ("paths", s.Signoff.paths_checked) ])))
      cases;
    let spans = Span.roots r in
    if !traced = [] then first_spans := spans;
    traced := (Layers.of_spans spans, !op_total) :: !traced
  in
  (* A warm-up pass, checked but not timed: the first pass of a process
     runs ~5% slower than the later ones. *)
  ignore (untraced_pass ());
  passes := [];
  Array.fill op_times 0 n [];
  let deadline = Timer.now () +. seconds in
  let rec loop () =
    if (not trace) && setup_total () < setup_share *. seconds then
      for _ = 1 to setup_per_pass do
        ignore (timed_setup ())
      done;
    let t0 = Timer.now () in
    let flows = untraced_pass () in
    if trace then traced_pass flows;
    let took = Timer.now () -. t0 in
    if Timer.now () +. took < deadline then loop ()
  in
  loop ();
  let passes = List.rev !passes in
  let all_row metric value unit = { case = "all"; metric; value; unit } in
  let metrics, rows =
    if not trace then begin
      let sum f = Array.fold_left (fun acc q -> acc +. f q) 0.0 quality in
      let values =
        [ ("synth_s", median passes);
          ("setup_s", median !setup_times);
          ("peak_rss_mb", peak_rss_mb ());
          ("power_pj", sum (fun (p, _, _) -> p));
          ("wdm_tracks", sum (fun (_, t, _) -> float_of_int t));
          ("signoff_violations", sum (fun (_, _, v) -> float_of_int v)) ]
      in
      let metrics =
        List.map (fun (name, v) -> (name, v, List.assoc name e2e_units)) values
      in
      let arr = Array.of_list passes in
      let per_case =
        List.concat
          (List.mapi
             (fun k (c : Workload.case) ->
               let p, t, v = quality.(k) in
               let row metric value unit =
                 { case = c.Workload.label; metric; value; unit }
               in
               [ row "op_s" (median op_times.(k)) "s";
                 row "power_pj" p "pJ/bit";
                 row "wdm_tracks" (float_of_int t) "count";
                 row "signoff_violations" (float_of_int v) "count" ])
             (Array.to_list cases))
      in
      ( metrics,
        per_case
        @ [ all_row "synth_s.p25" (Stats.percentile arr 25.0) "s";
            all_row "synth_s.p75" (Stats.percentile arr 75.0) "s";
            all_row "synth_s.n" (float_of_int (Array.length arr)) "count" ]
        @ List.map (fun (name, v, unit) -> all_row name v unit) metrics )
    end
    else begin
      let traced = List.rev !traced in
      let layer_values =
        List.mapi
          (fun i (name, unit, src) ->
            let vs = List.map (fun (values, _) -> snd (List.nth values i)) traced in
            let first = List.hd vs in
            if not (Layers.is_count src) then (name, median vs, unit)
            else begin
              (* Counts must repeat exactly from pass to pass. *)
              if List.exists (fun v -> v <> first) vs then
                fail cases.(0) [ Printf.sprintf "count %s differs between passes" name ];
              (name, first, unit)
            end)
          Layers.table
      in
      let overhead =
        (median (List.map snd traced) /. median passes) -. 1.0
      in
      let metrics = layer_values @ [ (fst Layers.overhead, overhead, snd Layers.overhead) ] in
      (metrics, List.map (fun (name, v, unit) -> all_row name v unit) metrics)
    end
  in
  { correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    metrics;
    rows;
    spans = !first_spans }

(* JSON numbers: integral values without a fraction, everything else with
   all 17 significant digits. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let row_json ~workload r =
  let layer =
    match String.index_opt r.metric '.' with
    | Some i when not (List.mem_assoc (String.sub r.metric 0 i) e2e_units) ->
        String.sub r.metric 0 i
    | _ -> "e2e"
  in
  Printf.sprintf
    "{\"workload\":%S,\"case\":%S,\"layer\":%S,\"metric\":%S,\"value\":%s,\"unit\":%S}"
    workload r.case layer r.metric (json_number r.value) r.unit

(* The result line: exactly [correct], [attempted], [failed], [metrics]. *)
let result_json r =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    r.correct r.attempted r.failed
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_number v) unit)
          r.metrics))
