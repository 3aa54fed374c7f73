(* Staged pipeline engine: Domain-pool executor semantics (order
   preservation, exception propagation), the Fanout combinator's merge
   and failure policy, and the headline determinism guarantee — a
   parallel run is bit-identical to a sequential one. *)

open Operon_util
open Operon_optical
open Operon
open Operon_benchgen
open Operon_engine

(* ------------------------------------------------------------------ *)
(* Executor unit tests                                                *)
(* ------------------------------------------------------------------ *)

let test_executor_jobs () =
  Alcotest.(check int) "sequential" 1 (Executor.jobs Executor.sequential);
  Alcotest.(check int) "jobs<=1 degrades" 1 (Executor.jobs (Executor.create ~jobs:1));
  Alcotest.(check int) "pool" 4 (Executor.jobs (Executor.create ~jobs:4));
  Alcotest.(check bool) "default jobs positive" true (Executor.default_jobs () > 0)

let test_executor_order () =
  let exec = Executor.create ~jobs:4 in
  let xs = Array.init 200 (fun i -> i) in
  (* Uneven task sizes so domains genuinely interleave. *)
  let f i =
    if i mod 7 = 0 then Unix.sleepf 0.002;
    (i * i) + 1
  in
  Alcotest.(check (array int)) "matches sequential map" (Array.map f xs)
    (Executor.parallel_map exec f xs)

let test_executor_mapi () =
  let exec = Executor.create ~jobs:3 in
  let xs = Array.init 50 (fun i -> 2 * i) in
  Alcotest.(check (array int)) "index-aware"
    (Array.mapi (fun i x -> i + x) xs)
    (Executor.parallel_mapi exec (fun i x -> i + x) xs)

let test_executor_empty_and_singleton () =
  let exec = Executor.create ~jobs:8 in
  Alcotest.(check (array int)) "empty" [||]
    (Executor.parallel_map exec (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 9 |]
    (Executor.parallel_map exec (fun x -> x * 3) [| 3 |]);
  Alcotest.(check (array int)) "more jobs than work" [| 2; 4 |]
    (Executor.parallel_map exec (fun x -> 2 * x) [| 1; 2 |])

let test_executor_exception_propagates () =
  let exec = Executor.create ~jobs:4 in
  let xs = Array.init 64 (fun i -> i) in
  Alcotest.check_raises "task failure re-raised" (Failure "boom at 37")
    (fun () ->
      ignore
        (Executor.parallel_map exec
           (fun i -> if i = 37 then failwith "boom at 37" else i)
           xs))

let test_executor_first_exception_wins () =
  (* Several tasks fail; the lowest input index must be reported no
     matter which domain hit its failure first. *)
  let exec = Executor.create ~jobs:4 in
  let xs = Array.init 64 (fun i -> i) in
  for _ = 1 to 5 do
    Alcotest.check_raises "lowest index deterministic" (Failure "fail 11")
      (fun () ->
        ignore
          (Executor.parallel_map exec
             (fun i ->
               if i = 11 then failwith "fail 11"
               else if i >= 40 then failwith (Printf.sprintf "fail %d" i)
               else i)
             xs))
  done

exception Deep_failure of int

(* Raised from a named helper so the surviving backtrace has a frame to
   point at. [@inline never] keeps flambda from erasing it. *)
let[@inline never] raise_deep i = raise (Deep_failure i)

let test_executor_backtrace_survives () =
  (* The worker captures the raw backtrace at the raise site; the
     coordinator must re-raise with that backtrace, not a fresh one. *)
  let was_recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace was_recording)
    (fun () ->
      let exec = Executor.create ~jobs:4 in
      let xs = Array.init 48 (fun i -> i) in
      match
        Executor.parallel_mapi exec
          (fun i () -> if i = 17 then raise_deep i else i)
          (Array.map (fun _ -> ()) xs)
      with
      | _ -> Alcotest.fail "expected Deep_failure"
      | exception Deep_failure i ->
          let bt = Printexc.get_backtrace () in
          Alcotest.(check int) "failing index" 17 i;
          Alcotest.(check bool) "backtrace non-empty" true
            (String.length (String.trim bt) > 0))

let test_try_parallel_mapi_partial_failure () =
  (* Per-item results: failures land as Error at their own index while
     every other item still yields Ok — on both backends. *)
  List.iter
    (fun (name, exec) ->
      let xs = Array.init 40 (fun i -> i) in
      let results =
        Executor.try_parallel_mapi exec
          (fun i x -> if i mod 13 = 5 then raise (Deep_failure i) else 2 * x)
          xs
      in
      Alcotest.(check int) (name ^ ": length") 40 (Array.length results);
      Array.iteri
        (fun i r ->
          match r with
          | Ok y ->
              Alcotest.(check bool) (name ^ ": no Ok at failing index") true
                (i mod 13 <> 5);
              Alcotest.(check int) (name ^ ": value") (2 * i) y
          | Error (Deep_failure j, _) ->
              Alcotest.(check int) (name ^ ": error index") i j;
              Alcotest.(check bool) (name ^ ": failing index") true
                (i mod 13 = 5)
          | Error (e, _) -> raise e)
        results)
    [ ("sequential", Executor.sequential); ("pool", Executor.create ~jobs:4) ]

let test_try_parallel_mapi_all_ok () =
  let exec = Executor.create ~jobs:3 in
  let xs = Array.init 25 (fun i -> i) in
  let results = Executor.try_parallel_mapi exec (fun i x -> i + x) xs in
  Alcotest.(check (array int)) "all Ok, in order"
    (Array.map (fun x -> 2 * x) xs)
    (Array.map (function Ok y -> y | Error (e, _) -> raise e) results)

let test_executor_batch_completes_after_failure () =
  (* A failing task must not abandon the rest of the batch: every other
     task still runs (exceptions are collected, then re-raised). *)
  let exec = Executor.create ~jobs:4 in
  let ran = Array.make 32 false in
  (try
     ignore
       (Executor.parallel_mapi exec
          (fun i () ->
            ran.(i) <- true;
            if i = 5 then failwith "early")
          (Array.make 32 ()))
   with Failure _ -> ());
  Alcotest.(check bool) "all tasks ran" true (Array.for_all (fun b -> b) ran)

(* ------------------------------------------------------------------ *)
(* Fanout combinator                                                  *)
(* ------------------------------------------------------------------ *)

let fanout_rc ?strict jobs = Runctx.create ~jobs ?strict ()

(* Parts 3 and 7 fail; every other part squares its input. *)
let failing_part i =
  if i = 3 || i = 7 then failwith (Printf.sprintf "part %d" i) else i * i

let run_failing rc =
  Fanout.map rc ~stage:Instrument.Wdm ~floor:(fun i -> -i) failing_part
    (Array.init 10 Fun.id)

let fault_summary rc =
  List.map
    (fun (f : Fault.t) ->
      (Instrument.stage_name f.Fault.stage, Fault.kind_name f.Fault.kind,
       f.Fault.detail))
    (Runctx.faults rc)

let test_fanout_part_order () =
  let rc = fanout_rc 4 in
  let parts = Array.init 50 Fun.id in
  let f i =
    if i mod 7 = 0 then Unix.sleepf 0.001;
    (i * i) + 1
  in
  Alcotest.(check (array int)) "merged in part order" (Array.map f parts)
    (Fanout.map rc ~stage:Instrument.Select ~floor:(fun _ -> -1) f parts);
  Alcotest.(check int) "clean fan-out records nothing" 0
    (List.length (Runctx.faults rc))

let test_fanout_failed_parts () =
  let rc = fanout_rc 1 in
  Alcotest.(check (array int)) "floor stands in for failed parts"
    [| 0; 1; 4; -3; 16; 25; 36; -7; 64; 81 |]
    (run_failing rc);
  let crash i =
    ("wdm", "crash", Printexc.to_string (Failure (Printf.sprintf "part %d" i)))
  in
  Alcotest.(check (list (triple string string string)))
    "faults recorded in part order, against the stage" [ crash 3; crash 7 ]
    (fault_summary rc);
  Alcotest.(check int) "one fallback per failed part" 2
    (Instrument.counter rc.Runctx.sink Instrument.Wdm "fallbacks");
  Alcotest.(check int) "faults counter" 2
    (Instrument.counter rc.Runctx.sink Instrument.Wdm "faults")

let test_fanout_strict () =
  List.iter
    (fun jobs ->
      let rc = fanout_rc ~strict:true jobs in
      match run_failing rc with
      | _ -> Alcotest.fail "a strict fan-out must raise"
      | exception Fault.Error f ->
          Alcotest.(check string) "lowest-index failure"
            (Printexc.to_string (Failure "part 3")) f.Fault.detail;
          Alcotest.(check bool) "stage" true (f.Fault.stage = Instrument.Wdm);
          Alcotest.(check int) "nothing recorded" 0
            (List.length (Runctx.faults rc)))
    [ 1; 4 ]

let test_fanout_one_part () =
  List.iter
    (fun strict ->
      let rc = fanout_rc ~strict 4 in
      Alcotest.check_raises "the exception itself propagates"
        (Failure "part 3") (fun () ->
          ignore
            (Fanout.map rc ~stage:Instrument.Assign ~floor:(fun _ -> 0)
               failing_part [| 3 |]));
      Alcotest.(check int) "no fault recorded" 0
        (List.length (Runctx.faults rc));
      Alcotest.(check int) "no fallback counted" 0
        (Instrument.counter rc.Runctx.sink Instrument.Assign "fallbacks"))
    [ false; true ]

let test_fanout_jobs_invariant () =
  let seq = fanout_rc 1 and par = fanout_rc 4 in
  Alcotest.(check (array int)) "results" (run_failing seq) (run_failing par);
  Alcotest.(check (list (triple string string string))) "fault log"
    (fault_summary seq) (fault_summary par);
  let counters rc =
    List.map
      (fun r ->
        (Instrument.stage_name r.Instrument.stage, Instrument.counters r))
      (Instrument.records rc.Runctx.sink)
  in
  Alcotest.(check (list (pair string (list (pair string int))))) "counters"
    (counters seq) (counters par)

(* ------------------------------------------------------------------ *)
(* Instrumentation sink                                               *)
(* ------------------------------------------------------------------ *)

let test_sink_accumulates () =
  let sink = Instrument.create () in
  Instrument.add_seconds sink Instrument.Codesign 0.25;
  Instrument.add_seconds sink Instrument.Codesign 0.5;
  Instrument.incr sink Instrument.Codesign "kept" 3;
  Instrument.incr sink Instrument.Codesign "kept" 4;
  Instrument.incr sink Instrument.Select "iterations" 2;
  Alcotest.(check (float 1e-9)) "seconds accumulate" 0.75
    (Instrument.seconds sink Instrument.Codesign);
  Alcotest.(check int) "counters accumulate" 7
    (Instrument.counter sink Instrument.Codesign "kept");
  Alcotest.(check int) "absent counter is 0" 0
    (Instrument.counter sink Instrument.Wdm "anything");
  Alcotest.(check int) "two stages recorded" 2
    (List.length (Instrument.records sink));
  let merged = Instrument.create () in
  Instrument.merge ~into:merged sink;
  Instrument.merge ~into:merged sink;
  Alcotest.(check int) "merge doubles" 14
    (Instrument.counter merged Instrument.Codesign "kept")

(* ------------------------------------------------------------------ *)
(* Sequential vs parallel flow determinism                            *)
(* ------------------------------------------------------------------ *)

let run_with exec design =
  let params = Params.default in
  Flow.synthesize (Flow.Config.make ~jobs:(Executor.jobs exec) params) design

let check_identical name design =
  let seq = run_with Executor.sequential design in
  let par = run_with (Executor.create ~jobs:4) design in
  Alcotest.(check (float 0.0)) (name ^ ": power bit-identical") seq.Flow.power
    par.Flow.power;
  Alcotest.(check (array int)) (name ^ ": choice identical") seq.Flow.choice
    par.Flow.choice;
  Alcotest.(check int) (name ^ ": initial WDMs")
    seq.Flow.assignment.Assign.initial_count par.Flow.assignment.Assign.initial_count;
  Alcotest.(check int) (name ^ ": final WDMs")
    seq.Flow.assignment.Assign.final_count par.Flow.assignment.Assign.final_count;
  Alcotest.(check (float 0.0)) (name ^ ": displacement bit-identical")
    seq.Flow.assignment.Assign.displacement_cost
    par.Flow.assignment.Assign.displacement_cost;
  Alcotest.(check bool) (name ^ ": per-connection flows identical") true
    (seq.Flow.assignment.Assign.flows = par.Flow.assignment.Assign.flows)

let test_flow_small_deterministic () =
  check_identical "small" (Cases.small ~seed:7 ())

let test_flow_tiny_deterministic () =
  check_identical "tiny" (Cases.tiny ~seed:3 ())

let test_synthesize_traces_all_stages () =
  let design = Cases.tiny () in
  let sink = Instrument.create () in
  let result =
    Flow.synthesize ~sink (Flow.Config.make ~jobs:2 Params.default) design
  in
  Alcotest.(check bool) "trace is the given sink" true (result.Flow.trace == sink);
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        (Instrument.stage_name stage ^ " recorded")
        true
        (List.exists
           (fun (r : Instrument.record) -> r.Instrument.stage = stage)
           (Instrument.records sink)))
    Instrument.all_stages;
  let nets, hn, _ = Processing.stats result.Flow.hnets in
  Alcotest.(check int) "nets counter" nets
    (Instrument.counter sink Instrument.Processing "nets");
  Alcotest.(check int) "hnets counter" hn
    (Instrument.counter sink Instrument.Processing "hnets");
  Alcotest.(check bool) "codesign kept >= hnets" true
    (Instrument.counter sink Instrument.Codesign "kept" >= hn)

let test_prepared_matches_run () =
  (* The staged entry point and the prepare/run_prepared split agree. *)
  let design = Cases.tiny () in
  let params = Params.default in
  let exec = Executor.create ~jobs:4 in
  let hnets, ctx = Flow.prepare_with (Flow.Config.make ~jobs:(Executor.jobs exec) params) design in
  let a = Flow.select_with (Flow.Config.default params) design hnets ctx in
  let b = run_with Executor.sequential design in
  Alcotest.(check (float 0.0)) "same power" b.Flow.power a.Flow.power;
  Alcotest.(check (array int)) "same choice" b.Flow.choice a.Flow.choice

let () =
  Alcotest.run "pipeline"
    [ ( "executor",
        [ Alcotest.test_case "jobs accessor" `Quick test_executor_jobs;
          Alcotest.test_case "order preserved" `Quick test_executor_order;
          Alcotest.test_case "mapi" `Quick test_executor_mapi;
          Alcotest.test_case "empty/singleton" `Quick test_executor_empty_and_singleton;
          Alcotest.test_case "exception propagates" `Quick
            test_executor_exception_propagates;
          Alcotest.test_case "first exception wins" `Quick
            test_executor_first_exception_wins;
          Alcotest.test_case "backtrace survives re-raise" `Quick
            test_executor_backtrace_survives;
          Alcotest.test_case "try_parallel_mapi partial failure" `Quick
            test_try_parallel_mapi_partial_failure;
          Alcotest.test_case "try_parallel_mapi all ok" `Quick
            test_try_parallel_mapi_all_ok;
          Alcotest.test_case "batch completes after failure" `Quick
            test_executor_batch_completes_after_failure ] );
      ( "fanout",
        [ Alcotest.test_case "part order" `Quick test_fanout_part_order;
          Alcotest.test_case "failed parts take the floor" `Quick
            test_fanout_failed_parts;
          Alcotest.test_case "strict raises lowest index" `Quick
            test_fanout_strict;
          Alcotest.test_case "one part propagates" `Quick test_fanout_one_part;
          Alcotest.test_case "jobs 1 = jobs 4" `Quick
            test_fanout_jobs_invariant ] );
      ( "instrument",
        [ Alcotest.test_case "sink accumulates" `Quick test_sink_accumulates ] );
      ( "determinism",
        [ Alcotest.test_case "small: jobs 4 = sequential" `Slow
            test_flow_small_deterministic;
          Alcotest.test_case "tiny: jobs 4 = sequential" `Quick
            test_flow_tiny_deterministic;
          Alcotest.test_case "synthesize traces all stages" `Quick
            test_synthesize_traces_all_stages;
          Alcotest.test_case "prepare/run_prepared agree" `Quick
            test_prepared_matches_run ] ) ]
