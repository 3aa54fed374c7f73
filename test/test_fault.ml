(* Fault-tolerance layer: injection-spec parsing, per-net quarantine
   with bit-identical healthy nets (sequential and parallel), the
   selection fallback chain, strict fail-fast, solver budgets and the
   structured Channels capacity error. *)

open Operon_optical
open Operon
open Operon_benchgen
open Operon_engine

(* ------------------------------------------------------------------ *)
(* Injection-spec parsing                                              *)
(* ------------------------------------------------------------------ *)

let test_injection_parsing () =
  (match Fault.injection_of_string "codesign:3:injected" with
   | Ok inj ->
       Alcotest.(check bool) "stage" true (inj.Fault.inj_stage = Instrument.Codesign);
       Alcotest.(check bool) "net" true (inj.Fault.inj_net = Some 3);
       Alcotest.(check bool) "kind" true (inj.Fault.inj_kind = Fault.Injected)
   | Error msg -> Alcotest.fail msg);
  (match Fault.injection_of_string "select:*:budget" with
   | Ok inj ->
       Alcotest.(check bool) "wildcard net" true (inj.Fault.inj_net = None);
       Alcotest.(check bool) "budget kind" true (inj.Fault.inj_kind = Fault.Budget)
   | Error msg -> Alcotest.fail msg);
  let bad spec =
    match Fault.injection_of_string spec with
    | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S should not parse" spec)
    | Error msg ->
        Alcotest.(check bool) (spec ^ ": diagnostic non-empty") true
          (String.length msg > 0)
  in
  bad "nosuchstage:1:injected";
  bad "codesign:-2:injected";
  bad "codesign:x:injected";
  bad "codesign:1:nosuchkind";
  bad "codesign:1";
  bad "justonefield";
  (* Well-formed, but no injection site is ever checked there. *)
  bad "wdm:*:crash";
  bad "assign:*:crash";
  bad "partition:*:crash";
  bad "select:3:budget"

let test_injections_list_parsing () =
  (match Fault.injections_of_string "codesign:1:injected, select:*:budget" with
   | Ok [ a; b ] ->
       Alcotest.(check bool) "first" true (a.Fault.inj_stage = Instrument.Codesign);
       Alcotest.(check bool) "second" true (b.Fault.inj_stage = Instrument.Select)
   | Ok _ -> Alcotest.fail "expected two injections"
   | Error msg -> Alcotest.fail msg);
  (match Fault.injections_of_string "" with
   | Ok [] -> ()
   | _ -> Alcotest.fail "empty spec must parse to no injections");
  match Fault.injections_of_string "codesign:1:injected,bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bad spec must fail the whole list"

let test_lenient_list_parsing () =
  (* Env-var policy: keep the well-formed specs, return each bad token
     with its diagnostic (the CLI warns by name on stderr). *)
  let oks, bads =
    Fault.injections_of_string_lenient
      "select:*:budget, bogus, codesign:3:crash, wdm:droids"
  in
  (match oks with
   | [ a; b ] ->
       Alcotest.(check bool) "first kept" true
         (a.Fault.inj_stage = Instrument.Select && a.Fault.inj_kind = Fault.Budget);
       Alcotest.(check bool) "second kept" true
         (b.Fault.inj_stage = Instrument.Codesign && b.Fault.inj_net = Some 3)
   | _ -> Alcotest.fail "expected exactly the two well-formed specs kept");
  (match bads with
   | [ (t1, m1); (t2, m2) ] ->
       Alcotest.(check string) "first bad token" "bogus" t1;
       Alcotest.(check string) "second bad token" "wdm:droids" t2;
       Alcotest.(check bool) "diagnostics non-empty" true
         (String.length m1 > 0 && String.length m2 > 0)
   | _ -> Alcotest.fail "expected exactly the two malformed tokens reported");
  (* Degenerate inputs. *)
  Alcotest.(check bool) "empty string" true
    (Fault.injections_of_string_lenient "" = ([], []));
  Alcotest.(check bool) "separators only" true
    (Fault.injections_of_string_lenient " , ," = ([], []));
  match Fault.injections_of_string_lenient "allbad" with
  | [], [ ("allbad", _) ] -> ()
  | _ -> Alcotest.fail "all-bad input keeps nothing and reports the token"

let test_injection_matching () =
  let injections =
    match Fault.injections_of_string "codesign:1:injected,select:*:budget" with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  let matches stage net =
    Fault.injection_matching injections ~stage ~net <> None
  in
  Alcotest.(check bool) "codesign net 1" true
    (matches Instrument.Codesign (Some 1));
  Alcotest.(check bool) "codesign net 2" false
    (matches Instrument.Codesign (Some 2));
  Alcotest.(check bool) "wildcard matches any net" true
    (matches Instrument.Select (Some 7));
  Alcotest.(check bool) "wildcard matches no net" true
    (matches Instrument.Select None);
  Alcotest.(check bool) "unlisted stage" false
    (matches Instrument.Wdm (Some 1))

(* ------------------------------------------------------------------ *)
(* Quarantine: one injected per-net fault, healthy nets bit-identical  *)
(* ------------------------------------------------------------------ *)

let run_tiny ?(strict = false) ?(injections = "") ~jobs () =
  let design = Cases.tiny ~seed:3 () in
  let injections =
    match Fault.injections_of_string injections with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  Flow.synthesize
    (Flow.Config.make ~jobs ~strict ~injections Params.default)
    design

let test_quarantine_codesign_fault () =
  let clean = run_tiny ~jobs:1 () in
  let faulted = run_tiny ~injections:"codesign:1:injected" ~jobs:1 () in
  Alcotest.(check (array int)) "exactly net 1 quarantined" [| 1 |]
    faulted.Flow.quarantined_nets;
  Alcotest.(check int) "one fault recorded" 1 (List.length faulted.Flow.faults);
  (match faulted.Flow.faults with
   | [ f ] ->
       Alcotest.(check bool) "fault stage" true (f.Fault.stage = Instrument.Codesign);
       Alcotest.(check bool) "fault net" true (f.Fault.net = Some 1);
       Alcotest.(check bool) "fault kind" true (f.Fault.kind = Fault.Injected)
   | _ -> Alcotest.fail "expected one fault");
  (* The quarantined net carries exactly the all-electrical fallback. *)
  let cands = faulted.Flow.ctx.Selection.cands.(1) in
  Alcotest.(check int) "fallback candidate list" 1 (Array.length cands);
  Alcotest.(check bool) "fallback is pure electrical" true
    cands.(0).Candidate.pure_electrical;
  Alcotest.(check int) "fallback selected" 0 faulted.Flow.choice.(1);
  (* Every healthy net's selection is bit-identical to the clean run. *)
  Alcotest.(check int) "same net count"
    (Array.length clean.Flow.choice) (Array.length faulted.Flow.choice);
  Array.iteri
    (fun i c ->
      if i <> 1 then
        Alcotest.(check int) (Printf.sprintf "net %d choice unchanged" i) c
          faulted.Flow.choice.(i))
    clean.Flow.choice;
  (* And the degradation summary/export both report it. *)
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  let json = Export.degradation_to_json faulted in
  Alcotest.(check bool) "export has quarantined net" true
    (contains json {|"quarantined_nets":[1]|});
  Alcotest.(check bool) "export has solver path" true
    (contains json {|"solver_path":"lr"|});
  match Report.degradation_summary faulted with
  | Some summary ->
      Alcotest.(check bool) "summary mentions codesign/net1" true
        (contains summary "codesign/net1")
  | None -> Alcotest.fail "degraded run must produce a summary"

let test_quarantine_parallel_identical () =
  let seq = run_tiny ~injections:"codesign:1:injected" ~jobs:1 () in
  let par = run_tiny ~injections:"codesign:1:injected" ~jobs:4 () in
  Alcotest.(check (float 0.0)) "power bit-identical" seq.Flow.power par.Flow.power;
  Alcotest.(check (array int)) "choice identical" seq.Flow.choice par.Flow.choice;
  Alcotest.(check (array int)) "quarantine identical" seq.Flow.quarantined_nets
    par.Flow.quarantined_nets;
  Alcotest.(check int) "fault count identical" (List.length seq.Flow.faults)
    (List.length par.Flow.faults);
  Alcotest.(check bool) "flows identical" true
    (seq.Flow.assignment.Assign.flows = par.Flow.assignment.Assign.flows)

let test_baselines_fault_quarantines () =
  (* A baselines fault must carry through: the net skips the co-design DP
     entirely and lands on the electrical fallback. *)
  let faulted = run_tiny ~injections:"baselines:2:crash" ~jobs:1 () in
  Alcotest.(check (array int)) "net 2 quarantined" [| 2 |]
    faulted.Flow.quarantined_nets;
  let cands = faulted.Flow.ctx.Selection.cands.(2) in
  Alcotest.(check int) "single fallback candidate" 1 (Array.length cands);
  Alcotest.(check bool) "pure electrical" true
    cands.(0).Candidate.pure_electrical

(* Baseline faults on every third net of I3 (59 of 176): each injected
   net is quarantined, in net order, and routed on exactly its
   all-electrical fallback; the codesign stage reads each net's outcome
   from the baselines stage rather than searching the quarantine list.
   One and four workers give the same export. *)
let test_many_baselines_faults () =
  let design = Gen.generate Cases.i3 in
  let ids = List.init 59 (fun k -> 3 * k) in
  let injections =
    match
      Fault.injections_of_string
        (String.concat ","
           (List.map (fun i -> Printf.sprintf "baselines:%d:crash" i) ids))
    with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  let run jobs =
    Flow.synthesize (Flow.Config.make ~jobs ~injections Params.default) design
  in
  let r = run 1 in
  Alcotest.(check int) "I3 hyper nets" 176 (Array.length r.Flow.hnets);
  Alcotest.(check (array int)) "every injected net quarantined"
    (Array.of_list ids) r.Flow.quarantined_nets;
  Alcotest.(check int) "one baselines fault per injected net" 59
    (List.length
       (List.filter
          (fun (f : Fault.t) -> f.Fault.stage = Instrument.Baselines)
          r.Flow.faults));
  let params = r.Flow.ctx.Selection.params in
  List.iter
    (fun i ->
      let label what = Printf.sprintf "net %d: %s" i what in
      Alcotest.(check bool) (label "only its electrical fallback") true
        (r.Flow.ctx.Selection.cands.(i)
        = Array.of_list (Codesign.electrical_only params r.Flow.hnets.(i)));
      Alcotest.(check int) (label "fallback selected") 0 r.Flow.choice.(i))
    ids;
  Alcotest.(check string) "jobs 1 = jobs 4"
    (Export.flow_to_json ~timings:false r)
    (Export.flow_to_json ~timings:false (run 4))

let test_strict_fails_fast () =
  (try
     ignore (run_tiny ~strict:true ~injections:"codesign:1:injected" ~jobs:1 ());
     Alcotest.fail "strict run must raise"
   with Fault.Error f ->
     Alcotest.(check bool) "stage" true (f.Fault.stage = Instrument.Codesign);
     Alcotest.(check bool) "net" true (f.Fault.net = Some 1));
  (* Strict + parallel: the pool variant must fail too, deterministically. *)
  try
    ignore (run_tiny ~strict:true ~injections:"codesign:1:injected" ~jobs:4 ());
    Alcotest.fail "strict parallel run must raise"
  with Fault.Error f ->
    Alcotest.(check bool) "parallel stage" true (f.Fault.stage = Instrument.Codesign)

(* ------------------------------------------------------------------ *)
(* Selection fallback chain                                            *)
(* ------------------------------------------------------------------ *)

let test_select_fallback_chain_lr () =
  let r = run_tiny ~injections:"select:*:budget" ~jobs:1 () in
  Alcotest.(check string) "lr falls back to greedy" "lr->greedy" r.Flow.solver_path;
  Alcotest.(check bool) "no quarantine from select faults" true
    (Array.length r.Flow.quarantined_nets = 0);
  Alcotest.(check bool) "selection still feasible" true
    (Selection.feasible r.Flow.ctx r.Flow.choice)

let test_select_fallback_chain_ilp () =
  let design = Cases.tiny ~seed:3 () in
  let injections =
    match Fault.injections_of_string "select:*:budget" with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  let r =
    Flow.synthesize
      (Flow.Config.make ~mode:Flow.Ilp ~injections Params.default)
      design
  in
  Alcotest.(check string) "ilp walks the whole chain" "ilp->lr->greedy"
    r.Flow.solver_path;
  Alcotest.(check bool) "still feasible" true
    (Selection.feasible r.Flow.ctx r.Flow.choice)

let test_clean_run_reports_nothing () =
  let r = run_tiny ~jobs:1 () in
  Alcotest.(check int) "no faults" 0 (List.length r.Flow.faults);
  Alcotest.(check int) "no quarantine" 0 (Array.length r.Flow.quarantined_nets);
  Alcotest.(check string) "direct solver path" "lr" r.Flow.solver_path;
  match Report.degradation_summary r with
  | None -> ()
  | Some s -> Alcotest.fail ("clean run produced a summary: " ^ s)

(* ------------------------------------------------------------------ *)
(* Solver budgets                                                      *)
(* ------------------------------------------------------------------ *)

let make_ctx () =
  let design = Cases.tiny ~seed:3 () in
  let _, ctx = Flow.prepare_with (Flow.Config.default Params.default) design in
  ctx

let test_lr_wallclock_budget () =
  let ctx = make_ctx () in
  (* An already-expired budget stops the subgradient loop immediately;
     the greedy + repair base selection must still be feasible. *)
  let r = Lr_select.select ~budget_seconds:1e-9 ctx in
  Alcotest.(check int) "no iterations under expired budget" 0
    r.Lr_select.iterations;
  Alcotest.(check bool) "feasible anyway" true
    (Selection.feasible ctx r.Lr_select.choice)

let test_ilp_pivot_budget () =
  let ctx = make_ctx () in
  (* Starving the simplex of pivots must degrade (never crash, never
     claim proven optimality) and still return a feasible incumbent. *)
  let starved = Ilp_select.select ~max_pivots:1 ctx in
  Alcotest.(check bool) "feasible under pivot starvation" true
    (Selection.feasible ctx starved.Ilp_select.choice);
  Alcotest.(check bool) "not proven optimal" true
    (not starved.Ilp_select.proven || starved.Ilp_select.nodes = 0);
  let free = Ilp_select.select ctx in
  Alcotest.(check bool) "starved power no better than exact" true
    (starved.Ilp_select.power >= free.Ilp_select.power -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Channels.Capacity_error                                             *)
(* ------------------------------------------------------------------ *)

let seg x0 y0 x1 y1 =
  Operon_geom.Segment.make
    (Operon_geom.Point.make x0 y0)
    (Operon_geom.Point.make x1 y1)

let conn id net s bits = { Wdm.id; net; seg = s; bits }

let test_capacity_error_unknown_track () =
  let params = Params.default in
  let conns = [| conn 0 0 (seg 0.0 1.0 3.0 1.0) 4 |] in
  let placement = Wdm_place.place params conns in
  let result = Assign.run params placement in
  let broken =
    { result with Assign.flows = [| [ (99, 4) ] |] }
  in
  try
    ignore (Channels.assign params conns broken);
    Alcotest.fail "expected Capacity_error"
  with Channels.Capacity_error { track; demand; detail } ->
    Alcotest.(check int) "offending track" 99 track;
    Alcotest.(check int) "demand" 4 demand;
    Alcotest.(check bool) "detail non-empty" true (String.length detail > 0)

let test_capacity_error_overflow () =
  let params = Params.default in
  let over = params.Params.wdm_capacity + 1 in
  let conns = [| conn 0 0 (seg 0.0 1.0 3.0 1.0) 4 |] in
  let placement = Wdm_place.place params conns in
  let result = Assign.run params placement in
  (* Overstate the demand of the only flow so the colouring sweep runs
     out of channels on track 0. *)
  let overloaded =
    { result with
      Assign.flows = Array.map (fun _ -> [ (0, over) ]) result.Assign.flows }
  in
  try
    ignore (Channels.assign params conns overloaded);
    Alcotest.fail "expected Capacity_error"
  with Channels.Capacity_error { track; demand; _ } ->
    Alcotest.(check int) "offending track" 0 track;
    Alcotest.(check int) "demand is the overflow request" over demand

let () =
  Alcotest.run "fault"
    [ ( "injection",
        [ Alcotest.test_case "spec parsing" `Quick test_injection_parsing;
          Alcotest.test_case "list parsing" `Quick test_injections_list_parsing;
          Alcotest.test_case "lenient env-var parsing" `Quick
            test_lenient_list_parsing;
          Alcotest.test_case "matching" `Quick test_injection_matching ] );
      ( "quarantine",
        [ Alcotest.test_case "codesign fault quarantines one net" `Quick
            test_quarantine_codesign_fault;
          Alcotest.test_case "jobs 4 = sequential under faults" `Quick
            test_quarantine_parallel_identical;
          Alcotest.test_case "baselines fault quarantines" `Quick
            test_baselines_fault_quarantines;
          Alcotest.test_case "many baselines faults stay electrical" `Quick
            test_many_baselines_faults;
          Alcotest.test_case "strict fails fast" `Quick test_strict_fails_fast;
          Alcotest.test_case "clean run reports nothing" `Quick
            test_clean_run_reports_nothing ] );
      ( "fallback-chain",
        [ Alcotest.test_case "lr -> greedy" `Quick test_select_fallback_chain_lr;
          Alcotest.test_case "ilp -> lr -> greedy" `Quick
            test_select_fallback_chain_ilp ] );
      ( "budgets",
        [ Alcotest.test_case "lr wall-clock budget" `Quick test_lr_wallclock_budget;
          Alcotest.test_case "ilp pivot budget" `Quick test_ilp_pivot_budget ] );
      ( "channels",
        [ Alcotest.test_case "unknown track" `Quick test_capacity_error_unknown_track;
          Alcotest.test_case "capacity overflow" `Quick test_capacity_error_overflow ] ) ]
