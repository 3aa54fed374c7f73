(* Incremental ECO re-synthesis: design-diff classification (QCheck),
   byte parity of ECO re-preparation against cold runs, warm-started
   selection parity, registry LRU capacity, the resubmit protocol op,
   and the incremental track-retirement rewrite of Assign. *)

open Operon_geom
open Operon_optical
open Operon_flow
open Operon
open Operon_benchgen
open Operon_service

let params = Params.default

let config ?(jobs = 1) () = Flow.Config.make ~jobs params

let export flow = Export.flow_to_json ~timings:false flow

(* ------------------------------------------------------------------ *)
(* Design_diff                                                        *)
(* ------------------------------------------------------------------ *)

let diff_against (prev : Flow.prepared) (cur : Flow.prepared) =
  Design_diff.diff ~neighbors:prev.Flow.p_ctx.Selection.neighbors
    prev.Flow.p_hnets cur.Flow.p_hnets

let test_identity_diff () =
  List.iter
    (fun design ->
      let prev = Flow.prepare (config ()) design in
      let d = diff_against prev prev in
      Alcotest.(check bool) "compatible" true d.Design_diff.compatible;
      Alcotest.(check int) "closure empty" 0 (Design_diff.closure_size d);
      Array.iter
        (fun s ->
          Alcotest.(check string) "all clean" "clean"
            (Design_diff.status_name s))
        d.Design_diff.status)
    [ Cases.tiny (); Cases.small () ]

(* The diff invariants every mutation must satisfy: changed content keys
   are Dirty, the previous interaction neighbourhood of every non-clean
   net is inside the recomputation closure, and the classification is
   independent of the preparing executor's worker count. *)
let prop_diff_classification =
  let design = Cases.small () in
  let prev1 = Flow.prepare (config ~jobs:1 ()) design in
  let prev4 = Flow.prepare (config ~jobs:4 ()) design in
  QCheck.Test.make ~name:"mutated nets dirty, neighbours in closure" ~count:6
    QCheck.(pair (int_range 1 1000) (int_range 1 3))
    (fun (seed, r) ->
      let ratio = float_of_int r /. 10.0 in
      let revised = Mutate.design ~ratio ~seed design in
      let cur1 = Flow.prepare (config ~jobs:1 ()) revised in
      let cur4 = Flow.prepare (config ~jobs:4 ()) revised in
      let d1 = diff_against prev1 cur1 in
      let d4 = diff_against prev4 cur4 in
      if not d1.Design_diff.compatible then
        QCheck.Test.fail_report "diff incompatible on same-shape designs";
      (* jobs-independence: the classification is bit-identical. *)
      if d1.Design_diff.status <> d4.Design_diff.status then
        QCheck.Test.fail_report "diff depends on the worker count";
      let n = Array.length d1.Design_diff.status in
      for i = 0 to n - 1 do
        let key_changed =
          Design_diff.hnet_key prev1.Flow.p_hnets.(i)
          <> Design_diff.hnet_key cur1.Flow.p_hnets.(i)
        in
        (match (key_changed, d1.Design_diff.status.(i)) with
         | true, Design_diff.Dirty -> ()
         | true, s ->
             QCheck.Test.fail_reportf
               "net %d changed content but is %s, not dirty" i
               (Design_diff.status_name s)
         | false, Design_diff.Dirty ->
             QCheck.Test.fail_reportf "net %d unchanged but marked dirty" i
         | false, _ -> ());
        (* closure = everything not clean *)
        let expect_in_closure =
          d1.Design_diff.status.(i) <> Design_diff.Clean
        in
        if d1.Design_diff.closure.(i) <> expect_in_closure then
          QCheck.Test.fail_reportf "closure mismatch on net %d" i;
        (* the previous neighbourhood of a dirty net is interaction-dirty *)
        if d1.Design_diff.status.(i) = Design_diff.Dirty then
          Array.iter
            (fun j ->
              if not d1.Design_diff.closure.(j) then
                QCheck.Test.fail_reportf
                  "net %d neighbours dirty net %d but is outside the closure"
                  j i)
            prev1.Flow.p_ctx.Selection.neighbors.(i)
      done;
      true)

(* ------------------------------------------------------------------ *)
(* ECO re-preparation byte parity                                     *)
(* ------------------------------------------------------------------ *)

let test_eco_byte_parity () =
  List.iter
    (fun (name, design) ->
      let cfg = config () in
      let prev = Flow.prepare cfg design in
      let revised = Mutate.design ~ratio:0.1 ~seed:7 design in
      let cold = Flow.select_prepared cfg (Flow.prepare cfg revised) in
      let eco_p = Flow.prepare_eco ~prev:(Lazy.from_val prev) cfg revised in
      let eco = Flow.select_prepared cfg eco_p in
      Alcotest.(check string)
        (name ^ ": eco export byte-identical to cold")
        (export cold) (export eco);
      let e =
        match eco_p.Flow.p_eco with
        | Some e -> e
        | None -> Alcotest.fail "prepare_eco returned no eco stats"
      in
      Alcotest.(check bool) (name ^ ": incremental path taken") false
        e.Flow.cold_fallback;
      Alcotest.(check bool)
        (name ^ ": recomputation bounded by the dirty closure") true
        (e.Flow.nets_recomputed <= e.Flow.dirty_closure);
      Alcotest.(check int)
        (name ^ ": reused + recomputed covers every net")
        (Array.length eco_p.Flow.p_hnets)
        (e.Flow.nets_reused + e.Flow.nets_recomputed);
      (* The export cannot tell a carried-over Xmatrix row from a rebuilt
         one, so check that rows were carried: a kept pair carries both
         of its directed rows. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: crossing-matrix rows reused in pairs (%d)" name
           e.Flow.xrows_reused)
        true
        (e.Flow.xrows_reused > 0 && e.Flow.xrows_reused mod 2 = 0))
    [ ("tiny", Cases.tiny ()); ("small", Cases.small ()) ]

let test_eco_cold_fallback () =
  let design = Cases.tiny () in
  let cfg = config () in
  let prev = Flow.prepare cfg design in
  let revised = Mutate.design ~ratio:0.2 ~seed:3 design in
  (* A preparation-relevant config change cannot reuse anything. *)
  let cfg2 = Flow.Config.make ~max_cands_per_net:6 params in
  let eco_p = Flow.prepare_eco ~prev:(Lazy.from_val prev) cfg2 revised in
  (match eco_p.Flow.p_eco with
   | Some e ->
       Alcotest.(check bool) "fell back to cold" true e.Flow.cold_fallback;
       Alcotest.(check int) "recomputed everything"
         (Array.length eco_p.Flow.p_hnets)
         e.Flow.nets_recomputed
   | None -> Alcotest.fail "expected eco stats on the fallback path");
  let cold = Flow.select_prepared cfg2 (Flow.prepare cfg2 revised) in
  let eco = Flow.select_prepared cfg2 eco_p in
  Alcotest.(check string) "fallback still byte-identical" (export cold)
    (export eco)

(* A preparation's faults travel with the prepared value: an ECO
   re-preparation under an injected co-design crash falls back to the
   cold path, and selecting on it reports the crash and the quarantined
   net as the cold run does, counted once in the shared sink. *)
let test_eco_reports_preparation_faults () =
  let design = Cases.small () in
  let injections =
    match Operon_engine.Fault.injections_of_string "codesign:3:crash" with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  let cfg = Flow.Config.make ~injections params in
  let cold = Flow.synthesize cfg design in
  let prev = Flow.prepare cfg design in
  let sink = Operon_engine.Instrument.create () in
  let eco =
    Flow.select_prepared ~sink cfg
      (Flow.prepare_eco ~sink ~prev:(Lazy.from_val prev) cfg design)
  in
  Alcotest.(check (array int)) "net 3 quarantined" [| 3 |]
    eco.Flow.quarantined_nets;
  Alcotest.(check int) "one fault" 1 (List.length eco.Flow.faults);
  Alcotest.(check int) "counted once" 1
    (Operon_engine.Instrument.counter sink Operon_engine.Instrument.Codesign
       "faults");
  Alcotest.(check string) "eco export byte-identical to cold" (export cold)
    (export eco)

(* An injected run can reuse no baseline, so it never builds one: the
   lazy previous preparation stays unforced, and the run still reports
   the cold fallback, keeps the timed trace's stages in order and writes
   the cold export. *)
let test_injected_eco_skips_baseline () =
  let design = Cases.small () in
  let injections =
    match Operon_engine.Fault.injections_of_string "codesign:3:crash" with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  let cfg = Flow.Config.make ~injections params in
  let prev = lazy (Flow.prepare cfg design) in
  let sink = Operon_engine.Instrument.create () in
  let p = Flow.prepare_eco ~sink ~prev cfg design in
  Alcotest.(check bool) "baseline never prepared" false (Lazy.is_val prev);
  Alcotest.(check bool) "cold fallback reported" true
    (Option.get p.Flow.p_eco).Flow.cold_fallback;
  let eco = Flow.select_prepared ~sink cfg p in
  Alcotest.(check (list string)) "trace stages"
    [ "processing"; "baselines"; "codesign"; "eco"; "select"; "wdm"; "assign" ]
    (List.map
       (fun (r : Operon_engine.Instrument.record) ->
         Operon_engine.Instrument.stage_name r.Operon_engine.Instrument.stage)
       (Operon_engine.Instrument.records sink));
  Alcotest.(check string) "eco export byte-identical to cold"
    (export (Flow.synthesize cfg design))
    (export eco)

(* Cold and ECO preparation share the rule for the design-wide crossing
   matrix: a partitioned configuration builds none on either path. *)
let test_eco_partitioned_context () =
  let design = Cases.small () in
  let cfg = Flow.Config.make ~partition:(Flow.Config.Regions 4) params in
  let prev = Flow.prepare cfg design in
  let revised = Mutate.design ~ratio:0.1 ~seed:1 design in
  let cold = Flow.prepare cfg revised in
  let eco = Flow.prepare_eco ~prev:(Lazy.from_val prev) cfg revised in
  Alcotest.(check bool) "incremental path taken" false
    (Option.get eco.Flow.p_eco).Flow.cold_fallback;
  Alcotest.(check (pair bool bool)) "no design-wide matrix on either path"
    (false, false)
    ( Xmatrix.enabled cold.Flow.p_ctx.Selection.xmat,
      Xmatrix.enabled eco.Flow.p_ctx.Selection.xmat );
  Alcotest.(check string) "eco export byte-identical to cold"
    (export (Flow.select_prepared cfg cold))
    (export (Flow.select_prepared cfg eco))

(* ------------------------------------------------------------------ *)
(* Warm-started selection parity                                      *)
(* ------------------------------------------------------------------ *)

let warm_cases () =
  let base = [ ("tiny", Cases.tiny ()); ("small", Cases.small ()) ] in
  match Sys.getenv_opt "OPERON_HEAVY_TESTS" with
  | Some ("1" | "true") ->
      base
      @ List.filter_map
          (fun name ->
            Option.map
              (fun spec -> (name, Gen.generate spec))
              (Cases.by_name name))
          [ "I1"; "I2"; "I3" ]
  | _ -> base

let test_warm_start_parity () =
  List.iter
    (fun (name, design) ->
      let cfg = config () in
      let prev = Flow.prepare cfg design in
      let initial =
        (Flow.select_prepared cfg prev).Flow.choice
      in
      let revised = Mutate.design ~ratio:0.15 ~seed:11 design in
      let p = Flow.prepare_eco ~prev:(Lazy.from_val prev) cfg revised in
      let ctx = p.Flow.p_ctx in
      let lr_cold = Lr_select.select ctx in
      let lr_warm = Lr_select.select ~initial ctx in
      Alcotest.(check (array int))
        (name ^ ": LR warm choice = cold")
        lr_cold.Lr_select.choice lr_warm.Lr_select.choice;
      Alcotest.(check (float 0.0))
        (name ^ ": LR warm power = cold")
        lr_cold.Lr_select.power lr_warm.Lr_select.power;
      let ilp_cold = Ilp_select.select ~budget_seconds:60.0 ctx in
      let ilp_warm = Ilp_select.select ~budget_seconds:60.0 ~initial ctx in
      Alcotest.(check (array int))
        (name ^ ": ILP warm choice = cold")
        ilp_cold.Ilp_select.choice ilp_warm.Ilp_select.choice;
      Alcotest.(check (float 0.0))
        (name ^ ": ILP warm power = cold")
        ilp_cold.Ilp_select.power ilp_warm.Ilp_select.power;
      (* A nonsense warm start must sanitize away, not crash or drift. *)
      let garbage = Array.make (Array.length initial) 9999 in
      let lr_garbage = Lr_select.select ~initial:garbage ctx in
      Alcotest.(check (array int))
        (name ^ ": garbage warm start sanitized")
        lr_cold.Lr_select.choice lr_garbage.Lr_select.choice)
    (warm_cases ())

(* ------------------------------------------------------------------ *)
(* Registry LRU                                                       *)
(* ------------------------------------------------------------------ *)

let test_registry_lru () =
  let reg = Registry.create ~capacity:2 () in
  let cfg = config () in
  let designs = List.map (fun s -> Cases.tiny ~seed:s ()) [ 1; 2; 3 ] in
  List.iter
    (fun d -> ignore (Registry.find_or_prepare reg ~config:cfg d))
    designs;
  let s = Registry.stats reg in
  Alcotest.(check int) "capacity recorded" 2 (Option.get s.Registry.capacity);
  Alcotest.(check bool) "evicted at least once" true (s.Registry.evictions >= 1);
  Alcotest.(check bool) "entries within capacity" true (s.Registry.entries <= 2);
  (* The newest design survived; the oldest was the LRU victim. *)
  Alcotest.(check bool) "newest still prepared" true
    (Registry.find_prepared reg ~config:cfg (List.nth designs 2) <> None);
  Alcotest.(check bool) "oldest evicted" true
    (Registry.find_prepared reg ~config:cfg (List.nth designs 0) = None)

(* ------------------------------------------------------------------ *)
(* Resubmit over the NDJSON protocol                                  *)
(* ------------------------------------------------------------------ *)

let resolve ~case ~seed =
  match String.lowercase_ascii case with
  | "tiny" -> Some (Cases.tiny ?seed ())
  | "small" -> Some (Cases.small ?seed ())
  | _ -> None

let handle svc line =
  match Service.handle_line svc line with
  | Some r -> r
  | None -> Alcotest.fail (Printf.sprintf "no response to %s" line)

let parse line =
  match Protocol.Json.parse line with
  | Ok j -> j
  | Error (_, e) -> Alcotest.fail (Printf.sprintf "bad response %s: %s" line e)

let ok_field j =
  match Protocol.Json.member "ok" j with
  | Some (Protocol.Json.Bool b) -> b
  | _ -> Alcotest.fail "missing ok field"

let error_kind j =
  match Protocol.Json.member "error" j with
  | Some e -> (
      match Protocol.Json.member "kind" e with
      | Some (Protocol.Json.Str s) -> s
      | _ -> Alcotest.fail "missing error.kind")
  | None -> Alcotest.fail "expected an error envelope"

let find_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then None
    else if String.sub haystack i n = needle then Some i
    else go (i + 1)
  in
  go 0

let test_resubmit () =
  let svc = Service.create ~workers:1 ~capacity:8 ~resolve ~params () in
  Service.start svc;
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      let r1 = parse (handle svc {|{"op":"submit","case":"tiny","job":"a"}|}) in
      Alcotest.(check bool) "submit accepted" true (ok_field r1);
      Alcotest.(check bool) "parent completed" true
        (ok_field (parse (handle svc {|{"op":"result","job":"a"}|})));
      let line =
        handle svc
          {|{"op":"resubmit","parent_job":"a","job":"b","mutate":{"ratio":0.5,"seed":3},"warm":true}|}
      in
      Alcotest.(check bool) "resubmit accepted" true (ok_field (parse line));
      let result = handle svc {|{"op":"result","job":"b"}|} in
      let renv = parse result in
      Alcotest.(check bool) "resubmit job completed" true (ok_field renv);
      (* The envelope carries the eco stats... *)
      (match Protocol.Json.member "eco" renv with
       | Some eco -> (
           match Protocol.Json.member "cold_fallback" eco with
           | Some (Protocol.Json.Bool false) -> ()
           | _ -> Alcotest.fail "expected eco.cold_fallback = false")
       | None -> Alcotest.fail "expected an eco object in the result envelope");
      (* ...while the result document is byte-identical to a cold run of
         the same mutated design under the service's configuration. *)
      let served_cfg = Flow.Config.make ~mode:Flow.Lr ~ilp_budget:60.0 params in
      let revised = Mutate.design ~ratio:0.5 ~seed:3 (Cases.tiny ()) in
      let expected = export (Flow.synthesize served_cfg revised) in
      (match find_sub result expected with
       | Some _ -> ()
       | None ->
           Alcotest.fail "served resubmit result differs from the cold run");
      (* Validation corners. *)
      Alcotest.(check string) "unknown parent" "unknown_job"
        (error_kind
           (parse (handle svc {|{"op":"resubmit","parent_job":"nope"}|})));
      Alcotest.(check string) "bad mutate ratio" "validation"
        (error_kind
           (parse
              (handle svc
                 {|{"op":"resubmit","parent_job":"a","mutate":{"ratio":0.0}}|}))))

let test_resubmit_requires_completed_parent () =
  (* Workers never started: the parent stays queued, so resubmitting
     against it is a validation error, not a hang. *)
  let svc = Service.create ~workers:1 ~capacity:8 ~resolve ~params () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      Alcotest.(check bool) "parent queued" true
        (ok_field (parse (handle svc {|{"op":"submit","case":"tiny","job":"a"}|})));
      Alcotest.(check string) "parent not completed" "validation"
        (error_kind (parse (handle svc {|{"op":"resubmit","parent_job":"a"}|}))))

(* ------------------------------------------------------------------ *)
(* Incremental track retirement (Assign.survivors)                    *)
(* ------------------------------------------------------------------ *)

(* The pre-rewrite reference: retire lightest-first, rebuilding the
   feasibility max-flow from scratch for every trial subset. *)
let reference_survivors params conns orient all =
  let mine = ref [] in
  for i = Array.length all - 1 downto 0 do
    if all.(i).Wdm.orient = orient then mine := i :: !mine
  done;
  let ordered =
    List.sort (fun a b -> compare all.(a).Wdm.used all.(b).Wdm.used) !mine
  in
  List.fold_left
    (fun keep i ->
      let without = List.filter (fun j -> j <> i) keep in
      let live = List.map (fun j -> all.(j)) without in
      if Assign.feasible params conns orient (Array.of_list live) then without
      else keep)
    ordered ordered

let test_survivors_equivalence () =
  List.iter
    (fun (name, design) ->
      let flow = Flow.synthesize (config ()) design in
      let conns = flow.Flow.placement.Wdm_place.conns in
      let all = flow.Flow.placement.Wdm_place.tracks in
      let p = flow.Flow.ctx.Selection.params in
      List.iter
        (fun orient ->
          Alcotest.(check (list int))
            (name ^ ": incremental = rebuild-per-subset")
            (reference_survivors p conns orient all)
            (Assign.survivors p conns orient all))
        [ Wdm.Horizontal; Wdm.Vertical ])
    [ ("tiny", Cases.tiny ()); ("small", Cases.small ()) ]

(* Stacked tracks that legalization pushes beyond [dis_u]: 300 identical
   32-bit connections open 300 tracks at y = 1.0, and the [dis_l] spread
   leaves the top ~100 out of every connection's reach. The assignment
   must fail with a structured capacity fault, not an assertion. *)
let stacked_placement n =
  let seg = Segment.make (Point.make 0.0 1.0) (Point.make 1.0 1.0) in
  let conns = Array.init n (fun id -> { Wdm.id; net = id; seg; bits = 32 }) in
  let placement = Wdm_place.place params conns in
  ignore (Wdm_place.legalize params placement.Wdm_place.tracks);
  placement

let test_infeasible_placement_faults () =
  let ok = stacked_placement 150 in
  Alcotest.(check int) "150 stacked connections fit" 150
    (Assign.run params ok).Assign.final_count;
  let bad = stacked_placement 300 in
  Alcotest.(check int) "infeasible: survivors keeps every track" 300
    (List.length
       (Assign.survivors params bad.Wdm_place.conns Wdm.Horizontal
          bad.Wdm_place.tracks));
  match Assign.run params bad with
  | _ -> Alcotest.fail "an infeasible placement was assigned"
  | exception Operon_engine.Fault.Error f ->
      Alcotest.(check string) "stage" "assign"
        (Operon_engine.Instrument.stage_name f.Operon_engine.Fault.stage);
      Alcotest.(check string) "kind" "capacity"
        (Operon_engine.Fault.kind_name f.Operon_engine.Fault.kind);
      let detail = f.Operon_engine.Fault.detail in
      let mentions sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length detail
          && (String.sub detail i n = sub || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("detail mentions " ^ sub) true (mentions sub))
        [ "horizontal"; "connection 0" ];
      Alcotest.(check bool) "one line" false (String.contains detail '\n')

(* The per-component solve against the single global network it
   replaced. Each instance holds several clusters of connections, every
   cluster more than [dis_u] from the next so it forms its own
   eligibility components, with coordinates drawn from a few repeated
   offsets so equal-cost alternatives abound. Survivors must match the
   rebuild-per-subset oracle exactly; the assignment must match a global
   min-cost flow over the surviving tracks in value and in total cost
   (displacement plus usage). *)
let global_assignment_cost params conns orient tracks =
  let live =
    List.filter (fun t -> t.Wdm.orient = orient) (Array.to_list tracks)
    |> Array.of_list
  in
  let nc = Array.length conns and nw = Array.length live in
  let source = 0 and sink = nc + nw + 1 in
  let g = Mcmf.create (nc + nw + 2) in
  Array.iteri
    (fun ci c ->
      if Wdm.orientation_of c.Wdm.seg = orient then begin
        ignore (Mcmf.add_edge g ~src:source ~dst:(1 + ci) ~cap:c.Wdm.bits ~cost:0.0);
        Array.iteri
          (fun wi t ->
            let d = Wdm.track_distance t c in
            if d <= params.Params.dis_u then
              ignore
                (Mcmf.add_edge g ~src:(1 + ci) ~dst:(1 + nc + wi) ~cap:c.Wdm.bits
                   ~cost:d))
          live
      end)
    conns;
  Array.iteri
    (fun wi t ->
      ignore
        (Mcmf.add_edge g ~src:(1 + nc + wi) ~dst:sink ~cap:t.Wdm.capacity
           ~cost:(1e-3 *. (1.0 +. Wdm.track_length t))))
    live;
  let s = Mcmf.solve g ~supplies:[| (source, max_int) |] ~sink in
  (s.Mcmf.flow, s.Mcmf.cost)

(* [tight] instances hold fewer clusters of more, heavier connections
   that fill their tracks, so retirement probes fail and their
   certificates pin tracks; loose ones leave room to retire. *)
let gen_clustered_conns ~tight =
  QCheck.Gen.(
    (if tight then int_range 1 3 else int_range 2 5) >>= fun clusters ->
    list_size
      (if tight then int_range 8 24 else int_range 1 12)
      (quad (int_range 0 (clusters - 1)) bool (int_range 0 3)
         (triple
            (if tight then int_range 3 4 else int_range 0 4)
            (float_range 0.0 2.0) (float_range 0.1 2.0)))
    >|= fun specs ->
    List.mapi
      (fun id (cluster, horizontal, offset, (b, lo, len)) ->
        (* Clusters sit 0.5 apart (dis_u = 0.1); offsets repeat. *)
        let coord = (0.5 *. float_of_int cluster) +. [| 0.0; 0.02; 0.05; 0.08 |].(offset) in
        let seg =
          if horizontal then Segment.make (Point.make lo coord) (Point.make (lo +. len) coord)
          else Segment.make (Point.make coord lo) (Point.make coord (lo +. len))
        in
        { Wdm.id; net = id; seg; bits = [| 1; 4; 8; 16; 32 |].(b) })
      specs
    |> Array.of_list)

(* Survivors equal the oracle in both orientations, and the assignment
   carries every bit within [dis_u] and capacity at the global network's
   value and cost. Returns the assignment. *)
let check_components_match_global conns =
  let placement = Wdm_place.place params conns in
  ignore (Wdm_place.legalize params placement.Wdm_place.tracks);
  let all = placement.Wdm_place.tracks in
  List.iter
    (fun orient ->
      if
        reference_survivors params conns orient all
        <> Assign.survivors params conns orient all
      then QCheck.Test.fail_report "survivors differ from the oracle")
    [ Wdm.Horizontal; Wdm.Vertical ];
  let r = Assign.run params placement in
  let load = Array.make (Array.length r.Assign.tracks) 0 in
  let cost = ref 0.0 in
  Array.iteri
    (fun ci fl ->
      let c = conns.(ci) in
      if List.fold_left (fun acc (_, b) -> acc + b) 0 fl <> c.Wdm.bits then
        QCheck.Test.fail_reportf "connection %d not fully carried" ci;
      List.iter
        (fun (wi, b) ->
          let t = r.Assign.tracks.(wi) in
          let d = Wdm.track_distance t c in
          if d > params.Params.dis_u then
            QCheck.Test.fail_reportf "connection %d rides a far track" ci;
          load.(wi) <- load.(wi) + b;
          cost :=
            !cost +. (float_of_int b *. (d +. (1e-3 *. (1.0 +. Wdm.track_length t)))))
        fl)
    r.Assign.flows;
  Array.iteri
    (fun wi t ->
      if load.(wi) > t.Wdm.capacity then
        QCheck.Test.fail_reportf "track %d over capacity" wi)
    r.Assign.tracks;
  let flow, global_cost =
    List.fold_left
      (fun (f, c) orient ->
        let f', c' = global_assignment_cost params conns orient r.Assign.tracks in
        (f + f', c +. c'))
      (0, 0.0) [ Wdm.Horizontal; Wdm.Vertical ]
  in
  let bits = Array.fold_left (fun acc c -> acc + c.Wdm.bits) 0 conns in
  if flow <> bits then QCheck.Test.fail_report "global flow differs";
  if Float.abs (!cost -. global_cost) > 1e-9 *. Float.max 1.0 global_cost then
    QCheck.Test.fail_reportf "cost %.12g vs global %.12g" !cost global_cost;
  r

let prop_components_match_global =
  QCheck.Test.make ~name:"per-component assignment = one global network"
    ~count:200
    (QCheck.make
       ~print:(fun conns -> Printf.sprintf "%d connections" (Array.length conns))
       QCheck.Gen.(bool >>= fun tight -> gen_clustered_conns ~tight))
    (fun conns ->
      ignore (check_components_match_global conns);
      true)

(* WDM tracks all have one capacity, where a failed probe pins its whole
   saturated cluster. With mixed capacities a pin must hold for the one
   track it names: tight clusters with each placed track's capacity
   redrawn, against the rebuild-per-subset oracle. *)
let prop_survivors_mixed_capacities =
  QCheck.Test.make ~name:"survivors = oracle with mixed track capacities"
    ~count:200
    (QCheck.make
       ~print:(fun (conns, caps) ->
         Printf.sprintf "%d connections, capacities [%s]" (Array.length conns)
           (String.concat ";" (List.map string_of_int caps)))
       QCheck.Gen.(
         gen_clustered_conns ~tight:true >>= fun conns ->
         list_repeat (Array.length conns) (oneofl [ 8; 16; 24; 32; 48; 64 ])
         >|= fun caps -> (conns, caps)))
    (fun (conns, caps) ->
      let placement = Wdm_place.place params conns in
      ignore (Wdm_place.legalize params placement.Wdm_place.tracks);
      let caps = Array.of_list caps in
      let all =
        Array.mapi
          (fun i t -> { t with Wdm.capacity = caps.(i) })
          placement.Wdm_place.tracks
      in
      List.for_all
        (fun orient ->
          reference_survivors params conns orient all
          = Assign.survivors params conns orient all)
        [ Wdm.Horizontal; Wdm.Vertical ])

(* Two clusters of eight 32-bit connections, each on its own full
   track, and a third cluster whose sweep opens a 16-bit track, a full
   one and another 16-bit one, in both orientations. The first probe of
   a full cluster fails and its certificate pins the cluster's other
   seven tracks. In the third cluster the first max flow routes both
   16-bit connections onto the second 16-bit track, so the first retires
   without a probe; the second's probe fails and pins the full track. *)
let test_certificates_pin () =
  let conns =
    List.concat_map
      (fun horizontal ->
        let conn (coord, bits) =
          let seg =
            if horizontal then Segment.make (Point.make 0.0 coord) (Point.make 1.0 coord)
            else Segment.make (Point.make coord 0.0) (Point.make coord 1.0)
          in
          (seg, bits)
        in
        List.map conn
          (List.init 8 (fun i -> (0.01 *. float_of_int i, 32))
          @ List.init 8 (fun i -> (1.0 +. (0.01 *. float_of_int i), 32))
          @ [ (2.0, 16); (2.01, 32); (2.02, 16) ]))
      [ true; false ]
    |> List.mapi (fun id (seg, bits) -> { Wdm.id; net = id; seg; bits })
    |> Array.of_list
  in
  let r =
    try check_components_match_global conns
    with QCheck.Test.Test_fail (_, msgs) -> Alcotest.fail (String.concat "; " msgs)
  in
  Alcotest.(check int) "initial tracks" 38 r.Assign.initial_count;
  Alcotest.(check int) "one 16-bit track retired per orientation" 36
    r.Assign.final_count;
  Alcotest.(check int) "pinned: seven per full cluster, the full track of the third"
    30 r.Assign.pinned;
  Alcotest.(check int) "probes: one per cluster" 6 r.Assign.retire_solves

(* [Assign.reach] finds each connection's eligible tracks by binary
   search over the tracks sorted by coordinate; the oracle is the scan of
   every (connection, track) pair it replaced. Coordinates come from a
   lattice of binary fractions (so equal coordinates and tracks exactly
   [dis_u] away are common, and exact in floating point) or are drawn at
   random, and either side may be empty. *)
let all_pairs_reach p conns orient (tracks : Wdm.track array) =
  Array.map
    (fun c ->
      if Wdm.orientation_of c.Wdm.seg <> orient then [||]
      else
        Array.of_list
          (List.filter
             (fun wi -> Wdm.track_distance tracks.(wi) c <= p.Params.dis_u)
             (List.init (Array.length tracks) Fun.id)))
    conns

let prop_reach_matches_all_pairs =
  let coord =
    QCheck.Gen.(
      oneof [ map (fun k -> 0.125 *. float_of_int k) (int_range (-4) 12); float_range (-1.0) 2.0 ])
  in
  let gen =
    QCheck.Gen.(
      oneofl [ 0.0; 0.1; 0.125; 0.25; 0.5 ] >>= fun dis_u ->
      list_size (int_range 0 12) (pair bool coord) >>= fun cs ->
      list_size (int_range 0 12) (pair bool coord) >|= fun ts ->
      let conns =
        List.mapi
          (fun id (horizontal, x) ->
            let seg =
              if horizontal then Segment.make (Point.make 0.0 x) (Point.make 1.0 x)
              else Segment.make (Point.make x 0.0) (Point.make x 1.0)
            in
            { Wdm.id; net = id; seg; bits = 1 })
          cs
      in
      let tracks =
        List.map
          (fun (horizontal, x) ->
            { Wdm.orient = (if horizontal then Wdm.Horizontal else Wdm.Vertical);
              coord = x; lo = 0.0; hi = 1.0; capacity = 32; used = 0 })
          ts
      in
      (dis_u, Array.of_list conns, Array.of_list tracks))
  in
  QCheck.Test.make ~name:"window-search eligibility = all-pairs scan" ~count:500
    (QCheck.make
       ~print:(fun (d, cs, ts) ->
         Printf.sprintf "dis_u=%g conns=[%s] tracks=[%s]" d
           (String.concat "; "
              (Array.to_list (Array.map (fun c -> Printf.sprintf "%g" (Wdm.conn_coord c)) cs)))
           (String.concat "; "
              (Array.to_list (Array.map (fun t -> Printf.sprintf "%g" t.Wdm.coord) ts))))
       gen)
    (fun (dis_u, conns, tracks) ->
      let p = { params with Params.dis_u } in
      List.for_all
        (fun orient ->
          (* Assign hands [reach] one orientation's tracks at a time. *)
          let mine = List.filter (fun t -> t.Wdm.orient = orient) (Array.to_list tracks) in
          let mine = Array.of_list mine in
          Assign.reach p conns orient mine = all_pairs_reach p conns orient mine)
        [ Wdm.Horizontal; Wdm.Vertical ])

let () =
  Alcotest.run "eco"
    [ ( "design-diff",
        [ Alcotest.test_case "identity diff all clean" `Quick
            test_identity_diff;
          QCheck_alcotest.to_alcotest prop_diff_classification ] );
      ( "parity",
        [ Alcotest.test_case "eco byte parity" `Quick test_eco_byte_parity;
          Alcotest.test_case "cold fallback on config change" `Quick
            test_eco_cold_fallback;
          Alcotest.test_case "warm start parity" `Quick test_warm_start_parity;
          Alcotest.test_case "eco reports preparation faults" `Quick
            test_eco_reports_preparation_faults;
          Alcotest.test_case "injected eco skips the baseline" `Quick
            test_injected_eco_skips_baseline;
          Alcotest.test_case "partitioned eco builds the cold context" `Quick
            test_eco_partitioned_context ] );
      ( "registry",
        [ Alcotest.test_case "LRU capacity + evictions" `Quick
            test_registry_lru ] );
      ( "resubmit",
        [ Alcotest.test_case "resubmit end-to-end" `Quick test_resubmit;
          Alcotest.test_case "parent must be completed" `Quick
            test_resubmit_requires_completed_parent ] );
      ( "assign",
        [ Alcotest.test_case "incremental survivors" `Quick
            test_survivors_equivalence;
          Alcotest.test_case "infeasible placement raises a capacity fault"
            `Quick test_infeasible_placement_faults;
          Alcotest.test_case "certificates pin a full cluster" `Quick
            test_certificates_pin;
          QCheck_alcotest.to_alcotest prop_components_match_global;
          QCheck_alcotest.to_alcotest prop_survivors_mixed_capacities;
          QCheck_alcotest.to_alcotest prop_reach_matches_all_pairs ] ) ]
