open Operon
open Operon_engine

type t = {
  scheduler : Scheduler.t;
  resolve : case:string -> seed:int option -> Signal.design option;
  params : Operon_optical.Params.t;
}

let create ?workers ?capacity ?registry_capacity ~resolve ~params () =
  { scheduler = Scheduler.create ?workers ?capacity ?registry_capacity ();
    resolve;
    params }

let start t = Scheduler.start t.scheduler

let shutdown t = Scheduler.shutdown t.scheduler

(* ------------------------------------------------------------------ *)
(* Request handlers                                                   *)
(* ------------------------------------------------------------------ *)

let config_of_submit t ~design (s : Protocol.submit) =
  (* Mirrors the single-shot CLI defaults ([make_config]): seed 42 for
     the flow PRNG (the submit seed reshapes the generated case, exactly
     like [--seed]), sequential execution inside the job. *)
  let config =
    Flow.Config.make ~mode:s.Protocol.sub_mode
      ~ilp_budget:s.Protocol.sub_budget t.params
  in
  match s.Protocol.sub_thermal with
  | None -> config
  | Some th ->
      (* The map is synthesized from the (possibly mutated) design's die,
         the same way [operon thermal-map] does CLI-side. Thermal lives
         outside the preparation slice, so the registry still shares
         prepared artifacts with plain jobs on the same case. *)
      let rng = Operon_util.Prng.create th.Protocol.th_seed in
      let map =
        Operon_thermal.Thermal_map.synthetic ~nx:th.Protocol.th_grid
          ~ny:th.Protocol.th_grid ~ambient:th.Protocol.th_ambient
          ~hotspots:th.Protocol.th_hotspots
          ~amplitude:th.Protocol.th_amplitude ~decay:th.Protocol.th_decay
          ~die:design.Signal.die rng
      in
      let weights =
        match th.Protocol.th_weights with
        | [] -> Flow.Config.default_thermal_weights
        | ws -> Array.of_list ws
      in
      Flow.Config.with_thermal ~weights map config

let apply_mutate design = function
  | None -> design
  | Some m ->
      Mutate.design ~ratio:m.Protocol.mut_ratio ~seed:m.Protocol.mut_seed
        design

let enqueue t ~op ?job ?parent ?initial ~priority ?deadline ~config design =
  match
    Scheduler.submit t.scheduler ?job ~priority ?deadline ?parent ?initial
      ~config design
  with
  | Ok id ->
      let c = Scheduler.counters t.scheduler in
      Protocol.ok ~job:id ~op
        [ ("state", Export.jstr "queued");
          ("queue_depth", string_of_int c.Scheduler.queue_depth) ]
  | Error (`Busy detail) -> Protocol.error ?job ~op ~kind:"busy" ~detail ()
  | Error (`Duplicate id) -> Protocol.duplicate_job ~op id

let submitted_design ~resolve (s : Protocol.submit) =
  match resolve ~case:s.Protocol.sub_case ~seed:s.Protocol.sub_seed with
  | None ->
      Error
        (Protocol.error ?job:s.Protocol.sub_job ~op:"submit" ~kind:"validation"
           ~detail:(Printf.sprintf "unknown case %S" s.Protocol.sub_case)
           ())
  | Some design -> Ok (apply_mutate design s.Protocol.sub_mutate)

let handle_submit t (s : Protocol.submit) =
  match submitted_design ~resolve:t.resolve s with
  | Error reply -> reply
  | Ok design ->
      let config = config_of_submit t ~design s in
      enqueue t ~op:"submit" ?job:s.Protocol.sub_job
        ~priority:s.Protocol.sub_priority ?deadline:s.Protocol.sub_deadline
        ~config design

let handle_resubmit t (r : Protocol.resubmit) =
  let op = "resubmit" in
  let fail detail =
    Protocol.error ?job:r.Protocol.re_job ~op ~kind:"validation" ~detail ()
  in
  (* The parent must have completed: its design anchors the ECO diff and
     its choice vector is the warm start. *)
  match Scheduler.state t.scheduler r.Protocol.re_parent with
  | None ->
      Protocol.error ?job:r.Protocol.re_job ~op ~kind:"unknown_job"
        ~detail:(Printf.sprintf "no such parent job %S" r.Protocol.re_parent)
        ()
  | Some st -> (
      match Scheduler.result t.scheduler r.Protocol.re_parent with
      | None ->
          fail
            (Printf.sprintf "parent job %S is %s, not completed"
               r.Protocol.re_parent
               (Scheduler.state_name st))
      | Some parent_flow -> (
          let base =
            match r.Protocol.re_case with
            | Some case -> t.resolve ~case ~seed:r.Protocol.re_seed
            | None ->
                Option.map snd
                  (Scheduler.job_spec t.scheduler r.Protocol.re_parent)
          in
          match base with
          | None ->
              fail
                (match r.Protocol.re_case with
                | Some case -> Printf.sprintf "unknown case %S" case
                | None -> "parent job's design is no longer available")
          | Some design ->
              let design = apply_mutate design r.Protocol.re_mutate in
              let config =
                Flow.Config.make ~mode:r.Protocol.re_mode
                  ~ilp_budget:r.Protocol.re_budget t.params
              in
              let initial =
                if r.Protocol.re_warm then Some parent_flow.Flow.choice
                else None
              in
              enqueue t ~op ?job:r.Protocol.re_job
                ~parent:r.Protocol.re_parent ?initial
                ~priority:r.Protocol.re_priority
                ?deadline:r.Protocol.re_deadline ~config design))

let handle_status t id =
  match Scheduler.state t.scheduler id with
  | None -> Protocol.unknown_job ~op:"status" id
  | Some st ->
      Protocol.ok ~job:id ~op:"status"
        [ ("state", Export.jstr (Scheduler.state_name st)) ]

let handle_result t id =
  match Scheduler.wait t.scheduler id with
  | None -> Protocol.unknown_job ~op:"result" id
  | Some (Scheduler.Completed flow) ->
      (* ECO statistics ride in the envelope, never inside [result]: the
         result document of an ECO resubmission is byte-identical to a
         cold run's, and these fields are what varies. *)
      let eco_fields =
        match Scheduler.eco_stats t.scheduler id with
        | None -> []
        | Some e ->
            [ ( "eco",
                Printf.sprintf
                  "{\"nets_reused\":%d,\"nets_recomputed\":%d,\
                   \"xrows_reused\":%d,\"dirty\":%d,\"interaction_dirty\":%d,\
                   \"added\":%d,\"removed\":%d,\"closure\":%d,\
                   \"cold_fallback\":%b}"
                  e.Flow.nets_reused e.Flow.nets_recomputed e.Flow.xrows_reused
                  e.Flow.dirty e.Flow.interaction_dirty e.Flow.added
                  e.Flow.removed e.Flow.dirty_closure e.Flow.cold_fallback ) ]
      in
      Protocol.ok ~job:id ~op:"result"
        ([ ("state", Export.jstr "completed");
           ("power", Export.jfloat flow.Flow.power);
           ("solver_path", Export.jstr flow.Flow.solver_path) ]
        @ eco_fields
        @ [ ("result", Export.flow_to_json ~timings:false flow) ])
  | Some (Scheduler.Failed fault) ->
      Protocol.error ~job:id ~op:"result" ~kind:"fault"
        ~detail:(Fault.to_string fault) ()
  | Some Scheduler.Cancelled ->
      Protocol.error ~job:id ~op:"result" ~kind:"cancelled"
        ~detail:"job was cancelled before a worker ran it" ()
  | Some (Scheduler.Expired late) ->
      Protocol.error ~job:id ~op:"result" ~kind:"deadline"
        ~detail:
          (Printf.sprintf "deadline expired %.3f s before the job started" late)
        ()

let handle_cancel t id =
  match Scheduler.cancel t.scheduler id with
  | `Cancelled ->
      Protocol.ok ~job:id ~op:"cancel" [ ("state", Export.jstr "cancelled") ]
  | `Already st ->
      Protocol.error ~job:id ~op:"cancel" ~kind:"validation"
        ~detail:
          (Printf.sprintf "job is already %s" (Scheduler.state_name st))
        ()
  | `Unknown -> Protocol.unknown_job ~op:"cancel" id

(* The [stats] counter set and its [registry] block, named once: the
   in-process reply reads them off one scheduler, the shard fleet's reply
   sums them over its shards' replies. *)
let stats_counters =
  [ ("submitted", fun (c : Scheduler.counters) -> c.Scheduler.submitted);
    ("completed", fun c -> c.Scheduler.completed);
    ("failed", fun c -> c.Scheduler.failed);
    ("rejected", fun c -> c.Scheduler.rejected);
    ("cancelled", fun c -> c.Scheduler.cancelled);
    ("expired", fun c -> c.Scheduler.expired);
    ("queue_depth", fun c -> c.Scheduler.queue_depth);
    ("workers", fun c -> c.Scheduler.workers) ]

let registry_counters =
  [ ("entries", fun (r : Registry.stats) -> r.Registry.entries);
    ("hits", fun r -> r.Registry.hits);
    ("misses", fun r -> r.Registry.misses);
    ("evictions", fun r -> r.Registry.evictions) ]

let stats_reply ?(extra = []) ~counts ~registry ~capacity () =
  let ints = List.map (fun (k, v) -> (k, string_of_int v)) in
  Protocol.ok ~op:"stats"
    (ints counts
    @ [ ( "registry",
          Export.jobj
            (ints registry
            @ [ ( "capacity",
                  match capacity with
                  | None -> "null"
                  | Some cap -> string_of_int cap ) ]) ) ]
    @ extra)

let handle_stats t =
  let c = Scheduler.counters t.scheduler in
  let reg = c.Scheduler.registry in
  stats_reply
    ~counts:(List.map (fun (k, get) -> (k, get c)) stats_counters)
    ~registry:(List.map (fun (k, get) -> (k, get reg)) registry_counters)
    ~capacity:reg.Registry.capacity ()

let handle_line ?max_line t =
  Protocol.handle_line ?max_line (fun _ -> function
    | Protocol.Submit s -> handle_submit t s
    | Protocol.Resubmit r -> handle_resubmit t r
    | Protocol.Status id -> handle_status t id
    | Protocol.Result id -> handle_result t id
    | Protocol.Cancel id -> handle_cancel t id
    | Protocol.Stats -> handle_stats t)
