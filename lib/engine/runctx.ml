open Operon_util
open Operon_optical

type mode = Ilp | Lr

let mode_name = function Ilp -> "ilp" | Lr -> "lr"

type config = {
  params : Params.t;
  mode : mode;
  ilp_budget : float;
  max_cands_per_net : int;
  jobs : int;
  strict : bool;
  injections : Fault.injection list;
  cache : bool;
  solver_core : Operon_solver.Solver.core;
}

let default_config params =
  { params;
    mode = Lr;
    ilp_budget = 3000.0;
    max_cands_per_net = 10;
    jobs = 1;
    strict = false;
    injections = [];
    cache = true;
    solver_core = Operon_solver.Solver.Sparse }

type t = {
  config : config;
  rng : Prng.t;
  exec : Executor.t;
  sink : Instrument.sink;
  faults : Fault.log;
}

let create ?rng ?(seed = 42) config =
  let rng = match rng with Some r -> r | None -> Prng.create seed in
  { config;
    rng;
    exec = Executor.create ~jobs:config.jobs;
    sink = Instrument.create ();
    faults = Fault.create_log () }

let record_fault t (f : Fault.t) =
  Fault.record t.faults f;
  Instrument.incr t.sink f.Fault.stage "faults" 1

let degrade t ~stage ?net e bt =
  let fault = Fault.of_exn ~stage ?net e bt in
  if t.config.strict then Printexc.raise_with_backtrace (Fault.Error fault) bt;
  record_fault t fault

let faults t = Fault.faults t.faults

let quarantined t =
  Fault.faults t.faults
  |> List.filter_map (fun (f : Fault.t) ->
         match (f.Fault.stage, f.Fault.net) with
         | (Instrument.Baselines | Instrument.Codesign), Some id -> Some id
         | _ -> None)
  |> List.sort_uniq compare |> Array.of_list

let check_inject t ~stage ?net () =
  match Fault.injection_matching t.config.injections ~stage ~net with
  | None -> ()
  | Some inj ->
      raise
        (Fault.Error
           (Fault.make ~stage ?net inj.Fault.inj_kind
              "deterministic fault injection at this site"))
