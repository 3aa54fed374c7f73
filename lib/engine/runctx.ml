open Operon_util

type t = {
  rng : Prng.t;
  exec : Executor.t;
  sink : Instrument.sink;
  faults : Fault.log;
  strict : bool;
  injections : Fault.injection list;
}

let create ?(seed = 42) ?(jobs = 1) ?(sink = Instrument.create ())
    ?(strict = false) ?(injections = []) () =
  { rng = Prng.create seed;
    exec = Executor.create ~jobs;
    sink;
    faults = Fault.create_log ();
    strict;
    injections }

let record_fault t (f : Fault.t) =
  Fault.record t.faults f;
  Instrument.incr t.sink f.Fault.stage "faults" 1

let degrade t ~stage ?net e bt =
  let fault = Fault.of_exn ~stage ?net e bt in
  if t.strict then Printexc.raise_with_backtrace (Fault.Error fault) bt;
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
  match Fault.injection_matching t.injections ~stage ~net with
  | None -> ()
  | Some inj ->
      raise
        (Fault.Error
           (Fault.make ~stage ?net inj.Fault.inj_kind
              "deterministic fault injection at this site"))
