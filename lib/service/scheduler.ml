open Operon
open Operon_util
open Operon_engine

type outcome =
  | Completed of Flow.t
  | Failed of Fault.t
  | Cancelled
  | Expired of float

type state = Queued | Running | Finished of outcome

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Finished (Completed _) -> "completed"
  | Finished (Failed _) -> "failed"
  | Finished Cancelled -> "cancelled"
  | Finished (Expired _) -> "expired"

type counters = {
  submitted : int;
  completed : int;
  failed : int;
  rejected : int;
  cancelled : int;
  expired : int;
  queue_depth : int;
  registry : Registry.stats;
}

type job = {
  id : string;
  config : Flow.Config.t;
  design : Signal.design;
  deadline : float option;
  submitted_at : float;
  token : Jobq.Token.t;
  parent : string option;  (* ECO resubmission: reuse this job's artifacts *)
  initial : int array option;  (* warm-start selection vector *)
  mutable state : state;
  mutable eco : Flow.eco_stats option;  (* set when the job ran the ECO path *)
}

type t = {
  mu : Mutex.t;  (** guards jobs, counters, sink, domains *)
  finished : Condition.t;  (** broadcast on every terminal transition *)
  queue : job Jobq.t;
  registry : Registry.t;
  jobs : (string, job) Hashtbl.t;
  n_workers : int;
  sink : Instrument.sink;  (** merged per-job instrumentation, under [mu] *)
  mutable domains : unit Domain.t list;
  mutable started : bool;
  mutable stopped : bool;
  mutable next_id : int;
  mutable n_submitted : int;
  mutable n_completed : int;
  mutable n_failed : int;
  mutable n_rejected : int;
  mutable n_cancelled : int;
  mutable n_expired : int;
}

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let create ?(workers = 1) ?(capacity = 64) ?registry_capacity () =
  let workers = Stdlib.max 1 workers in
  { mu = Mutex.create ();
    finished = Condition.create ();
    queue = Jobq.create ~capacity;
    registry = Registry.create ?capacity:registry_capacity ();
    jobs = Hashtbl.create 64;
    n_workers = workers;
    sink = Instrument.create ();
    domains = [];
    started = false;
    stopped = false;
    next_id = 0;
    n_submitted = 0;
    n_completed = 0;
    n_failed = 0;
    n_rejected = 0;
    n_cancelled = 0;
    n_expired = 0 }

let workers t = t.n_workers

(* Terminal transition: update the job, the counters and the merged
   instrumentation in one critical section, then wake waiters. *)
let finish t job outcome ~job_sink =
  with_lock t (fun () ->
      job.state <- Finished outcome;
      (match job_sink with
       | Some s -> Instrument.merge ~into:t.sink s
       | None -> ());
      (match outcome with
       | Completed _ ->
           t.n_completed <- t.n_completed + 1;
           Instrument.incr t.sink Instrument.Serve "completed" 1
       | Failed _ ->
           t.n_failed <- t.n_failed + 1;
           Instrument.incr t.sink Instrument.Serve "failed" 1
       | Cancelled ->
           t.n_cancelled <- t.n_cancelled + 1;
           Instrument.incr t.sink Instrument.Serve "cancelled" 1
       | Expired _ ->
           t.n_expired <- t.n_expired + 1;
           Instrument.incr t.sink Instrument.Serve "expired" 1);
      Condition.broadcast t.finished)

let run_job t job =
  let proceed =
    with_lock t (fun () ->
        match job.state with
        | Queued ->
            job.state <- Running;
            true
        | _ -> false (* cancelled between pop and here *))
  in
  if proceed then
    match job.deadline with
    | Some d when Timer.now () >= job.submitted_at +. d ->
        let late = Timer.now () -. (job.submitted_at +. d) in
        finish t job (Expired late) ~job_sink:None
    | deadline -> (
        (* Route the remaining deadline through the solver budgets: the
           selection engines poll their wall-clock caps and fall down
           the PR 2 chain, so an overrun degrades instead of killing
           this worker. *)
        let config =
          match deadline with
          | None -> job.config
          | Some d ->
              let remaining = job.submitted_at +. d -. Timer.now () in
              { job.config with
                Flow.Config.ilp_budget =
                  Float.min job.config.Flow.Config.ilp_budget remaining }
        in
        let job_sink = Instrument.create () in
        match
          (* An ECO resubmission carries its parent job's id: when the
             parent's prepared artifacts are still registered, a revised
             design is prepared incrementally against them. A missing
             parent entry (evicted, or never prepared) silently degrades
             to a cold preparation — results are identical either way. *)
          let prev =
            match job.parent with
            | None -> None
            | Some pid -> (
                match
                  with_lock t (fun () -> Hashtbl.find_opt t.jobs pid)
                with
                | None -> None
                | Some pj ->
                    Registry.find_prepared t.registry ~config:pj.config
                      pj.design)
          in
          let entry, _reused =
            match prev with
            | Some prev ->
                Registry.find_or_prepare_eco ~sink:job_sink t.registry ~config
                  ~prev job.design
            | None ->
                Registry.find_or_prepare ~sink:job_sink t.registry ~config
                  job.design
          in
          Registry.with_prepared entry (fun p ->
              job.eco <- p.Flow.p_eco;
              Flow.select_with ~sink:job_sink ?initial:job.initial config
                job.design p.Flow.p_hnets p.Flow.p_ctx)
        with
        | flow -> finish t job (Completed flow) ~job_sink:(Some job_sink)
        | exception Fault.Error f ->
            finish t job (Failed f) ~job_sink:(Some job_sink)
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            finish t job
              (Failed (Fault.of_exn ~stage:Instrument.Serve e bt))
              ~job_sink:(Some job_sink))

let worker_loop t =
  let rec go () =
    match Jobq.pop t.queue with
    | None -> ()
    | Some job ->
        run_job t job;
        go ()
  in
  go ()

let start t =
  let spawn =
    with_lock t (fun () ->
        if t.started || t.stopped then false
        else begin
          t.started <- true;
          true
        end)
  in
  if spawn then begin
    let domains =
      List.init t.n_workers (fun _ -> Domain.spawn (fun () -> worker_loop t))
    in
    with_lock t (fun () -> t.domains <- domains)
  end

let submit t ?job ?(priority = 0) ?deadline ?parent ?initial ~config design =
  let now = Timer.now () in
  let token = Jobq.Token.create () in
  let prepared =
    with_lock t (fun () ->
        let id =
          match job with
          | Some id -> id
          | None ->
              t.next_id <- t.next_id + 1;
              Printf.sprintf "job-%d" t.next_id
        in
        if Hashtbl.mem t.jobs id then Error (`Duplicate id)
        else begin
          let j =
            { id; config; design; deadline; submitted_at = now; token;
              parent; initial; state = Queued; eco = None }
          in
          Hashtbl.add t.jobs id j;
          Ok j
        end)
  in
  match prepared with
  | Error _ as e -> e
  | Ok j -> (
      match Jobq.push t.queue ~priority ~token j with
      | `Queued ->
          with_lock t (fun () ->
              t.n_submitted <- t.n_submitted + 1;
              Instrument.incr t.sink Instrument.Serve "submitted" 1);
          Ok j.id
      | (`Rejected | `Closed) as why ->
          let detail =
            match why with
            | `Rejected ->
                Printf.sprintf "queue full (%d/%d jobs queued)"
                  (Jobq.length t.queue) (Jobq.capacity t.queue)
            | `Closed -> "service is shutting down"
          in
          with_lock t (fun () ->
              Hashtbl.remove t.jobs j.id;
              t.n_rejected <- t.n_rejected + 1;
              Instrument.incr t.sink Instrument.Serve "rejected" 1);
          Error (`Busy detail))

let state t id = with_lock t (fun () ->
    Option.map (fun j -> j.state) (Hashtbl.find_opt t.jobs id))

let wait t id =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> None
      | Some j ->
          let rec await () =
            match j.state with
            | Finished o -> Some o
            | Queued | Running ->
                Condition.wait t.finished t.mu;
                await ()
          in
          await ())

let cancel t id =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> `Unknown
      | Some j -> (
          match j.state with
          | Queued ->
              Jobq.Token.cancel j.token;
              j.state <- Finished Cancelled;
              t.n_cancelled <- t.n_cancelled + 1;
              Instrument.incr t.sink Instrument.Serve "cancelled" 1;
              Condition.broadcast t.finished;
              `Cancelled
          | (Running | Finished _) as s -> `Already s))

let result t id =
  match state t id with
  | Some (Finished (Completed flow)) -> Some flow
  | _ -> None

let job_spec t id =
  with_lock t (fun () ->
      Option.map
        (fun j -> (j.config, j.design))
        (Hashtbl.find_opt t.jobs id))

let eco_stats t id =
  with_lock t (fun () ->
      Option.bind (Hashtbl.find_opt t.jobs id) (fun j -> j.eco))

let counters t =
  let registry = Registry.stats t.registry in
  let queue_depth = Jobq.length t.queue in
  with_lock t (fun () ->
      { submitted = t.n_submitted;
        completed = t.n_completed;
        failed = t.n_failed;
        rejected = t.n_rejected;
        cancelled = t.n_cancelled;
        expired = t.n_expired;
        queue_depth;
        registry })

let trace t =
  with_lock t (fun () ->
      let snapshot = Instrument.create () in
      Instrument.merge ~into:snapshot t.sink;
      snapshot)

let shutdown t =
  Jobq.close t.queue;
  let domains =
    with_lock t (fun () ->
        let ds = t.domains in
        t.domains <- [];
        t.stopped <- true;
        ds)
  in
  List.iter Domain.join domains
