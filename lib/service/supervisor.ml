open Operon
open Operon_engine
open Operon_util

(* Fault-isolated serving: the parent process forks N shard workers and
   consistent-hashes design content-hashes across them. The parent runs
   systhreads only — never Domains — because the OCaml 5 runtime refuses
   [Unix.fork] once any domain has ever been created in a process. Each
   forked shard is free to spawn its Domain worker pool: domains created
   after the fork are the child's own.

   Wire protocol to a shard (NDJSON over a pipe pair):
   - the parent forwards submit/resubmit/status/cancel/stats lines and
     reads one sync reply per line, matched FIFO — every op a shard
     answers synchronously is non-blocking, so there is no head-of-line
     blocking on the pipe;
   - the parent NEVER forwards the blocking [result] op. The shard
     spawns a waiter thread per accepted job that pushes the terminal
     result envelope asynchronously when the job finishes; the parent's
     reader recognizes those pushes by their ["op":"result"] stamp and
     parks/wakes its own clients.

   The parent is the single answer point, which is what makes crash
   retries idempotent: a job re-forwarded to a survivor shard recomputes
   a byte-identical result (synthesis is a pure function of the request,
   and the forwarded line is the client's own request object with only
   [job] set), and whichever terminal envelope arrives first wins. *)

(* Restart policy: a shard that dies within [min_uptime] seconds of its
   fork counts as a fast crash; more than [max_consecutive] fast crashes
   in a row trip the circuit breaker. Restarts wait [backoff_base]
   seconds, doubling per consecutive crash up to [backoff_cap]. *)
let min_uptime = 1.0
let max_consecutive = 5
let backoff_base = 0.25
let backoff_cap = 8.0

(* ------------------------------------------------------------------ *)
(* Consistent hash ring                                                *)
(* ------------------------------------------------------------------ *)

let vnodes_per_shard = 64

let ring_hash s =
  let d = Digest.string s in
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type sync_waiter = {
  mutable sw_reply : string option;
  mutable sw_dead : bool;  (* the shard died before answering *)
}

type proc = {
  pr_pid : int;
  pr_wfd : Unix.file_descr;  (* parent -> shard requests *)
  pr_ic : in_channel;  (* shard -> parent responses *)
  pr_started : float;  (* Timer.now at fork *)
  pr_wmu : Mutex.t;  (* serializes enqueue-waiter + write *)
  pr_pending : sync_waiter Queue.t;  (* guarded by the supervisor mutex *)
}

type shard_state =
  | Starting  (* (re)start scheduled; not accepting work *)
  | Running of proc
  | Broken  (* circuit breaker open: crash-looped *)

let window_size = 64

type shard = {
  sh_index : int;
  mutable sh_state : shard_state;
  mutable sh_restarts : int;
  mutable sh_consecutive : int;  (* fast crashes in a row *)
  mutable sh_crash_exits : int;
  mutable sh_crash_signals : int;
  mutable sh_retries : int;  (* jobs adopted from or lost by a crash *)
  mutable sh_shed : int;
  sh_times : float array;  (* service-time window, circular *)
  mutable sh_ntimes : int;  (* total ever recorded *)
}

type job = {
  j_id : string;
  j_line : string;  (* the forwarded request line, replayed verbatim *)
  j_fp : string;  (* design fingerprint: the routing key *)
  mutable j_shard : int;
  mutable j_retried : bool;
  mutable j_started : float;
  mutable j_terminal : string option;  (* the result envelope *)
}

type t = {
  shards : shard array;
  ring : (int * int) array;  (* (point, shard index), sorted *)
  workers : int;
  queue_capacity : int option;
  registry_capacity : int option;
  resolve : case:string -> seed:int option -> Signal.design option;
  params : Operon_optical.Params.t;
  mu : Mutex.t;
  cond : Condition.t;
  jobs : (string, job) Hashtbl.t;
  mutable next_job : int;
  mutable stopping : bool;
  mutable fork_hooks : (unit -> unit) list;
  mutable monitor : Thread.t option;
  mutable readers : Thread.t list;  (* ever-created shard reader threads *)
}

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ------------------------------------------------------------------ *)
(* Shard child                                                        *)
(* ------------------------------------------------------------------ *)

let shard_write wmu wfd line =
  Mutex.lock wmu;
  let ok = Transport.write_all wfd (line ^ "\n") in
  Mutex.unlock wmu;
  ok

let envelope_ok line =
  match Protocol.Json.parse line with
  | Ok j -> (
      match Protocol.Json.member "ok" j with
      | Some (Protocol.Json.Bool b) -> b
      | _ -> false)
  | Error _ -> false

let line_op_job line =
  match Protocol.Json.parse line with
  | Ok j ->
      let str k =
        match Protocol.Json.member k j with
        | Some (Protocol.Json.Str s) -> Some s
        | _ -> None
      in
      (str "op", str "job")
  | Error _ -> (None, None)

(* The forked child's main loop: a full in-process [Service] (its Domain
   pool is created after the fork, which the runtime allows) answering
   sync ops in arrival order and pushing each accepted job's terminal
   result envelope from a dedicated waiter thread. EOF on the request
   pipe is the shutdown signal: drain accepted jobs, flush their
   results, exit 0. *)
let shard_main ~workers ~queue_capacity ~registry_capacity ~resolve ~params
    ~rfd ~wfd =
  let svc =
    Service.create ~workers ?capacity:queue_capacity
      ?registry_capacity ~resolve ~params ()
  in
  Service.start svc;
  let wmu = Mutex.create () in
  let waiters_mu = Mutex.create () in
  let waiters = ref [] in
  let push_result job =
    let req = Printf.sprintf {|{"op":"result","job":%s}|} (Export.jstr job) in
    match Service.handle_line svc req with
    | Some env -> ignore (shard_write wmu wfd env)
    | None -> ()
  in
  let ic = Unix.in_channel_of_descr rfd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line -> (
        match Service.handle_line ~max_line:max_int svc line with
        | None -> loop ()
        | Some reply ->
            ignore (shard_write wmu wfd reply);
            (* An accepted job is read off the shard's own ack, whose [op]
               is canonical whatever case the client wrote it in. *)
            (match line_op_job reply with
            | Some ("submit" | "resubmit"), Some id when envelope_ok reply ->
                let th = Thread.create push_result id in
                Mutex.lock waiters_mu;
                waiters := th :: !waiters;
                Mutex.unlock waiters_mu
            | _ -> ());
            loop ())
  in
  loop ();
  Service.shutdown svc;
  Mutex.lock waiters_mu;
  let ws = !waiters in
  Mutex.unlock waiters_mu;
  List.iter Thread.join ws

(* ------------------------------------------------------------------ *)
(* Fork / reader / monitor                                             *)
(* ------------------------------------------------------------------ *)

let record_service_time shard dt =
  shard.sh_times.(shard.sh_ntimes mod window_size) <- dt;
  shard.sh_ntimes <- shard.sh_ntimes + 1

let observed_p95 shard =
  let n = min shard.sh_ntimes window_size in
  if n < 8 then None
  else Some (Stats.percentile (Array.sub shard.sh_times 0 n) 95.0)

(* Reader thread: demultiplex one shard's output. ["op":"result"] lines
   are asynchronous terminal pushes (the parent never forwards the
   [result] op, so no sync reply can carry it); everything else answers
   the oldest pending sync request. *)
let reader_loop t shard proc =
  let ic = proc.pr_ic in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        (match line_op_job line with
        | Some "result", Some id ->
            with_mu t (fun () ->
                (match Hashtbl.find_opt t.jobs id with
                | Some j when j.j_terminal = None ->
                    j.j_terminal <- Some line;
                    record_service_time shard (Timer.now () -. j.j_started)
                | _ -> ());
                Condition.broadcast t.cond)
        | _ ->
            with_mu t (fun () ->
                (match Queue.take_opt proc.pr_pending with
                | Some sw -> sw.sw_reply <- Some line
                | None -> ());
                Condition.broadcast t.cond));
        loop ()
  in
  loop ();
  (* EOF: the shard is gone (or shutting down). Sync requesters must
     not wait for replies that will never come. *)
  with_mu t (fun () ->
      Queue.iter (fun sw -> sw.sw_dead <- true) proc.pr_pending;
      Queue.clear proc.pr_pending;
      Condition.broadcast t.cond);
  try close_in ic with Sys_error _ -> ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A forked child inherits the parent's heap, including mutexes locked
   by threads that do not exist on its side of the fork. If the child's
   GC ever collects such a mutex, its finalizer ([pthread_mutex_destroy]
   on a locked mutex) aborts the process. Anchoring the supervisor state
   in a global root keeps every inherited mutex reachable for the
   child's whole life, so none is ever finalized. *)
let child_anchor : Obj.t ref = ref (Obj.repr ())

(* Must hold [t.mu] (the fork snapshots sibling fds and publishes the
   new proc atomically). The child never touches supervisor state: the
   mutexes it inherits may be held by threads that do not exist on its
   side of the fork. *)
let spawn_locked t shard =
  let req_r, req_w = Unix.pipe () in
  let rsp_r, rsp_w = Unix.pipe () in
  let sibling_fds =
    Array.to_list t.shards
    |> List.concat_map (fun s ->
           match s.sh_state with
           | Running p -> [ p.pr_wfd; Unix.descr_of_in_channel p.pr_ic ]
           | _ -> [])
  in
  let hooks = t.fork_hooks in
  match Unix.fork () with
  | 0 ->
      (try
         child_anchor := Obj.repr t;
         close_quiet req_w;
         close_quiet rsp_r;
         List.iter close_quiet sibling_fds;
         List.iter (fun f -> try f () with _ -> ()) hooks;
         Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
         shard_main ~workers:t.workers ~queue_capacity:t.queue_capacity
           ~registry_capacity:t.registry_capacity ~resolve:t.resolve
           ~params:t.params ~rfd:req_r ~wfd:rsp_w
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      close_quiet req_r;
      close_quiet rsp_w;
      let proc =
        { pr_pid = pid;
          pr_wfd = req_w;
          pr_ic = Unix.in_channel_of_descr rsp_r;
          pr_started = Timer.now ();
          pr_wmu = Mutex.create ();
          pr_pending = Queue.create () }
      in
      shard.sh_state <- Running proc;
      t.readers <-
        Thread.create (fun () -> reader_loop t shard proc) () :: t.readers;
      proc

(* Route a fingerprint to a live shard: the ring owner when it is
   Running, else the next distinct Running shard clockwise. *)
let route_locked t fp =
  let n = Array.length t.ring in
  if n = 0 then None
  else begin
    let h = ring_hash fp in
    (* first ring point >= h, else wrap to 0 *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.ring.(mid) < h then lo := mid + 1 else hi := mid
    done;
    let start = if !lo = n then 0 else !lo in
    let rec walk i steps =
      if steps >= n then None
      else
        let shard = t.shards.(snd t.ring.((start + i) mod n)) in
        match shard.sh_state with
        | Running proc -> Some (shard, proc)
        | _ -> walk (i + 1) (steps + 1)
    in
    walk 0 0
  end

let crash_terminal ~job detail =
  Protocol.error ~job ~op:"result"
    ~kind:(Fault.kind_name Fault.Shard_crash)
    ~detail ()

(* Send one line to a shard and register a sync waiter for its reply.
   The per-proc write mutex is held across enqueue+write so concurrent
   senders cannot interleave their queue positions and their bytes in
   different orders. Returns [None] when the shard is no longer that
   incarnation. *)
let send_sync t shard proc line =
  Mutex.lock proc.pr_wmu;
  let sw =
    with_mu t (fun () ->
        match shard.sh_state with
        | Running p when p == proc ->
            let sw = { sw_reply = None; sw_dead = false } in
            Queue.push sw proc.pr_pending;
            Some sw
        | _ -> None)
  in
  (* A broken pipe is not checked here: the reader/monitor fails the
     waiter. *)
  if Option.is_some sw then
    ignore (Transport.write_all proc.pr_wfd (line ^ "\n"));
  Mutex.unlock proc.pr_wmu;
  sw

let await_sync t sw =
  with_mu t (fun () ->
      while sw.sw_reply = None && not sw.sw_dead do
        Condition.wait t.cond t.mu
      done;
      sw.sw_reply)

(* [send_sync] then [await_sync]: [None] when the shard is gone before
   it answers. *)
let round_trip t shard proc line =
  Option.bind (send_sync t shard proc line) (await_sync t)

(* Re-forward a crash-orphaned job to a survivor, at most once. Runs in
   a detached thread (the monitor must not block on pipe writes). The
   ack is consumed here: no client waits on it — clients wait on the
   job's terminal envelope. *)
let retry_job t job =
  let target = with_mu t (fun () -> route_locked t job.j_fp) in
  match target with
  | None ->
      with_mu t (fun () ->
          if job.j_terminal = None then begin
            job.j_terminal <-
              Some (crash_terminal ~job:job.j_id "shard died; no live shard to retry on");
            Condition.broadcast t.cond
          end)
  | Some (shard, proc) ->
      with_mu t (fun () ->
          job.j_shard <- shard.sh_index;
          job.j_started <- Timer.now ());
      let reply = round_trip t shard proc job.j_line in
      with_mu t (fun () ->
          match reply with
          | Some r when envelope_ok r -> ()  (* requeued; terminal will come *)
          | Some r ->
              (* the survivor rejected the replay (e.g. full queue):
                 that rejection is the job's terminal answer *)
              if job.j_terminal = None then begin
                job.j_terminal <- Some r;
                Condition.broadcast t.cond
              end
          | None ->
              if job.j_terminal = None then begin
                job.j_terminal <-
                  Some (crash_terminal ~job:job.j_id "shard died during retry");
                Condition.broadcast t.cond
              end)

let backoff_delay consecutive =
  Float.min backoff_cap (backoff_base *. (2.0 ** float_of_int (consecutive - 1)))

let rec schedule_restart t shard delay =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay delay;
         with_mu t (fun () ->
             if (not t.stopping) && shard.sh_state = Starting then begin
               shard.sh_restarts <- shard.sh_restarts + 1;
               ignore (spawn_locked t shard)
             end))
       ())

(* One shard death, as observed by [waitpid]: classify the crash, trip
   or arm the breaker, re-route the shard's in-flight jobs (each at most
   once — [j_retried] — so a poison-pill job cannot cascade through the
   fleet), and schedule the restart. *)
and handle_death t pid status =
  let actions =
    with_mu t (fun () ->
        let found = ref None in
        Array.iter
          (fun s ->
            match s.sh_state with
            | Running p when p.pr_pid = pid -> found := Some (s, p)
            | _ -> ())
          t.shards;
        match !found with
        | None -> None
        | Some (shard, proc) ->
            close_quiet proc.pr_wfd;
            Queue.iter (fun sw -> sw.sw_dead <- true) proc.pr_pending;
            Queue.clear proc.pr_pending;
            if t.stopping then begin
              shard.sh_state <- Starting;
              Condition.broadcast t.cond;
              None
            end
            else begin
              (match status with
              | Unix.WEXITED _ ->
                  shard.sh_crash_exits <- shard.sh_crash_exits + 1
              | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
                  shard.sh_crash_signals <- shard.sh_crash_signals + 1);
              let uptime = Timer.now () -. proc.pr_started in
              shard.sh_consecutive <-
                (if uptime < min_uptime then shard.sh_consecutive + 1 else 1);
              let broken = shard.sh_consecutive > max_consecutive in
              shard.sh_state <- (if broken then Broken else Starting);
              (* Orphans: this shard's in-flight jobs. *)
              let orphans =
                Hashtbl.fold
                  (fun _ j acc ->
                    if j.j_shard = shard.sh_index && j.j_terminal = None then
                      j :: acc
                    else acc)
                  t.jobs []
              in
              let retry, fail =
                List.partition (fun j -> not j.j_retried) orphans
              in
              List.iter
                (fun j ->
                  j.j_retried <- true;
                  shard.sh_retries <- shard.sh_retries + 1)
                retry;
              List.iter
                (fun j ->
                  j.j_terminal <-
                    Some
                      (crash_terminal ~job:j.j_id
                         "shard died re-running this job (retried once)"))
                fail;
              Condition.broadcast t.cond;
              Some (shard, broken, retry)
            end)
  in
  match actions with
  | None -> ()
  | Some (shard, broken, retry) ->
      List.iter (fun j -> ignore (Thread.create (fun () -> retry_job t j) ())) retry;
      if not broken then
        schedule_restart t shard (backoff_delay shard.sh_consecutive)

let all_reaped t =
  with_mu t (fun () ->
      Array.for_all
        (fun s -> match s.sh_state with Running _ -> false | _ -> true)
        t.shards)

let monitor_loop t =
  let rec loop () =
    match Unix.wait () with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        if not t.stopping then begin
          (* no children yet (all restarts pending): poll gently *)
          Thread.delay 0.05;
          loop ()
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | pid, status ->
        handle_death t pid status;
        if not (t.stopping && all_reaped t) then loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?(shards = 2) ?(workers = 1) ?queue_capacity ?registry_capacity
    ~resolve ~params () =
  if shards < 1 then invalid_arg "Supervisor.create: shards must be >= 1";
  let shard i =
    { sh_index = i;
      sh_state = Starting;
      sh_restarts = 0;
      sh_consecutive = 0;
      sh_crash_exits = 0;
      sh_crash_signals = 0;
      sh_retries = 0;
      sh_shed = 0;
      sh_times = Array.make window_size 0.0;
      sh_ntimes = 0 }
  in
  let ring =
    Array.init (shards * vnodes_per_shard) (fun k ->
        let i = k / vnodes_per_shard and v = k mod vnodes_per_shard in
        (ring_hash (Printf.sprintf "shard:%d:vnode:%d" i v), i))
  in
  Array.sort compare ring;
  { shards = Array.init shards shard;
    ring;
    workers;
    queue_capacity;
    registry_capacity;
    resolve;
    params;
    mu = Mutex.create ();
    cond = Condition.create ();
    jobs = Hashtbl.create 64;
    next_job = 0;
    stopping = false;
    fork_hooks = [];
    monitor = None;
    readers = [] }

let on_child_fork t f = with_mu t (fun () -> t.fork_hooks <- f :: t.fork_hooks)

let start t =
  with_mu t (fun () ->
      Array.iter
        (fun s -> if s.sh_state = Starting then ignore (spawn_locked t s))
        t.shards);
  t.monitor <- Some (Thread.create (fun () -> monitor_loop t) ())

let pids t =
  with_mu t (fun () ->
      Array.to_list t.shards
      |> List.filter_map (fun s ->
             match s.sh_state with Running p -> Some p.pr_pid | _ -> None))

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let fresh_job_id_locked t =
  let rec go () =
    t.next_job <- t.next_job + 1;
    let id = Printf.sprintf "job-%d" t.next_job in
    if Hashtbl.mem t.jobs id then go () else id
  in
  go ()

(* Deadline-aware shedding: reject at dispatch when the job's whole
   deadline cannot even cover the target shard's observed p95 service
   time — the job would all but surely expire after consuming a shard
   slot. Needs >= 8 observations before it trusts the window. *)
let shed_check_locked shard ~op ~job deadline =
  match deadline with
  | None -> None
  | Some d -> (
      match observed_p95 shard with
      | Some p95 when d < p95 ->
          shard.sh_shed <- shard.sh_shed + 1;
          Some
            (Protocol.error ~job ~op
               ~kind:(Fault.kind_name Fault.Shed)
               ~detail:
                 (Printf.sprintf
                    "deadline %.3fs below shard %d's observed p95 service \
                     time %.3fs"
                    d shard.sh_index p95)
               ())
      | _ -> None)

(* Forward a registered job's line and relay the shard's ack.
   If the shard dies before acking, the monitor has either retried the
   job (answer: accepted) or set its terminal (answer: that failure). *)
let dispatch t shard proc job ~op =
  let reply = round_trip t shard proc job.j_line in
  with_mu t (fun () ->
      match reply with
      | Some r ->
          if not (envelope_ok r) then Hashtbl.remove t.jobs job.j_id;
          r
      | None -> (
          match job.j_terminal with
          | Some term when not (envelope_ok term) ->
              Hashtbl.remove t.jobs job.j_id;
              term
          | _ ->
              (* retried onto a survivor: accepted after all *)
              Protocol.ok ~job:job.j_id ~op
                [ ("state", Export.jstr "queued"); ("retried", "true") ]))

(* Admission, shared by submit and resubmit: refuse a client id already
   taken, pick the target shard ([target] answers the refusal when there
   is none), shed against its p95, register the job under the client's id
   or a fresh one, and forward its line. *)
let admit t json ~op ~chosen ~deadline ~fp target =
  let outcome =
    with_mu t (fun () ->
        match chosen with
        | Some id when Hashtbl.mem t.jobs id ->
            Error (Protocol.duplicate_job ~op id)
        | _ -> (
            match target () with
            | Error reply -> Error reply
            | Ok (shard, proc) -> (
                let id =
                  match chosen with
                  | Some id -> id
                  | None -> fresh_job_id_locked t
                in
                match shed_check_locked shard ~op ~job:id deadline with
                | Some shed -> Error shed
                | None ->
                    let job =
                      { j_id = id;
                        j_line = Protocol.forward_line ~job:id json;
                        j_fp = fp;
                        j_shard = shard.sh_index;
                        j_retried = false;
                        j_started = Timer.now ();
                        j_terminal = None }
                    in
                    Hashtbl.replace t.jobs id job;
                    Ok (shard, proc, job))))
  in
  match outcome with
  | Error reply -> reply
  | Ok (shard, proc, job) -> dispatch t shard proc job ~op

let handle_submit t json (s : Protocol.submit) =
  match Service.submitted_design ~resolve:t.resolve s with
  | Error reply -> reply
  | Ok design ->
      let chosen = s.Protocol.sub_job in
      let fp = Registry.fingerprint design in
      admit t json ~op:"submit" ~chosen ~deadline:s.Protocol.sub_deadline ~fp
        (fun () ->
          match route_locked t fp with
          | Some target -> Ok target
          | None ->
              Error
                (Protocol.error ?job:chosen ~op:"submit" ~kind:"busy"
                   ~detail:"no live shard" ()))

let handle_resubmit t json (r : Protocol.resubmit) =
  let op = "resubmit" and chosen = r.Protocol.re_job in
  match with_mu t (fun () -> Hashtbl.find_opt t.jobs r.Protocol.re_parent) with
  | None ->
      Protocol.error ?job:chosen ~op ~kind:"unknown_job"
        ~detail:(Printf.sprintf "no such parent job %S" r.Protocol.re_parent)
        ()
  | Some parent ->
      admit t json ~op ~chosen ~deadline:r.Protocol.re_deadline ~fp:parent.j_fp
        (fun () ->
          (* Affinity: the parent's shard holds the prepared artifacts the
             ECO path warm-starts from. *)
          let home = t.shards.(parent.j_shard) in
          match home.sh_state with
          | Running proc -> Ok (home, proc)
          | Starting | Broken ->
              Error
                (Protocol.error ?job:chosen ~op
                   ~kind:(Fault.kind_name Fault.Shard_crash)
                   ~detail:
                     (Printf.sprintf
                        "parent job %S's shard %d is down; its artifacts are \
                         lost"
                        r.Protocol.re_parent parent.j_shard)
                   ()))

(* Status/cancel of a finished job is answered from the parent's own
   terminal record — a restarted shard has a fresh scheduler that no
   longer knows jobs from before its crash. *)
let terminal_state env =
  if envelope_ok env then "completed"
  else
    match Protocol.Json.parse env with
    | Ok j -> (
        match Protocol.Json.member "error" j with
        | Some e -> (
            match Protocol.Json.member "kind" e with
            | Some (Protocol.Json.Str "cancelled") -> "cancelled"
            | Some (Protocol.Json.Str "deadline") -> "expired"
            | _ -> "failed")
        | None -> "failed")
    | Error _ -> "failed"

let forward_simple t json ~op id =
  let target =
    with_mu t (fun () ->
        match Hashtbl.find_opt t.jobs id with
        | None -> `Unknown
        | Some j -> (
            match j.j_terminal with
            | Some env -> `Terminal env
            | None -> (
                let shard = t.shards.(j.j_shard) in
                match shard.sh_state with
                | Running proc -> `Forward (shard, proc)
                | Starting | Broken -> `Down)))
  in
  match target with
  | `Unknown -> Protocol.unknown_job ~op id
  | `Terminal env -> (
      let state = terminal_state env in
      match op with
      | "status" ->
          Protocol.ok ~job:id ~op [ ("state", Export.jstr state) ]
      | _ ->
          Protocol.error ~job:id ~op ~kind:"validation"
            ~detail:(Printf.sprintf "job is already %s" state)
            ())
  | `Down ->
      Protocol.error ~job:id ~op ~kind:"busy"
        ~detail:"job's shard is restarting; try again" ()
  | `Forward (shard, proc) -> (
      match send_sync t shard proc (Protocol.Json.to_string json) with
      | None ->
          Protocol.error ~job:id ~op ~kind:"busy"
            ~detail:"job's shard is restarting; try again" ()
      | Some sw -> (
          match await_sync t sw with
          | Some reply -> reply
          | None ->
              Protocol.error ~job:id ~op
                ~kind:(Fault.kind_name Fault.Shard_crash)
                ~detail:"shard died while answering" ()))

let handle_result t id =
  with_mu t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> Protocol.unknown_job ~op:"result" id
      | Some j ->
          while j.j_terminal = None do
            Condition.wait t.cond t.mu
          done;
          Option.get j.j_terminal)

(* Aggregated stats: every live shard's counters summed field by field
   over {!Service}'s counter set, plus the fault-tolerance counters each
   shard record keeps (summed in the [supervisor] block, listed in the
   [shards] array). Shards are queried synchronously one by one — every
   shard op is non-blocking, so this is bounded by pipe round-trips. *)
let handle_stats t =
  let procs =
    with_mu t (fun () ->
        Array.to_list t.shards
        |> List.filter_map (fun s ->
               match s.sh_state with
               | Running p -> Some (s, p)
               | _ -> None))
  in
  let replies =
    List.filter_map
      (fun (shard, proc) ->
        Option.bind (round_trip t shard proc {|{"op":"stats"}|}) (fun line ->
            Result.to_option (Protocol.Json.parse line)))
      procs
  in
  let sum block counters =
    List.map
      (fun (k, _) ->
        ( k,
          List.fold_left
            (fun acc j ->
              match Option.bind (block j) (Protocol.Json.member k) with
              | Some (Protocol.Json.Num n) -> acc + int_of_float n
              | _ -> acc)
            0 replies ))
      counters
  in
  let shard_json s =
    let state =
      match s.sh_state with
      | Running _ -> "running"
      | Starting -> "restarting"
      | Broken -> "broken"
    in
    Printf.sprintf
      "{\"index\":%d,\"state\":%s,\"restarts\":%d,\"retries\":%d,\"shed\":%d,\
       \"crash_exits\":%d,\"crash_signals\":%d,\"samples\":%d,\"p95_seconds\":%s}"
      s.sh_index (Export.jstr state) s.sh_restarts s.sh_retries s.sh_shed
      s.sh_crash_exits s.sh_crash_signals
      (min s.sh_ntimes window_size)
      (match observed_p95 s with
      | Some p -> Export.jfloat p
      | None -> "null")
  in
  let extra =
    with_mu t (fun () ->
        let total f =
          string_of_int (Array.fold_left (fun acc s -> acc + f s) 0 t.shards)
        in
        [ ( "supervisor",
            Export.jobj
              [ ("shards", string_of_int (Array.length t.shards));
                ("restarts", total (fun s -> s.sh_restarts));
                ("retries", total (fun s -> s.sh_retries));
                ("shed", total (fun s -> s.sh_shed));
                ("crash_exits", total (fun s -> s.sh_crash_exits));
                ("crash_signals", total (fun s -> s.sh_crash_signals)) ] );
          ( "shards",
            "["
            ^ String.concat "," (Array.to_list (Array.map shard_json t.shards))
            ^ "]" ) ])
  in
  Service.stats_reply ~extra
    ~counts:(sum Option.some Service.stats_counters)
    ~registry:(sum (Protocol.Json.member "registry") Service.registry_counters)
    ~capacity:t.registry_capacity ()

let handle_line t =
  Protocol.handle_line (fun json -> function
    | Protocol.Submit s -> handle_submit t json s
    | Protocol.Resubmit r -> handle_resubmit t json r
    | Protocol.Status id -> forward_simple t json ~op:"status" id
    | Protocol.Result id -> handle_result t id
    | Protocol.Cancel id -> forward_simple t json ~op:"cancel" id
    | Protocol.Stats -> handle_stats t)

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)
(* ------------------------------------------------------------------ *)

let shutdown t =
  let procs =
    with_mu t (fun () ->
        t.stopping <- true;
        Array.to_list t.shards
        |> List.filter_map (fun s ->
               match s.sh_state with
               | Running p -> Some p
               | _ -> None))
  in
  (* EOF on the request pipes: each shard drains its accepted jobs,
     pushes their terminal envelopes and exits 0. *)
  List.iter (fun p -> close_quiet p.pr_wfd) procs;
  (match t.monitor with
  | Some th -> Thread.join th
  | None ->
      List.iter
        (fun p -> try ignore (Unix.waitpid [] p.pr_pid) with Unix.Unix_error _ -> ())
        procs);
  (* Readers see EOF once their shard exits; join them so no thread is
     still inside supervisor state when the process tears down. *)
  List.iter Thread.join t.readers;
  (* Unblock any residual result waiters (jobs whose terminal never
     arrived — e.g. a shard that died during the drain). *)
  with_mu t (fun () ->
      Hashtbl.iter
        (fun _ j ->
          if j.j_terminal = None then
            j.j_terminal <-
              Some (crash_terminal ~job:j.j_id "service shut down"))
        t.jobs;
      Condition.broadcast t.cond)
