(* Fault-isolated multi-process serving: round trips through the forked
   shard fleet, kill -9 of a shard mid-load losing zero accepted jobs,
   deadline shedding against the observed p95 window, and the socket
   transport's framing guarantees.

   This binary must never create a Domain in the parent process: the
   OCaml 5 runtime refuses [Unix.fork] once any domain has ever been
   created, and the supervisor forks its shards (and their restarts) for
   as long as it lives. The Domain pools live in the forked children
   only — so no in-process [Service] here. *)

open Operon_optical
open Operon_benchgen
open Operon_service
open Operon_util

let params = Params.default

let resolve ~case ~seed =
  match String.lowercase_ascii case with
  | "tiny" -> Some (Cases.tiny ?seed ())
  | "small" -> Some (Cases.small ?seed ())
  | _ -> None

let make ?(shards = 2) ?(workers = 1) () =
  let t = Supervisor.create ~shards ~workers ~resolve ~params () in
  Supervisor.start t;
  t

let handle t line =
  match Supervisor.handle_line t line with
  | Some r -> r
  | None -> Alcotest.fail (Printf.sprintf "no response to %s" line)

let parse line =
  match Protocol.Json.parse line with
  | Ok j -> j
  | Error (_, e) -> Alcotest.fail (Printf.sprintf "bad response %s: %s" line e)

let str_field k j =
  match Protocol.Json.member k j with
  | Some (Protocol.Json.Str s) -> s
  | _ -> Alcotest.fail (Printf.sprintf "missing string field %S" k)

let int_field k j =
  match Protocol.Json.member k j with
  | Some (Protocol.Json.Num n) -> int_of_float n
  | _ -> Alcotest.fail (Printf.sprintf "missing numeric field %S" k)

let ok_field j =
  match Protocol.Json.member "ok" j with
  | Some (Protocol.Json.Bool b) -> b
  | _ -> Alcotest.fail "missing ok field"

let error_kind j =
  match Protocol.Json.member "error" j with
  | Some e -> str_field "kind" e
  | None -> Alcotest.fail "expected an error envelope"

let supervisor_counter name j =
  match Protocol.Json.member "supervisor" j with
  | Some sup -> int_field name sup
  | None -> Alcotest.fail "stats envelope lacks a supervisor object"

(* Poll the stats envelope until [pred] holds or [timeout] elapses —
   crash detection and restart registration run on monitor threads. *)
let await_stats t ~timeout pred =
  let deadline = Timer.now () +. timeout in
  let rec go () =
    let j = parse (handle t {|{"op":"stats"}|}) in
    if pred j then j
    else if Timer.now () > deadline then
      Alcotest.fail "stats condition not reached before timeout"
    else begin
      Thread.delay 0.1;
      go ()
    end
  in
  go ()

let submit t ~job ~case ~seed ?deadline () =
  let d =
    match deadline with
    | None -> ""
    | Some d -> Printf.sprintf {|,"deadline":%g|} d
  in
  handle t
    (Printf.sprintf
       {|{"op":"submit","job":%S,"case":%S,"seed":%d,"mode":"lr"%s}|} job case
       seed d)

let result t ~job = handle t (Printf.sprintf {|{"op":"result","job":%S}|} job)

(* --------------------------------------------------------------- *)
(* Round trip                                                       *)
(* --------------------------------------------------------------- *)

let test_round_trip () =
  let t = make () in
  Fun.protect
    ~finally:(fun () -> Supervisor.shutdown t)
    (fun () ->
      Alcotest.(check int) "two shard pids" 2 (List.length (Supervisor.pids t));
      for i = 1 to 4 do
        let job = Printf.sprintf "rt%d" i in
        let ack = parse (submit t ~job ~case:"tiny" ~seed:i ()) in
        Alcotest.(check bool) "submit accepted" true (ok_field ack);
        Alcotest.(check string) "ack echoes job" job (str_field "job" ack)
      done;
      for i = 1 to 4 do
        let job = Printf.sprintf "rt%d" i in
        let r = parse (result t ~job) in
        Alcotest.(check bool) "job completed" true (ok_field r);
        Alcotest.(check string) "terminal state" "completed"
          (str_field "state" r)
      done;
      (* duplicate id, unknown case, unknown job *)
      ignore (submit t ~job:"dup" ~case:"tiny" ~seed:9 ());
      Alcotest.(check string) "duplicate id rejected" "validation"
        (error_kind (parse (submit t ~job:"dup" ~case:"tiny" ~seed:9 ())));
      Alcotest.(check string) "unknown case rejected" "validation"
        (error_kind (parse (submit t ~job:"x" ~case:"nope" ~seed:1 ())));
      Alcotest.(check string) "unknown job" "unknown_job"
        (error_kind (parse (result t ~job:"ghost")));
      (* protocol hardening is shared with the in-process service *)
      Alcotest.(check bool) "blank line ignored" true
        (Supervisor.handle_line t "   " = None);
      Alcotest.(check string) "garbage is parse_error" "parse_error"
        (error_kind (parse (handle t "{not json")));
      Alcotest.(check string) "oversized line is parse_error" "parse_error"
        (error_kind
           (parse (handle t (String.make (Protocol.max_line_bytes + 1) 'x'))));
      (* the forwarded print of a request can outgrow the client's line
         (each raw control byte escapes to six); the shard still takes
         it, as the in-process service does *)
      let junk = String.make (Protocol.max_line_bytes / 4) '\001' in
      let wide =
        Printf.sprintf
          {|{"op":"submit","job":"wide","case":"tiny","seed":3,"junk":"%s"}|}
          junk
      in
      Alcotest.(check bool) "wide request accepted" true
        (ok_field (parse (handle t wide)));
      Alcotest.(check bool) "wide request completes" true
        (ok_field (parse (result t ~job:"wide")));
      let stats = parse (handle t {|{"op":"stats"}|}) in
      Alcotest.(check int) "supervisor reports both shards" 2
        (supervisor_counter "shards" stats);
      Alcotest.(check int) "no crash yet" 0
        (supervisor_counter "crash_exits" stats + supervisor_counter "crash_signals" stats))

(* --------------------------------------------------------------- *)
(* Crash: kill -9 one shard mid-load                                *)
(* --------------------------------------------------------------- *)

let test_crash_loses_no_jobs () =
  let n = 40 in
  let t = make () in
  Fun.protect
    ~finally:(fun () -> Supervisor.shutdown t)
    (fun () ->
      for i = 1 to n do
        let ack =
          parse (submit t ~job:(Printf.sprintf "c%d" i) ~case:"small" ~seed:i ())
        in
        Alcotest.(check bool) "submit accepted" true (ok_field ack)
      done;
      (match Supervisor.pids t with
      | pid :: _ -> Unix.kill pid Sys.sigkill
      | [] -> Alcotest.fail "no running shard to kill");
      (* every accepted job must reach exactly one terminal; with a
         single kill, every orphan retries onto the survivor and
         completes — byte-identical to an undisturbed run *)
      let completed = ref 0 and crashed = ref 0 in
      for i = 1 to n do
        let r = parse (result t ~job:(Printf.sprintf "c%d" i)) in
        if ok_field r then begin
          Alcotest.(check string) "terminal state" "completed"
            (str_field "state" r);
          incr completed
        end
        else if error_kind r = "shard_crash" then incr crashed
        else
          Alcotest.fail
            (Printf.sprintf "job c%d: unexpected terminal kind %s" i
               (error_kind r))
      done;
      Alcotest.(check int) "no job lost" n (!completed + !crashed);
      Alcotest.(check int) "single kill: every orphan retried once" n
        !completed;
      let stats =
        await_stats t ~timeout:15.0 (fun j ->
            supervisor_counter "crash_signals" j >= 1
            && supervisor_counter "restarts" j >= 1)
      in
      Alcotest.(check bool) "restart counted" true
        (supervisor_counter "restarts" stats >= 1);
      (* the fleet is serving again after the restart *)
      ignore (submit t ~job:"after" ~case:"tiny" ~seed:99 ());
      let r = parse (result t ~job:"after") in
      Alcotest.(check bool) "fleet serves after restart" true (ok_field r))

(* --------------------------------------------------------------- *)
(* Deadline shedding                                                *)
(* --------------------------------------------------------------- *)

let test_shed () =
  (* one shard: every job routes to it, so its p95 window fills
     deterministically *)
  let t = make ~shards:1 () in
  Fun.protect
    ~finally:(fun () -> Supervisor.shutdown t)
    (fun () ->
      for i = 1 to 10 do
        let job = Printf.sprintf "w%d" i in
        ignore (submit t ~job ~case:"tiny" ~seed:i ());
        ignore (result t ~job)
      done;
      let shed =
        parse (submit t ~job:"late" ~case:"tiny" ~seed:77 ~deadline:1e-9 ())
      in
      Alcotest.(check string) "impossible deadline shed at dispatch" "shed"
        (error_kind shed);
      let stats = parse (handle t {|{"op":"stats"}|}) in
      Alcotest.(check bool) "shed counted" true
        (supervisor_counter "shed" stats >= 1);
      (* a feasible deadline still dispatches *)
      let ok = parse (submit t ~job:"fine" ~case:"tiny" ~seed:78 ~deadline:60.0 ()) in
      Alcotest.(check bool) "feasible deadline accepted" true (ok_field ok);
      ignore (result t ~job:"fine"))

(* --------------------------------------------------------------- *)
(* Transport framing                                                *)
(* --------------------------------------------------------------- *)

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let read_line_fd fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | _ ->
        if Bytes.get b 0 = '\n' then Some (Buffer.contents buf)
        else begin
          Buffer.add_char buf (Bytes.get b 0);
          go ()
        end
  in
  go ()

let expect_line fd what =
  match read_line_fd fd with
  | Some l -> l
  | None -> Alcotest.fail (Printf.sprintf "unexpected EOF reading %s" what)

let test_transport () =
  let path = Filename.temp_file "operon_transport" ".sock" in
  Sys.remove path;
  let listener = Transport.unix_listener path in
  let tr =
    Transport.start ~read_timeout:1.0 ~max_line:256
      ~listeners:[ listener ]
      ~handle:(fun line -> if line = "" then None else Some ("ack:" ^ line))
      ()
  in
  Fun.protect
    ~finally:(fun () -> Transport.stop tr)
    (fun () ->
      Alcotest.(check (list string)) "listener name" [ "unix:" ^ path ]
        (Transport.names tr);
      (* round trip over the socket *)
      let fd = connect_unix path in
      ignore (Unix.write_substring fd "hello\n" 0 6);
      Alcotest.(check string) "framed reply" "ack:hello"
        (expect_line fd "reply");
      (* a second request on the same connection *)
      ignore (Unix.write_substring fd "again\n" 0 6);
      Alcotest.(check string) "second reply" "ack:again"
        (expect_line fd "second reply");
      Unix.close fd;
      (* an unterminated line over max_line is answered with one
         parse_error envelope, then the connection closes *)
      let fd = connect_unix path in
      let big = String.make 300 'x' in
      ignore (Unix.write_substring fd big 0 (String.length big));
      let j = parse (expect_line fd "oversize envelope") in
      Alcotest.(check string) "oversize is parse_error" "parse_error"
        (error_kind j);
      Alcotest.(check bool) "connection closed after oversize" true
        (read_line_fd fd = None);
      Unix.close fd;
      (* an idle connection is answered with a timeout envelope *)
      let fd = connect_unix path in
      let j = parse (expect_line fd "timeout envelope") in
      Alcotest.(check string) "idle connection times out" "timeout"
        (error_kind j);
      Alcotest.(check bool) "connection closed after timeout" true
        (read_line_fd fd = None);
      Unix.close fd);
  if Sys.file_exists path then
    Alcotest.fail "stop did not unlink the unix socket"

let test_transport_tcp () =
  let listener = Transport.tcp_listener 0 in
  let port =
    match Transport.bound_port listener with
    | Some p -> p
    | None -> Alcotest.fail "tcp listener has no bound port"
  in
  let tr =
    Transport.start
      ~listeners:[ listener ]
      ~handle:(fun line -> Some ("tcp:" ^ line))
      ()
  in
  Fun.protect
    ~finally:(fun () -> Transport.stop tr)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd "ping\n" 0 5);
      Alcotest.(check string) "tcp round trip" "tcp:ping"
        (expect_line fd "tcp reply");
      Unix.close fd)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "supervisor"
    [ ( "transport",
        [ Alcotest.test_case "unix framing" `Quick test_transport;
          Alcotest.test_case "tcp round trip" `Quick test_transport_tcp ] );
      ( "supervisor",
        [ Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "kill -9 loses no jobs" `Quick
            test_crash_loses_no_jobs;
          Alcotest.test_case "deadline shed" `Quick test_shed ] ) ]
