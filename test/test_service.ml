(* Batch synthesis service: served results byte-identical to single-shot
   runs at any worker count, structured busy rejection on a full queue,
   cancellation and deadline expiry as error envelopes that leave the
   pool serving, and exact stats counters over a scripted session. *)

open Operon_optical
open Operon
open Operon_benchgen
open Operon_service

let params = Params.default

let resolve ~case ~seed =
  match String.lowercase_ascii case with
  | "tiny" -> Some (Cases.tiny ?seed ())
  | "small" -> Some (Cases.small ?seed ())
  | _ -> None

let make ?(workers = 1) ?(capacity = 8) () =
  Service.create ~workers ~capacity ~resolve ~params ()

let handle svc line =
  match Service.handle_line svc line with
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

let find_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then None
    else if String.sub haystack i n = needle then Some i
    else go (i + 1)
  in
  go 0

(* The result document is the envelope's final field: everything between
   ["result":] and the envelope's closing brace, verbatim bytes. *)
let result_payload line =
  let marker = {|,"result":|} in
  match find_sub line marker with
  | None -> Alcotest.fail (Printf.sprintf "no result payload in %s" line)
  | Some i ->
      let start = i + String.length marker in
      String.sub line start (String.length line - start - 1)

(* ------------------------------------------------------------------ *)
(* (a) Served result bytes = single-shot Flow.synthesize bytes         *)
(* ------------------------------------------------------------------ *)

let serve_tiny ~workers =
  let svc = make ~workers () in
  Service.start svc;
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      let sub = parse (handle svc {|{"op":"submit","case":"tiny","job":"a"}|}) in
      Alcotest.(check bool) "submit accepted" true (ok_field sub);
      Alcotest.(check string) "queued" "queued" (str_field "state" sub);
      let res = handle svc {|{"op":"result","job":"a"}|} in
      let j = parse res in
      Alcotest.(check bool) "result ok" true (ok_field j);
      Alcotest.(check string) "completed" "completed" (str_field "state" j);
      result_payload res)

let test_served_bytes_identical () =
  (* The submit defaults mirror the protocol: lr, 60 s budget, cache on,
     flow seed 42 — and "tiny" with no seed override. *)
  let config = Flow.Config.make ~mode:Flow.Lr ~ilp_budget:60.0 ~cache:true params in
  let single = Export.flow_to_json ~timings:false
      (Flow.synthesize config (Cases.tiny ())) in
  Alcotest.(check string) "1 worker = single-shot" single (serve_tiny ~workers:1);
  Alcotest.(check string) "4 workers = single-shot" single (serve_tiny ~workers:4)

let test_repeat_submit_reuses_registry () =
  let svc = make () in
  Service.start svc;
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      ignore (handle svc {|{"op":"submit","case":"tiny","job":"a"}|});
      let first = result_payload (handle svc {|{"op":"result","job":"a"}|}) in
      ignore (handle svc {|{"op":"submit","case":"tiny","job":"b"}|});
      let second = result_payload (handle svc {|{"op":"result","job":"b"}|}) in
      Alcotest.(check string) "reused prepare, identical bytes" first second;
      let stats = parse (handle svc {|{"op":"stats"}|}) in
      match Protocol.Json.member "registry" stats with
      | Some reg ->
          Alcotest.(check int) "one entry" 1 (int_field "entries" reg);
          Alcotest.(check int) "one hit" 1 (int_field "hits" reg);
          Alcotest.(check int) "one miss" 1 (int_field "misses" reg)
      | None -> Alcotest.fail "stats must carry registry counters")

(* ------------------------------------------------------------------ *)
(* (b) Full queue rejects with a structured busy response              *)
(* ------------------------------------------------------------------ *)

let test_full_queue_busy () =
  (* Capacity 1, workers not started: the first submit fills the queue
     deterministically, the second must bounce. *)
  let svc = make ~capacity:1 () in
  let a = parse (handle svc {|{"op":"submit","case":"tiny","job":"a"}|}) in
  Alcotest.(check bool) "first accepted" true (ok_field a);
  let b = parse (handle svc {|{"op":"submit","case":"tiny","job":"b"}|}) in
  Alcotest.(check bool) "second rejected" false (ok_field b);
  Alcotest.(check string) "busy kind" "busy" (error_kind b);
  Alcotest.(check string) "op echoed" "submit" (str_field "op" b);
  let stats = parse (handle svc {|{"op":"stats"}|}) in
  Alcotest.(check int) "rejected counted" 1 (int_field "rejected" stats);
  Alcotest.(check int) "queue depth" 1 (int_field "queue_depth" stats);
  (* The rejected id is free for reuse, and the pool drains fine. *)
  Service.start svc;
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      let r = parse (handle svc {|{"op":"result","job":"a"}|}) in
      Alcotest.(check string) "queued job completes" "completed"
        (str_field "state" r);
      let b2 = parse (handle svc {|{"op":"submit","case":"tiny","job":"b"}|}) in
      Alcotest.(check bool) "rejected id reusable" true (ok_field b2);
      let r2 = parse (handle svc {|{"op":"result","job":"b"}|}) in
      Alcotest.(check string) "resubmit completes" "completed"
        (str_field "state" r2))

(* ------------------------------------------------------------------ *)
(* (c) Cancellation and deadline expiry leave the pool serving         *)
(* ------------------------------------------------------------------ *)

let test_cancel_and_deadline () =
  let svc = make () in
  ignore (handle svc {|{"op":"submit","case":"tiny","job":"a"}|});
  ignore (handle svc {|{"op":"submit","case":"tiny","job":"b"}|});
  let c = parse (handle svc {|{"op":"cancel","job":"b"}|}) in
  Alcotest.(check bool) "cancel ok" true (ok_field c);
  Alcotest.(check string) "cancelled state" "cancelled" (str_field "state" c);
  (* An already-expired deadline: the worker must fail the job, not run it. *)
  ignore
    (handle svc {|{"op":"submit","case":"tiny","job":"c","deadline":0}|});
  Alcotest.(check string) "status before start" "queued"
    (str_field "state" (parse (handle svc {|{"op":"status","job":"a"}|})));
  Service.start svc;
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      let rb = parse (handle svc {|{"op":"result","job":"b"}|}) in
      Alcotest.(check bool) "cancelled result is an error" false (ok_field rb);
      Alcotest.(check string) "cancelled kind" "cancelled" (error_kind rb);
      let rc = parse (handle svc {|{"op":"result","job":"c"}|}) in
      Alcotest.(check bool) "expired result is an error" false (ok_field rc);
      Alcotest.(check string) "deadline kind" "deadline" (error_kind rc);
      let ra = parse (handle svc {|{"op":"result","job":"a"}|}) in
      Alcotest.(check string) "untouched job completes" "completed"
        (str_field "state" ra);
      (* Cancel after completion is a validation error, not a crash. *)
      let late = parse (handle svc {|{"op":"cancel","job":"a"}|}) in
      Alcotest.(check string) "late cancel" "validation" (error_kind late);
      (* The pool is still serving after every failure mode above. *)
      ignore (handle svc {|{"op":"submit","case":"tiny","job":"d"}|});
      let rd = parse (handle svc {|{"op":"result","job":"d"}|}) in
      Alcotest.(check string) "pool still serving" "completed"
        (str_field "state" rd);
      let stats = parse (handle svc {|{"op":"stats"}|}) in
      Alcotest.(check int) "expired counted" 1 (int_field "expired" stats);
      Alcotest.(check int) "cancelled counted" 1 (int_field "cancelled" stats))

(* ------------------------------------------------------------------ *)
(* Protocol errors                                                     *)
(* ------------------------------------------------------------------ *)

let test_protocol_errors () =
  let svc = make () in
  Alcotest.(check bool) "blank line ignored" true
    (Service.handle_line svc "   " = None);
  Alcotest.(check string) "malformed json" "parse_error"
    (error_kind (parse (handle svc "{nope")));
  (let r = parse (handle svc "{nope") in
   match
     Protocol.Json.(member "error" r |> Option.get |> member "offset")
   with
   | Some (Protocol.Json.Num n) ->
       Alcotest.(check bool) "parse offset in range" true
         (n >= 0.0 && n <= 5.0)
   | _ -> Alcotest.fail "parse_error envelope missing offset");
  (let long = "{\"op\":\"stats\"," ^ String.make Service.max_line_bytes ' ' in
   Alcotest.(check string) "oversized line" "parse_error"
     (error_kind (parse (handle svc long))));
  Alcotest.(check string) "unknown op" "validation"
    (error_kind (parse (handle svc {|{"op":"frobnicate"}|})));
  Alcotest.(check string) "unknown case" "validation"
    (error_kind (parse (handle svc {|{"op":"submit","case":"nosuch"}|})));
  Alcotest.(check string) "unknown job" "unknown_job"
    (error_kind (parse (handle svc {|{"op":"status","job":"ghost"}|})));
  Alcotest.(check int) "protocol version stamped" Protocol.schema_version
    (int_field "schema_version" (parse (handle svc {|{"op":"stats"}|})))

(* Integer fields hold an [int] exactly or are rejected, and the thermal
   spec's grid, hotspot count and amplitude are capped at what the map
   generator accepts. Parse level only: no request here reaches a queue
   or builds a map. *)
let test_protocol_bounds () =
  let verdict line =
    match Protocol.parse_request line with
    | Ok _ -> "ok"
    | Error e -> e.Protocol.err_kind
  in
  let submit extra = {|{"op":"submit","case":"tiny",|} ^ extra ^ "}" in
  let thermal fields = submit ({|"thermal":{|} ^ fields ^ "}") in
  List.iter
    (fun (name, line, want) -> Alcotest.(check string) name want (verdict line))
    [ ("seed 1e300", submit {|"seed":1e300|}, "validation");
      ("seed 2^62", submit {|"seed":4611686018427387904|}, "validation");
      ("seed max_int rounds to 2^62", submit {|"seed":4611686018427387903|}, "validation");
      ("seed 2^62 - 512", submit {|"seed":4611686018427387392|}, "ok");
      ("priority 1e300", submit {|"priority":1e300|}, "validation");
      ("priority -1e300", submit {|"priority":-1e300|}, "validation");
      ("priority min_int", submit {|"priority":-4611686018427387904|}, "ok");
      ("mutate.seed 1e19", submit {|"mutate":{"ratio":0.1,"seed":1e19}|}, "validation");
      ("resubmit priority 1e300",
       {|{"op":"resubmit","parent_job":"a","priority":1e300}|}, "validation");
      ("hotspots -1e300", thermal {|"hotspots":-1e300|}, "validation");
      ("hotspots 1e300", thermal {|"hotspots":1e300|}, "validation");
      ("hotspots cap", thermal (Printf.sprintf {|"hotspots":%d|}
                                  Operon_thermal.Thermal_map.max_hotspots), "ok");
      ("hotspots above cap", thermal (Printf.sprintf {|"hotspots":%d|}
                                        (Operon_thermal.Thermal_map.max_hotspots + 1)),
       "validation");
      ("grid 100000", thermal {|"grid":100000|}, "validation");
      ("grid cap", thermal (Printf.sprintf {|"grid":%d|} Operon_thermal.Thermal_map.max_grid),
       "ok");
      ("grid above cap", thermal (Printf.sprintf {|"grid":%d|}
                                    (Operon_thermal.Thermal_map.max_grid + 1)),
       "validation");
      ("map_seed 1e300", thermal {|"map_seed":1e300|}, "validation");
      ("amplitude cap", thermal {|"amplitude":1000|}, "ok");
      ("amplitude above cap", thermal {|"amplitude":1000.5|}, "validation");
      ("amplitude 1e308", thermal {|"amplitude":1e308,"hotspots":2|}, "validation");
      ("ambient cap", thermal {|"ambient":1414|}, "ok");
      ("ambient -cap", thermal {|"ambient":-1414|}, "ok");
      ("ambient 1e307", thermal {|"ambient":1e307|}, "validation");
      ("ambient below -cap", thermal {|"ambient":-1414.5|}, "validation") ];
  (* The detail names the field and the range the check enforces, and
     prints the rejected value in full. *)
  match Protocol.parse_request (submit {|"seed":4611686018427387903|}) with
  | Error e ->
      let d = e.Protocol.err_detail in
      Alcotest.(check bool) "one-line detail" false (String.contains d '\n');
      List.iter
        (fun part ->
          Alcotest.(check bool) ("detail has " ^ part) true (find_sub d part <> None))
        [ {|"seed"|}; "[-2^62, 2^62)"; "4.6116860184273879e+18" ]
  | Ok _ -> Alcotest.fail "seed max_int accepted"

(* ------------------------------------------------------------------ *)
(* Registry eviction vs. held entry locks                              *)
(* ------------------------------------------------------------------ *)

(* Property: an entry whose lock is held (a preparation or selection in
   flight) is never the LRU victim, however much eviction pressure
   concurrent submits of other designs apply — and a racing submit of
   the {e same} content-hash reuses that very entry once the lock
   frees, instead of re-preparing a fresh one. *)
let prop_locked_entry_survives_eviction =
  QCheck.Test.make ~name:"locked entry survives eviction pressure" ~count:8
    QCheck.(pair (int_range 4 12) (int_range 0 1000))
    (fun (pressure, base_seed) ->
      let reg = Registry.create ~capacity:1 () in
      let cfg = Flow.Config.make ~jobs:1 params in
      let locked_design = Cases.tiny ~seed:base_seed () in
      let entry, _ = Registry.find_or_prepare reg ~config:cfg locked_design in
      let release = Mutex.create () in
      Mutex.lock release;
      let held = Atomic.make false in
      let holder =
        Thread.create
          (fun () ->
            Registry.with_prepared entry (fun _ ->
                Atomic.set held true;
                (* park until the main thread frees us *)
                Mutex.lock release;
                Mutex.unlock release))
          ()
      in
      while not (Atomic.get held) do
        Thread.yield ()
      done;
      (* A racing submit of the same content-hash: blocks on the entry
         lock, must land on the same (un-evicted) entry afterwards. *)
      let racer =
        Thread.create
          (fun () -> Registry.find_or_prepare reg ~config:cfg locked_design)
          ()
      in
      (* Eviction pressure: distinct designs against capacity 1. *)
      for i = 1 to pressure do
        ignore
          (Registry.find_or_prepare reg ~config:cfg
             (Cases.tiny ~seed:(base_seed + (1000 * i)) ()))
      done;
      (* The locked entry cannot be evicted, so the table overflows by
         exactly one: the held entry plus the latest pressure design. *)
      let during = Registry.stats reg in
      Mutex.unlock release;
      Thread.join holder;
      Thread.join racer;
      let after =
        Registry.find_or_prepare reg ~config:cfg locked_design |> snd
      in
      during.Registry.entries = 2 && after)

(* ------------------------------------------------------------------ *)
(* (d) Exact counters over a scripted session                          *)
(* ------------------------------------------------------------------ *)

let test_stats_exact () =
  let svc = make ~capacity:1 () in
  ignore (handle svc {|{"op":"submit","case":"tiny","job":"A"}|});
  ignore (handle svc {|{"op":"submit","case":"tiny","job":"B"}|});  (* busy *)
  ignore (handle svc {|{"op":"cancel","job":"A"}|});
  Service.start svc;
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      ignore (handle svc {|{"op":"submit","case":"tiny","job":"C"}|});
      ignore (handle svc {|{"op":"result","job":"C"}|});
      ignore (handle svc {|{"op":"submit","case":"tiny","job":"D"}|});
      ignore (handle svc {|{"op":"result","job":"D"}|});
      let s = parse (handle svc {|{"op":"stats"}|}) in
      Alcotest.(check int) "submitted" 3 (int_field "submitted" s);
      Alcotest.(check int) "completed" 2 (int_field "completed" s);
      Alcotest.(check int) "failed" 0 (int_field "failed" s);
      Alcotest.(check int) "rejected" 1 (int_field "rejected" s);
      Alcotest.(check int) "cancelled" 1 (int_field "cancelled" s);
      Alcotest.(check int) "expired" 0 (int_field "expired" s);
      Alcotest.(check int) "queue drained" 0 (int_field "queue_depth" s);
      Alcotest.(check int) "workers" 1 (int_field "workers" s);
      match Protocol.Json.member "registry" s with
      | Some reg ->
          Alcotest.(check int) "registry entries" 1 (int_field "entries" reg);
          Alcotest.(check int) "registry hits" 1 (int_field "hits" reg);
          Alcotest.(check int) "registry misses" 1 (int_field "misses" reg)
      | None -> Alcotest.fail "stats must carry registry counters")

let () =
  Alcotest.run "service"
    [ ( "identity",
        [ Alcotest.test_case "served = single-shot, any workers" `Quick
            test_served_bytes_identical;
          Alcotest.test_case "registry reuse, identical bytes" `Quick
            test_repeat_submit_reuses_registry ] );
      ( "backpressure",
        [ Alcotest.test_case "full queue rejects busy" `Quick
            test_full_queue_busy ] );
      ( "lifecycle",
        [ Alcotest.test_case "cancel + deadline leave pool serving" `Quick
            test_cancel_and_deadline ] );
      ( "protocol",
        [ Alcotest.test_case "error envelopes" `Quick test_protocol_errors;
          Alcotest.test_case "integer and thermal bounds" `Quick test_protocol_bounds ] );
      ( "registry",
        [ QCheck_alcotest.to_alcotest prop_locked_entry_survives_eviction ] );
      ( "stats",
        [ Alcotest.test_case "exact counters" `Quick test_stats_exact ] ) ]
