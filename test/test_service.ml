(* Batch synthesis service: served results byte-identical to single-shot
   runs at any worker count, structured busy rejection on a full queue,
   cancellation and deadline expiry as error envelopes that leave the
   pool serving, exact stats counters over a scripted session, and
   fuzzers for the protocol's reader, its exact printer, the line the
   shard fleet forwards and the export/ECO baseline reader. *)

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
  (* The submit defaults mirror the protocol: lr, 60 s budget, flow
     seed 42 — and "tiny" with no seed override. *)
  let config = Flow.Config.make ~mode:Flow.Lr ~ilp_budget:60.0 params in
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
  (let long = "{\"op\":\"stats\"," ^ String.make Protocol.max_line_bytes ' ' in
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
(* Fuzzers: the reader never raises, the printer is exact              *)
(* ------------------------------------------------------------------ *)

module Json = Protocol.Json

let never_raises f x = match f x with _ -> true | exception _ -> false

(* Literal texts a request field may carry: well-formed values, values at
   and past every bound, exact-print cases (a ratio that a 9-digit print
   rounds, a budget no double holds, an underflow) and wrong types. *)
let field_texts =
  let open QCheck.Gen in
  let nums =
    [ "0"; "1"; "-1"; "7"; "42"; "0.1"; "0.25"; "0.2500000001"; "1e400";
      "-1e400"; "1e-400"; "60"; "1e300"; "2.5E-3"; "-0"; "1.";
      "0.30000000000000004"; "4611686018427387392"; "4611686018427387903";
      "123456789.123456789" ]
  in
  let strs =
    [ {|"tiny"|}; {|"small"|}; {|"nosuch"|}; {|"lr"|}; {|"ILP"|}; {|"a"|};
      {|""|}; {|"jé\n\/"|}; {|"😀"|} ]
  in
  let others = [ "true"; "false"; "null"; "[]"; "[0.5,2]"; "{}" ] in
  frequency
    [ (4, oneofl nums);
      (2, oneofl strs);
      (1, oneofl others);
      (1, map (Printf.sprintf "%.17g") (float_range (-1e6) 1e6)) ]

let obj_text fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

(* A subset of [keys], shuffled, each with a value from [value]. *)
let fields_gen keys value =
  let open QCheck.Gen in
  flatten_l
    (List.map (fun k -> opt ~ratio:0.6 (map (fun v -> (k, v)) (value k))) keys)
  >|= List.filter_map Fun.id
  >>= shuffle_l

let request_line_gen =
  let open QCheck.Gen in
  let mostly good = frequency [ (5, oneofl good); (1, field_texts) ] in
  let mutate =
    fields_gen [ "ratio"; "seed" ] (function
      | "ratio" -> mostly [ "0.2500000001"; "0.1"; "1"; "0.5"; "1e-300" ]
      | _ -> mostly [ "1"; "7"; "1e19" ])
    >|= obj_text
  in
  let thermal =
    fields_gen
      [ "hotspots"; "amplitude"; "decay"; "grid"; "ambient"; "map_seed"; "weights" ]
      (function
        | "weights" -> mostly [ "[0,0.5,1]"; "[2]"; "[]"; "[1e400]" ]
        | _ -> mostly [ "2"; "0.15"; "24"; "45.5"; "1000.5"; "1e307" ])
    >|= obj_text
  in
  let value = function
    | "op" ->
        oneofl
          [ {|"submit"|}; {|"submit"|}; {|"resubmit"|}; {|"SUBMIT"|};
            {|"status"|}; {|"stats"|}; {|"frobnicate"|}; "1" ]
    | "case" -> mostly [ {|"tiny"|}; {|"small"|} ]
    | "job" -> mostly [ {|"a"|}; {|"job-1"|}; {|"jé\n"|}; "null" ]
    | "parent_job" -> mostly [ {|"a"|}; {|"job-1"|} ]
    | "seed" -> mostly [ "1"; "7"; "42.0" ]
    | "mode" -> mostly [ {|"lr"|}; {|"ilp"|}; {|"ILP"|} ]
    | "ilp_budget" -> mostly [ "60"; "0.2500000001"; "1e300"; "1e400"; "5e-324" ]
    | "priority" -> mostly [ "0"; "3"; "-2" ]
    | "deadline" -> mostly [ "0"; "1.5"; "0.1"; "1e-9" ]
    | "cache" | "warm" -> mostly [ "true"; "false" ]
    | "mutate" -> frequency [ (3, mutate); (1, field_texts) ]
    | "thermal" -> frequency [ (3, thermal); (1, field_texts) ]
    | _ -> field_texts
  in
  fields_gen
    [ "op"; "case"; "job"; "parent_job"; "seed"; "mode"; "ilp_budget";
      "priority"; "deadline"; "cache"; "warm"; "mutate"; "thermal"; "junk" ]
    value
  >|= obj_text

(* Arbitrary bytes, and valid-looking requests truncated or with one
   byte overwritten. *)
let mangled_gen =
  let open QCheck.Gen in
  let truncated =
    request_line_gen >>= fun l ->
    int_bound (String.length l) >|= fun n -> String.sub l 0 n
  in
  let flipped =
    request_line_gen >>= fun l ->
    pair (int_bound (String.length l - 1)) char >|= fun (i, c) ->
    String.mapi (fun j x -> if j = i then c else x) l
  in
  frequency
    [ (1, string_size ~gen:char (int_bound 64));
      (2, truncated);
      (2, flipped);
      (1, request_line_gen) ]

let finite_json_gen =
  let open QCheck.Gen in
  let num =
    frequency
      [ (3, float_range (-1e6) 1e6);
        (2, map (fun f -> if Float.is_finite f then f else 0.0) float);
        (1, oneofl [ -0.0; 5e-324; max_float; -.max_float; 0.1; 0.2500000001 ]) ]
  in
  let str = string_size ~gen:char (int_bound 8) in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         let leaf =
           frequency
             [ (1, return Json.Null);
               (1, map (fun b -> Json.Bool b) bool);
               (3, map (fun f -> Json.Num f) num);
               (3, map (fun s -> Json.Str s) str) ]
         in
         if n = 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n - 1))));
               ( 1,
                 map (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair str (self (n - 1))))) ])

let prop_json_parse_total =
  QCheck.Test.make ~name:"Json.parse never raises" ~count:2000
    (QCheck.make ~print:String.escaped mangled_gen)
    (never_raises Json.parse)

let prop_json_round_trip =
  QCheck.Test.make ~name:"Json.to_string round-trips exactly" ~count:1000
    (QCheck.make ~print:Json.to_string finite_json_gen)
    (fun j -> Json.parse (Json.to_string j) = Ok j)

let prop_parse_request_total =
  QCheck.Test.make ~name:"parse_request never raises" ~count:2000
    (QCheck.make ~print:String.escaped mangled_gen)
    (never_raises Protocol.parse_request)

let with_job id = function
  | Protocol.Submit s -> Protocol.Submit { s with Protocol.sub_job = Some id }
  | Protocol.Resubmit r -> Protocol.Resubmit { r with Protocol.re_job = Some id }
  | other -> other

(* What a shard parses is what the client sent, with only the job id the
   fleet assigned: the property the fleet's byte-identity rests on. *)
let prop_forwarded_request =
  QCheck.Test.make ~name:"forwarded line parses back to the client's request"
    ~count:2000
    (QCheck.make ~print:Fun.id request_line_gen)
    (fun line ->
      match Protocol.parse_request line with
      | Ok (json, ((Protocol.Submit _ | Protocol.Resubmit _) as request)) -> (
          match Protocol.parse_request (Protocol.forward_line ~job:"job-7" json) with
          | Ok (_, forwarded) -> forwarded = with_job "job-7" request
          | Error _ -> false)
      | Ok _ | Error _ -> true)

(* A ratio that a 9-digit print rounds to 0.25 reaches the shard
   exactly, and a budget no double holds is refused at its literal, by
   the reader both serving modes share. *)
let test_forwarding_exact () =
  (match
     Protocol.parse_request
       {|{"op":"submit","case":"tiny","mutate":{"ratio":0.2500000001}}|}
   with
  | Ok (json, _) -> (
      match Protocol.parse_request (Protocol.forward_line ~job:"m" json) with
      | Ok (_, Protocol.Submit { Protocol.sub_mutate = Some m; sub_job; _ }) ->
          Alcotest.(check (float 0.0)) "ratio kept exactly" 0.2500000001
            m.Protocol.mut_ratio;
          Alcotest.(check (option string)) "job set" (Some "m") sub_job
      | _ -> Alcotest.fail "forwarded submit did not parse back")
  | Error _ -> Alcotest.fail "ratio request rejected");
  let line = {|{"op":"submit","case":"tiny","ilp_budget":1e400}|} in
  match Protocol.parse_request line with
  | Error e ->
      Alcotest.(check string) "overflow is a parse error" "parse_error"
        e.Protocol.err_kind;
      Alcotest.(check (option int)) "offset of the literal"
        (find_sub line "1e400") e.Protocol.err_offset
  | Ok _ -> Alcotest.fail "a budget no double holds was accepted"

(* Mutations of a real export document: any node of its [design] block
   replaced by a value of another shape or an extreme number, or a
   member dropped. The reader answers [Error], never an exception. *)
let prop_design_of_export_total =
  let doc =
    lazy
      (match
         Json.parse
           (Export.flow_to_json ~timings:false
              (Flow.synthesize (Flow.Config.make params) (Cases.tiny ())))
       with
       | Ok j -> j
       | Error (_, e) -> failwith e)
  in
  let replacement =
    QCheck.Gen.oneofl
      [ None; Some Json.Null; Some (Json.Num 0.0); Some (Json.Num (-1.0));
        Some (Json.Num 1e308); Some (Json.Num nan); Some (Json.Num infinity);
        Some (Json.Str "x"); Some (Json.Arr []); Some (Json.Arr [ Json.Num 1.0 ]);
        Some (Json.Obj []) ]
  in
  let rec size = function
    | Json.Arr items -> List.fold_left (fun n j -> n + size j) 1 items
    | Json.Obj fields -> List.fold_left (fun n (_, j) -> n + size j) 1 fields
    | _ -> 1
  in
  (* Replace (or drop, for [None]) the [k]-th node in preorder. *)
  let mutate k r json =
    let k = ref (k mod size json) in
    let rec go j =
      let here = !k = 0 in
      decr k;
      if here then r
      else
        match j with
        | Json.Arr items -> Some (Json.Arr (List.filter_map go items))
        | Json.Obj fields ->
            Some
              (Json.Obj
                 (List.filter_map
                    (fun (key, v) -> Option.map (fun v -> (key, v)) (go v))
                    fields))
        | leaf -> Some leaf
    in
    Option.value ~default:Json.Null (go json)
  in
  QCheck.Test.make ~name:"design_of_export never raises on mutated exports"
    ~count:500
    QCheck.(make Gen.(list_size (int_range 1 3) (pair (int_bound 1_000_000) replacement)))
    (fun edits ->
      let doc = Lazy.force doc in
      let design = Option.get (Json.member "design" doc) in
      let design = List.fold_left (fun j (k, r) -> mutate k r j) design edits in
      never_raises Design_io.design_of_export
        (Json.Obj [ ("design", design) ]))

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
          Alcotest.test_case "integer and thermal bounds" `Quick test_protocol_bounds;
          Alcotest.test_case "forwarding is exact" `Quick test_forwarding_exact ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_json_parse_total; prop_json_round_trip; prop_parse_request_total;
            prop_forwarded_request; prop_design_of_export_total ] );
      ( "registry",
        [ QCheck_alcotest.to_alcotest prop_locked_entry_survives_eviction ] );
      ( "stats",
        [ Alcotest.test_case "exact counters" `Quick test_stats_exact ] ) ]
