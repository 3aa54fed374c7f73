(* The ledger record (a full run of every workload, one child process
   each, written as one JSON file of rows plus machine facts) and the
   comparison of two records against the bounds in BENCHMARK.json. *)

module Json = Operon_service.Protocol.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_json what text =
  match Json.parse text with
  | Ok v -> v
  | Error (off, msg) -> failwith (Printf.sprintf "%s: byte %d: %s" what off msg)

let member k v = Json.member k v

let str k v = match member k v with Some (Json.Str s) -> s | _ -> ""

let num k v = match member k v with Some (Json.Num x) -> x | _ -> nan

let list k v = match member k v with Some (Json.Arr l) -> l | _ -> []

let git_rev () =
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev -> String.trim rev
      | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

let today () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d%02d%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

(* Run one workload in a child process of this executable and return its
   rows and result line. *)
let run_child ~workload ~seed ~seconds ~trace =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; string_of_float seconds; "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_lines ic in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: rest ->
      let result = parse_json workload last in
      let rows =
        List.filter_map
          (fun l ->
            match Json.parse l with
            | Ok row when member "metric" row <> None -> Some l
            | _ -> None)
          (List.rev rest)
      in
      (rows, result)
  | _ -> failwith (Printf.sprintf "workload %s: child run failed" workload)

(* The runs of one workload follow each other, so that host speed drifts
   less between them than between whole passes over all workloads. *)
let ledger ~seed ~seconds ~runs ~workloads ~out =
  let results = Array.make runs [] and rows = Array.make runs [] in
  List.iter
    (fun (w : Workload.t) ->
      for k = 0 to runs - 1 do
        List.iter
          (fun trace ->
            Printf.eprintf "ledger: %s, run %d, trace %b\n%!" w.Workload.name (k + 1) trace;
            let r, result = run_child ~workload:w.Workload.name ~seed ~seconds ~trace in
            rows.(k) <- rows.(k) @ r;
            results.(k) <-
              results.(k)
              @ [ Printf.sprintf
                    "{\"workload\":%S,\"trace\":%b,\"correct\":%b,\"attempted\":%.0f,\"failed\":%.0f}"
                    w.Workload.name trace
                    (member "correct" result = Some (Json.Bool true))
                    (num "attempted" result) (num "failed" result) ])
          [ false; true ]
      done)
    workloads;
  let body =
    String.concat ",\n"
      (List.init runs (fun k ->
           Printf.sprintf "{\"results\":[\n%s\n],\n\"rows\":[\n%s\n]}"
             (String.concat ",\n" results.(k)) (String.concat ",\n" rows.(k))))
  in
  let facts =
    Printf.sprintf
      "{\"nproc\":%d,\"ocaml_version\":%S,\"git_rev\":%S,\"date\":%S,\"seed\":%d,\"seconds\":%s,\"runs\":%d}"
      (Domain.recommended_domain_count ()) Sys.ocaml_version (git_rev ()) (today ())
      seed (Run.json_number seconds) runs
  in
  let text =
    Printf.sprintf "{\"schema\":\"operon-ledger/1\",\n\"facts\":%s,\n\"runs\":[\n%s\n]}\n"
      facts body
  in
  Out_channel.with_open_bin out (fun oc -> output_string oc text);
  Printf.eprintf "ledger: wrote %s\n%!" out

(* --- compare --- *)

type spec = { name : string; unit : string; lower : bool; bound : float option }

(* The end-to-end specs, the per-layer specs and the workload names of a
   BENCHMARK.json. *)
let bench_specs path =
  let b = parse_json path (read_file path) in
  let spec j =
    { name = str "name" j;
      unit = str "unit" j;
      lower = str "better" j = "lower";
      bound = (match member "bound" j with Some (Json.Num x) -> Some x | _ -> None) }
  in
  ( List.map spec (list "end_to_end" b),
    List.map spec (list "per_layer" b),
    List.map (str "name") (list "workloads" b) )

(* [path] or [path#k]: every run of a record, or only its k-th. *)
let load arg =
  let path, only =
    match String.rindex_opt arg '#' with
    | Some i -> (
        match int_of_string_opt (String.sub arg (i + 1) (String.length arg - i - 1)) with
        | Some k -> (String.sub arg 0 i, Some k)
        | None -> (arg, None))
    | None -> (arg, None)
  in
  let r = parse_json path (read_file path) in
  let runs = list "runs" r in
  let runs =
    match only with
    | None -> runs
    | Some k when k >= 0 && k < List.length runs -> [ List.nth runs k ]
    | Some k -> failwith (Printf.sprintf "%s has no run %d" path k)
  in
  let seed = match member "facts" r with Some f -> num "seed" f | None -> nan in
  (seed, runs)

let values runs ~workload ~metric =
  List.concat_map
    (fun run ->
      List.filter_map
        (fun row ->
          if str "workload" row = workload && str "case" row = "all"
             && str "metric" row = metric
          then Some (num "value" row)
          else None)
        (list "rows" run))
    runs

let failed runs =
  List.fold_left
    (fun acc run ->
      List.fold_left (fun acc res -> acc +. num "failed" res) acc (list "results" run))
    0.0 runs

let median l = Operon_util.Stats.median (Array.of_list l)

(* The spread shown next to a median: the run's own quartiles when it
   recorded them, else the range over runs. *)
let quartiles runs ~workload ~metric vs =
  match
    ( values runs ~workload ~metric:(metric ^ ".p25"),
      values runs ~workload ~metric:(metric ^ ".p75") )
  with
  | (_ :: _ as q1), (_ :: _ as q3) -> (median q1, median q3)
  | _ -> (List.fold_left Float.min infinity vs, List.fold_left Float.max neg_infinity vs)

(* Per-layer metrics that are measured rather than counted, and so only
   warn: times, the trace overhead, and allocation (which repeats exactly
   on one domain but not quite on two). Every other per-layer metric is a
   count that must repeat exactly at the same seed. *)
let measured_units = [ "s"; "frac"; "Mw" ]
let timing_warn = 0.25

let compare ~bench old_arg new_arg =
  let e2e, per_layer, _ = bench_specs bench in
  let old_seed, old_runs = load old_arg and new_seed, new_runs = load new_arg in
  if old_seed <> new_seed then
    failwith
      (Printf.sprintf "records use different seeds (%g vs %g): counters are not comparable"
         old_seed new_seed);
  let bad = ref 0 in
  let workloads = List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all in
  Printf.printf "%-11s %-19s %12s %25s %12s %25s %8s  %s\n" "workload" "metric" "old"
    "[q1, q3]" "new" "[q1, q3]" "delta" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun s ->
          let ov = values old_runs ~workload ~metric:s.name
          and nv = values new_runs ~workload ~metric:s.name in
          if ov <> [] && nv <> [] then begin
            let om = median ov and nm = median nv in
            let oq1, oq3 = quartiles old_runs ~workload ~metric:s.name ov
            and nq1, nq3 = quartiles new_runs ~workload ~metric:s.name nv in
            let delta = if om = 0.0 then 0.0 else (nm -. om) /. Float.abs om in
            let worse = if s.lower then delta else -.delta in
            let bound = Option.value ~default:0.0 s.bound in
            let verdict =
              if worse > bound then (incr bad; "REGRESSION") else "ok"
            in
            Printf.printf "%-11s %-19s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %+7.1f%%  %s (bound %g%%)\n"
              workload s.name om oq1 oq3 nm nq1 nq3 (100.0 *. delta) verdict
              (100.0 *. bound)
          end)
        e2e;
      List.iter
        (fun s ->
          let ov = values old_runs ~workload ~metric:s.name
          and nv = values new_runs ~workload ~metric:s.name in
          if ov <> [] && nv <> [] then
            if List.mem s.unit measured_units then begin
              let om = median ov and nm = median nv in
              let worse = if s.lower then nm -. om else om -. nm in
              (* A fraction is compared in points: the trace overhead sits
                 near zero, where a relative change means nothing. *)
              let worse = if s.unit = "frac" then worse else worse /. om in
              if worse > timing_warn then
                Printf.printf "%-11s %-19s %12.6g %12.6g  warn: worse by %.0f%s\n"
                  workload s.name om nm (100.0 *. worse)
                  (if s.unit = "frac" then " points" else "%")
            end
            else if List.exists (fun v -> v <> List.hd ov) (ov @ nv) then begin
              incr bad;
              Printf.printf "%-11s %-19s DRIFT: old %s, new %s\n" workload s.name
                (String.concat " " (List.map (Printf.sprintf "%.17g") ov))
                (String.concat " " (List.map (Printf.sprintf "%.17g") nv))
            end)
        per_layer)
    workloads;
  if failed new_runs > failed old_runs then begin
    incr bad;
    Printf.printf "failed ops: %.0f before, %.0f after\n" (failed old_runs) (failed new_runs)
  end;
  Printf.printf "%s\n" (if !bad = 0 then "compare: no regression" else Printf.sprintf "compare: %d problem(s)" !bad);
  !bad = 0
