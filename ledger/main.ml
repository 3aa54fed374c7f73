(* OPERON ledger benchmark: one command that measures the flow end to end
   and layer by layer, checks every output, and records the result.

     main.exe --workload W --seed S --seconds T --trace 0|1
         one run of one workload; the last stdout line is the result JSON
     main.exe ledger [--seed S] [--seconds T] [--workload W] [--runs N] [--out FILE]
         every workload (or one), untraced then traced, each in a child
         process; writes one record of rows plus machine facts
     main.exe compare OLD.json[#k] NEW.json[#k] [--bench BENCHMARK.json]
         medians, quartiles and verdicts against the bounds; exits 1 on an
         end-to-end regression or a per-layer counter drift
     main.exe smoke [--bench BENCHMARK.json]
         one pass of every code path on tiny stand-in designs

   Run from the repository root, e.g. [dune exec ./ledger/main.exe -- ledger].
   See ledger/README.md for the workloads and metric definitions. *)

open Operon_benchgen

let results_dir = Filename.concat "ledger" "results"

(* [--key value] pairs; anything else is a usage error. *)
let flags ~allowed args =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when List.mem k allowed -> go ((k, v) :: acc) rest
    | k :: _ -> failwith (Printf.sprintf "unexpected argument %S" k)
  in
  go [] args

let get flags k ~default parse =
  match List.assoc_opt k flags with
  | None -> default
  | Some v -> (
      match parse v with
      | Some x -> x
      | None -> failwith (Printf.sprintf "bad value %S for %s" v k))

let workload_flag flags =
  match List.assoc_opt "--workload" flags with
  | None -> None
  | Some name -> (
      match Workload.find name with
      | Some w -> Some w
      | None ->
          failwith
            (Printf.sprintf "unknown workload %S (expected one of: %s)" name
               (String.concat ", "
                  (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all))))

let seconds_flag flags =
  let s = get flags "--seconds" ~default:20.0 float_of_string_opt in
  if s < 0.0 || not (Float.is_finite s) then failwith "--seconds must be >= 0";
  s

let write_trace (w : Workload.t) ~seed spans =
  (try Unix.mkdir results_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path =
    Filename.concat results_dir
      (Printf.sprintf "trace-%s-seed%d.json" w.Workload.name seed)
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Span.to_chrome_json spans));
  Printf.eprintf "ledger: wrote %s\n%!" path

let single args =
  let f = flags ~allowed:[ "--workload"; "--seed"; "--seconds"; "--trace" ] args in
  let w =
    match workload_flag f with Some w -> w | None -> failwith "--workload is required"
  in
  let seed = get f "--seed" ~default:0 int_of_string_opt in
  let trace =
    get f "--trace" ~default:false (function
      | "0" -> Some false
      | "1" -> Some true
      | _ -> None)
  in
  let r =
    Run.run w ~setup:(fun () -> Workload.setup w ~seed) ~seconds:(seconds_flag f) ~trace
  in
  if trace then write_trace w ~seed r.Run.spans;
  List.iter (fun row -> print_endline (Run.row_json ~workload:w.Workload.name row)) r.Run.rows;
  print_endline (Run.result_json r)

let ledger args =
  let f =
    flags ~allowed:[ "--seed"; "--seconds"; "--workload"; "--runs"; "--out" ] args
  in
  let seed = get f "--seed" ~default:0 int_of_string_opt in
  let runs = get f "--runs" ~default:1 int_of_string_opt in
  let workloads =
    match workload_flag f with Some w -> [ w ] | None -> Workload.all
  in
  (try Unix.mkdir results_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let out =
    get f "--out" ~default:(Filename.concat results_dir "ledger.json") Option.some
  in
  Record.ledger ~seed ~seconds:(seconds_flag f) ~runs ~workloads ~out

let compare args =
  match args with
  | old_ :: new_ :: rest ->
      let f = flags ~allowed:[ "--bench" ] rest in
      let bench = get f "--bench" ~default:"BENCHMARK.json" Option.some in
      if not (Record.compare ~bench old_ new_) then exit 1
  | _ -> failwith "compare needs OLD.json and NEW.json"

(* Every code path on stand-in designs, one pass each, asserting the
   metric names and units BENCHMARK.json declares, the checks, and replay
   parity. *)
let smoke args =
  let f = flags ~allowed:[ "--bench" ] args in
  let e2e, per_layer, names =
    Record.bench_specs (get f "--bench" ~default:"BENCHMARK.json" Option.some)
  in
  let t0 = Operon_util.Timer.now () in
  let stand_ins = function
    | "table1-lr" -> [ ("tiny", Cases.tiny ()); ("small", Cases.small ()) ]
    | "ilp-select" -> [ ("tiny", Cases.tiny ()) ]
    | "t5k-part" -> [ ("split", Cases.split ()) ]
    | _ -> [ ("small", Cases.small ()) ]
  in
  let problems = ref [] in
  if names <> List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all then
    problems := [ "BENCHMARK.json names other workloads than the benchmark runs" ];
  List.iter
    (fun (w : Workload.t) ->
      let setup () =
        List.map (fun (label, d) -> Workload.case_of w label d) (stand_ins w.Workload.name)
      in
      List.iter
        (fun (trace, specs) ->
          let r = Run.run w ~setup ~seconds:0.0 ~trace in
          let problem fmt =
            Printf.ksprintf
              (fun s -> problems := Printf.sprintf "%s (trace %b): %s" w.Workload.name trace s :: !problems)
              fmt
          in
          if not r.Run.correct then problem "%d of %d ops failed" r.Run.failed r.Run.attempted;
          List.iter
            (fun (s : Record.spec) ->
              match List.find_opt (fun (n, _, _) -> n = s.Record.name) r.Run.metrics with
              | None -> problem "metric %s missing" s.Record.name
              | Some (_, _, unit) when unit <> s.Record.unit ->
                  problem "metric %s has unit %s, BENCHMARK.json says %s" s.Record.name unit s.Record.unit
              | Some _ -> ())
            specs;
          if List.length r.Run.metrics <> List.length specs then
            problem "%d metrics emitted, BENCHMARK.json names %d" (List.length r.Run.metrics)
              (List.length specs))
        [ (false, e2e); (true, per_layer) ])
    Workload.all;
  let dt = Operon_util.Timer.now () -. t0 in
  List.iter (fun p -> Printf.printf "smoke: %s\n" p) (List.rev !problems);
  Printf.printf "smoke: %s in %.2f s\n" (if !problems = [] then "ok" else "FAILED") dt;
  if !problems <> [] then exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match
    match args with
    | "ledger" :: rest -> ledger rest
    | "compare" :: rest -> compare rest
    | "smoke" :: rest -> smoke rest
    | _ -> single args
  with
  | () -> ()
  | exception (Failure msg | Sys_error msg) ->
      prerr_endline ("ledger: " ^ msg);
      exit 2
