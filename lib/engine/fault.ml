type kind =
  | Injected
  | Crash
  | Capacity
  | Budget
  | Validation
  | Shard_crash
  | Shed

let kind_name = function
  | Injected -> "injected"
  | Crash -> "crash"
  | Capacity -> "capacity"
  | Budget -> "budget"
  | Validation -> "validation"
  | Shard_crash -> "shard_crash"
  | Shed -> "shed"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "injected" -> Some Injected
  | "crash" -> Some Crash
  | "capacity" -> Some Capacity
  | "budget" -> Some Budget
  | "validation" -> Some Validation
  | "shard_crash" -> Some Shard_crash
  | "shed" -> Some Shed
  | _ -> None

type t = {
  stage : Instrument.stage;
  net : int option;
  kind : kind;
  detail : string;
  backtrace : string;
}

exception Error of t

let make ?net ?(backtrace = "") ~stage kind detail =
  { stage; net; kind; detail; backtrace }

let to_string f =
  Printf.sprintf "%s%s: %s: %s"
    (Instrument.stage_name f.stage)
    (match f.net with Some n -> Printf.sprintf "/net%d" n | None -> "")
    (kind_name f.kind) f.detail

let () =
  Printexc.register_printer (function
    | Error f -> Some (Printf.sprintf "Fault.Error(%s)" (to_string f))
    | _ -> None)

let of_exn ~stage ?net exn bt =
  match exn with
  | Error f -> f
  | exn ->
      { stage;
        net;
        kind = Crash;
        detail = Printexc.to_string exn;
        backtrace = Printexc.raw_backtrace_to_string bt }

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                      *)
(* ------------------------------------------------------------------ *)

type injection = {
  inj_stage : Instrument.stage;
  inj_net : int option;  (* None matches any net (the "*" spec) *)
  inj_kind : kind;
}

(* The sites the flow checks for injections: per-net task entry in
   Baselines and Codesign, and solver-attempt entry in Select, which has
   no net, so only the "*" spec matches there. *)
let injectable stage net =
  match (stage, net) with
  | (Instrument.Baselines | Instrument.Codesign), _ | Instrument.Select, None ->
      true
  | _ -> false

let injection_of_string s =
  match String.split_on_char ':' s with
  | [ stage; net; kind ] -> (
      match Instrument.stage_of_string stage with
      | None -> Stdlib.Error (Printf.sprintf "unknown stage %S in fault spec %S" stage s)
      | Some inj_stage -> (
          let net_spec =
            if String.trim net = "*" then Ok None
            else
              match int_of_string_opt (String.trim net) with
              | Some n when n >= 0 -> Ok (Some n)
              | _ ->
                  Stdlib.Error
                    (Printf.sprintf
                       "bad net %S in fault spec %S (expected a non-negative id or *)" net s)
          in
          match net_spec with
          | Stdlib.Error _ as e -> e
          | Ok inj_net -> (
              match kind_of_string kind with
              | None ->
                  Stdlib.Error (Printf.sprintf "unknown fault kind %S in fault spec %S" kind s)
              | Some inj_kind when injectable inj_stage inj_net ->
                  Ok { inj_stage; inj_net; inj_kind }
              | Some _ ->
                  Stdlib.Error
                    (Printf.sprintf
                       "fault spec %S can never fire (injection sites: \
                        baselines:NET:KIND, codesign:NET:KIND, select:*:KIND; \
                        NET may be * in the first two)"
                       s))))
  | _ -> Stdlib.Error (Printf.sprintf "bad fault spec %S (expected stage:net:kind)" s)

let injections_of_string s =
  let specs =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun spec -> spec <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest -> (
        match injection_of_string spec with
        | Ok inj -> go (inj :: acc) rest
        | Stdlib.Error _ as e -> e)
  in
  go [] specs

let injections_of_string_lenient s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun spec -> spec <> "")
  |> List.fold_left
       (fun (oks, bads) spec ->
         match injection_of_string spec with
         | Ok inj -> (inj :: oks, bads)
         | Stdlib.Error msg -> (oks, (spec, msg) :: bads))
       ([], [])
  |> fun (oks, bads) -> (List.rev oks, List.rev bads)

let injection_matching injections ~stage ~net =
  List.find_opt
    (fun inj ->
      inj.inj_stage = stage
      &&
      match (inj.inj_net, net) with
      | None, _ -> true
      | Some a, Some b -> a = b
      | Some _, None -> false)
    injections

(* ------------------------------------------------------------------ *)
(* Fault log                                                          *)
(* ------------------------------------------------------------------ *)

type log = { mutable items : t list (* newest-first *) }

let create_log () = { items = [] }

let record log f = log.items <- f :: log.items

let faults log = List.rev log.items

let count log = List.length log.items
