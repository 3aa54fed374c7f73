(* In-memory spans of the traced replay.

   A span is one timed call into a layer: its name, the domain that ran
   it, monotonic start and stop, the words it allocated on that domain,
   its counters, and its child spans. Domain tasks record into their own
   recorder and hand their finished subtrees back as data, so the tree is
   assembled on the coordinator in input order. *)

open Operon_util

type t = {
  name : string;
  tid : int;  (** domain that ran the span *)
  start : float;
  stop : float;
  words : float;  (** allocated on [tid] while open, children included *)
  counters : (string * int) list;
  children : t list;
}

(* Minor plus directly-major allocation of the calling domain; promoted
   words are excluded because when a minor collection happens depends on
   what ran before the span. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* One domain's stack of open spans; the last frame collects the roots. *)
type recorder = { tid : int; mutable frames : t list ref list }

let recorder () = { tid = (Domain.self () :> int); frames = [ ref [] ] }

let attach r s =
  match r.frames with
  | kids :: _ -> kids := s :: !kids
  | [] -> invalid_arg "Span.attach: closed recorder"

(* [record r name f] runs [f], which returns its result and counters, as a
   span of [r]. *)
let record r name f =
  let kids = ref [] in
  r.frames <- kids :: r.frames;
  let w0 = words () in
  let t0 = Timer.now () in
  let result, counters = f () in
  let t1 = Timer.now () in
  let w1 = words () in
  r.frames <- List.tl r.frames;
  attach r
    { name; tid = r.tid; start = t0; stop = t1; words = w1 -. w0; counters;
      children = List.rev !kids };
  result

(* A leaf span over [Executor.parallel_map exec f xs]: wall time of the
   whole fan-out, allocation summed over the tasks (each measured on the
   domain that ran it), counters derived from the results. *)
let fan_out r exec name ~counters f xs =
  let t0 = Timer.now () in
  let out =
    Executor.parallel_map exec
      (fun x ->
        let w0 = words () in
        let y = f x in
        (y, words () -. w0))
      xs
  in
  let t1 = Timer.now () in
  let ys = Array.map fst out in
  attach r
    { name; tid = r.tid; start = t0; stop = t1;
      words = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 out;
      counters = counters ys; children = [] };
  ys

(* A fan-out whose tasks record spans of their own: each task gets a
   fresh recorder on its domain, and the subtrees become children of the
   current span in input order. *)
let pool r exec f xs =
  let out =
    Executor.parallel_map exec
      (fun x ->
        let rr = recorder () in
        let y = f rr x in
        (y, match rr.frames with [ roots ] -> List.rev !roots | _ -> []))
      xs
  in
  Array.iter (fun (_, spans) -> List.iter (attach r) spans) out;
  Array.map fst out

let roots r =
  match r.frames with
  | [ roots ] -> List.rev !roots
  | _ -> invalid_arg "Span.roots: spans still open"

let rec iter f s =
  f s;
  List.iter (iter f) s.children

(* Self time and self allocation: the span minus its children that ran on
   the same domain. Children on other domains overlap it in time. *)
let self (s : t) =
  List.fold_left
    (fun (dt, dw) (c : t) ->
      if c.tid = s.tid then (dt -. (c.stop -. c.start), dw -. c.words)
      else (dt, dw))
    (s.stop -. s.start, s.words)
    s.children

(* Chrome trace-event JSON (one complete event per span), viewable in
   Perfetto or chrome://tracing. *)
let to_chrome_json spans =
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity spans
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (iter (fun s ->
         if not !first then Buffer.add_char b ',';
         first := false;
         Printf.bprintf b
           "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"alloc_mw\":%.6f"
           s.name s.tid
           ((s.start -. origin) *. 1e6)
           ((s.stop -. s.start) *. 1e6)
           (s.words /. 1e6);
         List.iter (fun (k, v) -> Printf.bprintf b ",%S:%d" k v) s.counters;
         Buffer.add_string b "}}"))
    spans;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b
