external monotonic_seconds : unit -> float = "operon_monotonic_seconds"

(* Deadlines, budgets and latency measurement all read the monotonic
   clock: a wall-clock step (NTP, DST, manual reset) must never expire a
   job early or keep a budget alive forever. The epoch is arbitrary —
   only differences between two [now] readings are meaningful. *)
let now () = monotonic_seconds ()

let time f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

type budget = { deadline : float }

let budget s =
  if s <= 0.0 then { deadline = infinity } else { deadline = now () +. s }

let expired b = now () > b.deadline

let remaining b =
  if b.deadline = infinity then infinity else Float.max 0.0 (b.deadline -. now ())
