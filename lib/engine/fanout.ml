open Operon_util

let map rc ~stage ~floor f parts =
  match Executor.try_parallel_mapi rc.Runctx.exec (fun _ p -> f p) parts with
  | [| Error (e, bt) |] -> Printexc.raise_with_backtrace e bt
  | results ->
      Array.mapi
        (fun i -> function
          | Ok y -> y
          | Error (e, bt) ->
              Runctx.degrade rc ~stage e bt;
              Instrument.incr rc.Runctx.sink stage "fallbacks" 1;
              floor i)
        results
