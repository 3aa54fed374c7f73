(** Split → pool map → ordered merge: the one fan-out of the flow's
    decomposed stages (selection regions, per-region WDM placement and
    assignment). *)

val map :
  Runctx.t ->
  stage:Instrument.stage ->
  floor:(int -> 'b) ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map rc ~stage ~floor f parts] is [Array.map f parts] run on
    [rc.exec], in part order. Each failed part is recorded, in part
    order, by {!Runctx.degrade} plus a [stage] ["fallbacks"] count, and
    [floor i] stands in for it; a strict run re-raises the lowest-index
    failure. A one-part split has no floor: its exception propagates
    unchanged, as if [f] had been called directly. *)
