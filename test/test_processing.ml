(* Tests for signal processing: hyper nets respect the WDM capacity, the
   stats accounting, hyper-pin structure, and determinism. *)

open Operon_util
open Operon_geom
open Operon_optical
open Operon

let p = Point.make

let die = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:10.0 ~ymax:10.0

let params = Params.default

(* A bus of [n] bits from (x0, 0) to (x0, 5): sources in a pitch row,
   sinks likewise. *)
let bus ?(name = "bus") ?(x0 = 1.0) n =
  let bits =
    Array.init n (fun i ->
        let off = 0.002 *. float_of_int i in
        Signal.bit
          ~source:(p (x0 +. off) 0.5)
          ~sinks:[| p (x0 +. off) 5.0 |])
  in
  Signal.group ~name ~bits

let test_capacity_respected () =
  let d = Signal.design ~die ~groups:[| bus 100 |] in
  let hnets = Processing.run (Prng.create 1) params d in
  Array.iter
    (fun h ->
      Alcotest.(check bool) "bits within capacity" true
        (h.Hypernet.bits <= params.Params.wdm_capacity))
    hnets;
  (* ceil(100/32) = 4 clusters *)
  Alcotest.(check bool) "at least 4 hyper nets" true (Array.length hnets >= 4)

let test_small_group_single_hnet () =
  let d = Signal.design ~die ~groups:[| bus 8 |] in
  let hnets = Processing.run (Prng.create 1) params d in
  Alcotest.(check int) "one hyper net" 1 (Array.length hnets);
  Alcotest.(check int) "all bits" 8 hnets.(0).Hypernet.bits

let test_stats () =
  let d = Signal.design ~die ~groups:[| bus 8; bus ~name:"b2" ~x0:6.0 5 |] in
  let hnets = Processing.run (Prng.create 1) params d in
  let nets, hn, hp = Processing.stats hnets in
  Alcotest.(check int) "nets" 13 nets;
  Alcotest.(check int) "hnets" 2 hn;
  Alcotest.(check bool) "hpins at least 2 per hnet" true (hp >= 2 * hn)

let test_hyper_pins_merge_bus () =
  (* All 8 source pins sit within the merge threshold: they must fuse
     into one driving hyper pin; same for sinks. *)
  let d = Signal.design ~die ~groups:[| bus 8 |] in
  let hnets = Processing.run (Prng.create 1) params d in
  let h = hnets.(0) in
  Alcotest.(check int) "two hyper pins" 2 (Hypernet.pin_count h);
  let root_pin = h.Hypernet.pins.(h.Hypernet.root) in
  Alcotest.(check int) "root holds all 8 drivers" 8 root_pin.Hypernet.source_count

let test_threshold_zero_no_merging () =
  let config = { Processing.merge_threshold = 0.0 } in
  let d = Signal.design ~die ~groups:[| bus 4 |] in
  let hnets = Processing.run ~config (Prng.create 1) params d in
  (* 4 bits x 2 pins, no merging: 8 hyper pins *)
  Alcotest.(check int) "all pins separate" 8 (Hypernet.pin_count hnets.(0))

let test_ids_dense () =
  let d = Signal.design ~die ~groups:[| bus 100; bus ~name:"b2" ~x0:6.0 40 |] in
  let hnets = Processing.run (Prng.create 1) params d in
  Array.iteri
    (fun i h -> Alcotest.(check int) "dense id" i h.Hypernet.id)
    hnets

let test_group_attribution () =
  let d = Signal.design ~die ~groups:[| bus 8; bus ~name:"b2" ~x0:6.0 8 |] in
  let hnets = Processing.run (Prng.create 1) params d in
  Alcotest.(check int) "first group" 0 hnets.(0).Hypernet.group;
  Alcotest.(check int) "second group" 1 hnets.(1).Hypernet.group

let test_deterministic () =
  let d = Signal.design ~die ~groups:[| bus 100 |] in
  let a = Processing.run (Prng.create 5) params d in
  let b = Processing.run (Prng.create 5) params d in
  Alcotest.(check int) "same count" (Array.length a) (Array.length b);
  Array.iteri
    (fun i h -> Alcotest.(check int) "same bits" h.Hypernet.bits b.(i).Hypernet.bits)
    a

let test_bits_conserved () =
  let d = Signal.design ~die ~groups:[| bus 100; bus ~name:"b2" ~x0:6.0 37 |] in
  let hnets = Processing.run (Prng.create 1) params d in
  let nets, _, _ = Processing.stats hnets in
  Alcotest.(check int) "no bit lost" 137 nets

(* Property: processing any generated design conserves bits and respects
   capacity. *)
let prop_processing_invariants =
  QCheck.Test.make ~name:"processing invariants on random designs" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let design = Operon_benchgen.Cases.small ~seed () in
      let hnets = Processing.run (Prng.create seed) params design in
      let nets, _, _ = Processing.stats hnets in
      nets = Signal.net_count design
      && Array.for_all (fun h -> h.Hypernet.bits <= params.Params.wdm_capacity) hnets
      && Array.for_all
           (fun h -> h.Hypernet.pins.(h.Hypernet.root).Hypernet.source_count > 0)
           hnets)

let () =
  Alcotest.run "processing"
    [ ( "processing",
        [ Alcotest.test_case "capacity respected" `Quick test_capacity_respected;
          Alcotest.test_case "small group single hnet" `Quick test_small_group_single_hnet;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "bus pins merge" `Quick test_hyper_pins_merge_bus;
          Alcotest.test_case "threshold zero" `Quick test_threshold_zero_no_merging;
          Alcotest.test_case "dense ids" `Quick test_ids_dense;
          Alcotest.test_case "group attribution" `Quick test_group_attribution;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "bits conserved" `Quick test_bits_conserved;
          QCheck_alcotest.to_alcotest prop_processing_invariants ] ) ]
