(* Tests for the optical device models: Eq. (1)/(2)/(6) arithmetic, the
   Y-branch cascade of Fig. 3(b), dB conversions, and WDM tracks. *)

open Operon_geom
open Operon_optical

let params = Params.default

let check_float = Alcotest.(check (float 1e-9))

let close name expected got =
  Alcotest.(check bool) name true (Float.abs (expected -. got) < 1e-6)

(* --- params --- *)

let test_default_valid () =
  match Params.validate params with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_paper_constants () =
  check_float "alpha" 1.5 params.Params.alpha;
  check_float "beta" 0.52 params.Params.beta;
  check_float "p_mod" 0.511 params.Params.p_mod;
  check_float "p_det" 0.374 params.Params.p_det;
  Alcotest.(check int) "capacity" 32 params.Params.wdm_capacity

let test_validate_catches () =
  let bad = { params with Params.alpha = -1.0 } in
  (match Params.validate bad with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "negative alpha accepted");
  let bad2 = { params with Params.dis_l = 1.0; dis_u = 0.5 } in
  match Params.validate bad2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dis_l > dis_u accepted"

(* Non-finite fields are refused, by [validate] and by the flow
   configuration that calls it; the defaults pass both. *)
let test_validate_finite () =
  let refused name bad =
    match Params.validate bad with
    | Ok () -> Alcotest.failf "%s accepted" name
    | Error msg ->
        Alcotest.check_raises name (Invalid_argument ("Config.make: " ^ msg)) (fun () ->
            ignore (Operon.Flow.Config.make bad))
  in
  refused "alpha = infinity" { params with Params.alpha = infinity };
  refused "beta = nan" { params with Params.beta = nan };
  refused "dis_u = infinity" { params with Params.dis_u = infinity };
  refused "t_ref = -infinity" { params with Params.t_ref = neg_infinity };
  refused "dis_l > dis_u" { params with Params.dis_l = 1.0; dis_u = 0.5 };
  Alcotest.(check string) "message names the field" "alpha must be finite (got inf)"
    (Result.get_error (Params.validate { params with Params.alpha = infinity }));
  Alcotest.(check bool) "default passes" true (Params.validate params = Ok ());
  ignore (Operon.Flow.Config.make params)

let test_auto_bundle () =
  let p32 = Params.auto_bundle params ~mean_bits:32.0 in
  check_float "wide buses barely bundle" 1.5 p32.Params.bundle_factor;
  let p1 = Params.auto_bundle params ~mean_bits:1.0 in
  check_float "thin nets clamp at 16" 16.0 p1.Params.bundle_factor;
  Alcotest.check_raises "zero mean"
    (Invalid_argument "Params.auto_bundle: non-positive mean_bits") (fun () ->
      ignore (Params.auto_bundle params ~mean_bits:0.0))

(* --- loss --- *)

let test_propagation () =
  check_float "2 cm at 1.5 dB/cm" 3.0 (Loss.propagation params 2.0);
  check_float "zero" 0.0 (Loss.propagation params 0.0);
  Alcotest.check_raises "negative" (Invalid_argument "Loss.propagation: negative length")
    (fun () -> ignore (Loss.propagation params (-1.0)))

let test_crossing () =
  check_float "5 crossings" 2.6 (Loss.crossing params 5);
  check_float "bundled" (2.6 /. params.Params.bundle_factor) (Loss.crossing_bundled params 5)

let test_splitting () =
  check_float "no split" 0.0 (Loss.splitting_arm params 1);
  (* 2 arms: 10*log10(2) + 1 stage excess *)
  close "two arms" (3.0102999566 +. params.Params.splitter_excess) (Loss.splitting_arm params 2);
  (* 4 arms: 6.02 dB + 2 stages excess *)
  close "four arms"
    (6.0205999132 +. (2.0 *. params.Params.splitter_excess))
    (Loss.splitting_arm params 4)

let test_path_loss_composition () =
  let loss = Loss.path params ~wirelength:2.0 ~crossings:5 ~split_arms:[ 2; 2 ] in
  close "eq 2 sum"
    (3.0 +. 2.6 +. (2.0 *. (3.0102999566 +. params.Params.splitter_excess)))
    loss

let test_detectable () =
  Alcotest.(check bool) "within budget" true (Loss.detectable params (params.Params.l_max -. 1.0));
  Alcotest.(check bool) "over budget" false (Loss.detectable params (params.Params.l_max +. 1.0))

let test_db_fraction_roundtrip () =
  close "3 dB halves" 0.5011872336 (Loss.db_to_fraction 3.0);
  close "roundtrip" 7.5 (Loss.fraction_to_db (Loss.db_to_fraction 7.5));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Loss.fraction_to_db: non-positive fraction") (fun () ->
      ignore (Loss.fraction_to_db 0.0))

(* --- power --- *)

let test_optical_power_eq1 () =
  check_float "eq 1" ((3.0 *. 0.511) +. (2.0 *. 0.374))
    (Power.optical params ~n_mod:3 ~n_det:2);
  check_float "zero devices" 0.0 (Power.optical params ~n_mod:0 ~n_det:0)

let test_electrical_power () =
  let unit = Params.electrical_unit_energy params in
  check_float "per cm" unit (Power.electrical params ~wirelength:1.0);
  check_float "wiring scales with bits" (10.0 *. unit *. 2.0)
    (Power.wiring params ~bits:10 ~wirelength:2.0)

let test_electrical_watts () =
  (* 1 pJ/bit at 1 GHz = 1 mW *)
  let p1 = { params with Params.gamma = 1.0; vdd = 1.0; cap_per_cm = 1.0; freq = 1e9 } in
  close "watt conversion" 1e-3 (Power.electrical_watts p1 ~wirelength:1.0)

(* --- splitter cascade (Fig. 3b) --- *)

let test_cascade_two_stages () =
  let reports = Splitter.cascade params ~stages:2 in
  Alcotest.(check int) "three reports" 3 (List.length reports);
  let s0 = List.nth reports 0 and s1 = List.nth reports 1 and s2 = List.nth reports 2 in
  Alcotest.(check int) "source" 1 s0.Splitter.outputs;
  check_float "source full power" 1.0 s0.Splitter.power_fraction;
  Alcotest.(check int) "first split" 2 s1.Splitter.outputs;
  Alcotest.(check int) "second split" 4 s2.Splitter.outputs;
  (* each 50-50 stage roughly halves per-arm power (excess makes it
     slightly less than half) *)
  Alcotest.(check bool) "halving" true
    (s1.Splitter.power_fraction < 0.5 +. 1e-9 && s1.Splitter.power_fraction > 0.45);
  Alcotest.(check bool) "quartering" true
    (s2.Splitter.power_fraction < 0.25 +. 1e-9 && s2.Splitter.power_fraction > 0.2)

let test_cascade_conserves_power () =
  (* Without excess loss, total output power equals input power. *)
  let ideal = { params with Params.splitter_excess = 0.0 } in
  List.iter
    (fun r ->
      close
        (Printf.sprintf "stage %d conserves" r.Splitter.stage)
        1.0
        (float_of_int r.Splitter.outputs *. r.Splitter.power_fraction))
    (Splitter.cascade ideal ~stages:4)

let test_cascade_invalid () =
  Alcotest.check_raises "negative stages"
    (Invalid_argument "Splitter.cascade: negative stage count") (fun () ->
      ignore (Splitter.cascade params ~stages:(-1)))

let test_fanout_tree () =
  check_float "single sink free" 0.0 (Splitter.fanout_tree params ~sinks:1);
  close "two sinks" (Loss.splitting_arm params 2) (Splitter.fanout_tree params ~sinks:2);
  close "four sinks" (Loss.splitting_arm params 4) (Splitter.fanout_tree params ~sinks:4);
  Alcotest.(check bool) "monotone" true
    (Splitter.fanout_tree params ~sinks:3 <= Splitter.fanout_tree params ~sinks:4 +. 1e-9)

(* --- wdm tracks --- *)

let seg x1 y1 x2 y2 = Segment.make (Point.make x1 y1) (Point.make x2 y2)

let conn id net s bits = { Wdm.id; net; seg = s; bits }

let test_orientation () =
  Alcotest.(check bool) "horizontal" true
    (Wdm.orientation_of (seg 0.0 0.0 5.0 0.1) = Wdm.Horizontal);
  Alcotest.(check bool) "vertical" true
    (Wdm.orientation_of (seg 0.0 0.0 0.1 5.0) = Wdm.Vertical)

let test_conn_coord_span () =
  let c = conn 0 0 (seg 1.0 2.0 5.0 2.2) 8 in
  Alcotest.(check bool) "coord is mid y" true (Float.abs (Wdm.conn_coord c -. 2.1) < 1e-9);
  let lo, hi = Wdm.conn_span c in
  check_float "lo" 1.0 lo;
  check_float "hi" 5.0 hi

let test_track_lifecycle () =
  let c1 = conn 0 0 (seg 0.0 1.0 3.0 1.0) 10 in
  let t = Wdm.track_of_conn ~capacity:32 c1 in
  Alcotest.(check int) "initial usage" 10 t.Wdm.used;
  let c2 = conn 1 1 (seg 2.0 1.05 6.0 1.05) 20 in
  Alcotest.(check bool) "fits" true (Wdm.track_fits t c2 ~max_dist:0.1);
  Wdm.track_add t c2;
  Alcotest.(check int) "usage" 30 t.Wdm.used;
  check_float "span extended" 6.0 t.Wdm.hi;
  let c3 = conn 2 2 (seg 0.0 1.0 1.0 1.0) 10 in
  Alcotest.(check bool) "capacity exceeded" false (Wdm.track_fits t c3 ~max_dist:0.1);
  Alcotest.check_raises "add raises" (Invalid_argument "Wdm.track_add: capacity exceeded")
    (fun () -> Wdm.track_add t c3)

let test_track_distance_gate () =
  let c1 = conn 0 0 (seg 0.0 1.0 3.0 1.0) 1 in
  let t = Wdm.track_of_conn ~capacity:32 c1 in
  let far = conn 1 1 (seg 0.0 2.0 3.0 2.0) 1 in
  Alcotest.(check bool) "too far" false (Wdm.track_fits t far ~max_dist:0.5);
  Alcotest.(check bool) "close enough" true (Wdm.track_fits t far ~max_dist:1.5)

let test_track_oversized_conn () =
  let big = conn 0 0 (seg 0.0 0.0 1.0 0.0) 64 in
  Alcotest.check_raises "exceeds capacity"
    (Invalid_argument "Wdm.track_of_conn: connection exceeds capacity") (fun () ->
      ignore (Wdm.track_of_conn ~capacity:32 big))

(* --- properties --- *)

let prop_splitting_monotone =
  QCheck.Test.make ~name:"splitting loss monotone in arms" ~count:50
    QCheck.(int_range 1 63)
    (fun ns -> Loss.splitting_arm params ns <= Loss.splitting_arm params (ns + 1) +. 1e-9)

let prop_db_fraction_inverse =
  QCheck.Test.make ~name:"db/fraction inverse" ~count:200
    QCheck.(float_range 0.0 40.0)
    (fun db -> Float.abs (Loss.fraction_to_db (Loss.db_to_fraction db) -. db) < 1e-6)

let prop_fraction_db_inverse =
  QCheck.Test.make ~name:"fraction/db inverse on (0,1]" ~count:200
    QCheck.(float_range 1e-6 1.0)
    (fun f ->
      Float.abs (Loss.db_to_fraction (Loss.fraction_to_db f) -. f) < 1e-9)

let prop_fraction_to_db_rejects =
  QCheck.Test.make ~name:"fraction_to_db rejects non-positive" ~count:100
    QCheck.(float_range (-40.0) 0.0)
    (fun f ->
      match Loss.fraction_to_db f with
      | _ -> false
      | exception Invalid_argument _ -> true)

let prop_path_loss_additive =
  QCheck.Test.make ~name:"eq2 additive in wirelength" ~count:200
    QCheck.(pair (float_range 0.0 5.0) (float_range 0.0 5.0))
    (fun (a, b) ->
      let f wl = Loss.path params ~wirelength:wl ~crossings:0 ~split_arms:[] in
      Float.abs (f (a +. b) -. (f a +. f b)) < 1e-9)

let () =
  Alcotest.run "optical"
    [ ( "params",
        [ Alcotest.test_case "default valid" `Quick test_default_valid;
          Alcotest.test_case "paper constants" `Quick test_paper_constants;
          Alcotest.test_case "validate catches" `Quick test_validate_catches;
          Alcotest.test_case "validate refuses non-finite" `Quick test_validate_finite;
          Alcotest.test_case "auto bundle" `Quick test_auto_bundle ] );
      ( "loss",
        [ Alcotest.test_case "propagation" `Quick test_propagation;
          Alcotest.test_case "crossing" `Quick test_crossing;
          Alcotest.test_case "splitting" `Quick test_splitting;
          Alcotest.test_case "eq2 composition" `Quick test_path_loss_composition;
          Alcotest.test_case "detectable" `Quick test_detectable;
          Alcotest.test_case "db roundtrip" `Quick test_db_fraction_roundtrip;
          QCheck_alcotest.to_alcotest prop_splitting_monotone;
          QCheck_alcotest.to_alcotest prop_db_fraction_inverse;
          QCheck_alcotest.to_alcotest prop_fraction_db_inverse;
          QCheck_alcotest.to_alcotest prop_fraction_to_db_rejects;
          QCheck_alcotest.to_alcotest prop_path_loss_additive ] );
      ( "power",
        [ Alcotest.test_case "eq1" `Quick test_optical_power_eq1;
          Alcotest.test_case "electrical" `Quick test_electrical_power;
          Alcotest.test_case "watts" `Quick test_electrical_watts ] );
      ( "splitter",
        [ Alcotest.test_case "two stages (fig 3b)" `Quick test_cascade_two_stages;
          Alcotest.test_case "power conservation" `Quick test_cascade_conserves_power;
          Alcotest.test_case "invalid" `Quick test_cascade_invalid;
          Alcotest.test_case "fanout tree" `Quick test_fanout_tree ] );
      ( "wdm",
        [ Alcotest.test_case "orientation" `Quick test_orientation;
          Alcotest.test_case "coord/span" `Quick test_conn_coord_span;
          Alcotest.test_case "track lifecycle" `Quick test_track_lifecycle;
          Alcotest.test_case "distance gate" `Quick test_track_distance_gate;
          Alcotest.test_case "oversized conn" `Quick test_track_oversized_conn ] ) ]
