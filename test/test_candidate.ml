(* Tests for candidate materialization: conversion placement, Eq. (1)/(6)
   power bookkeeping, optical path extraction with splitting loss, and the
   Fig. 5 example structure. *)

open Operon_geom
open Operon_optical
open Operon_steiner
open Operon

let p = Point.make

let params = Params.default

let close name expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s (want %.6f got %.6f)" name expected got)
    true
    (Float.abs (expected -. got) < 1e-6)

let hnet_of_centers ?(bits = 4) centers =
  let pins =
    Array.mapi
      (fun i c ->
        { Hypernet.center = c; pin_count = 1; source_count = (if i = 0 then 1 else 0) })
      centers
  in
  Hypernet.make ~id:0 ~group:0 ~bits ~pins

(* Two-pin net: root (0,0) -> sink (2,0). *)
let two_pin () =
  let centers = [| p 0.0 0.0; p 2.0 0.0 |] in
  let hnet = hnet_of_centers centers in
  let topo =
    Topology.make ~positions:centers ~nterminals:2 ~edges:[ (0, 1) ] ~root:0
  in
  (hnet, topo)

(* Fig. 5-like net: root 1 at (0,2); steiner node at (1,1); terminals
   3 (0,0) and 4 (2,0). Node ids: terminals 0..2 then steiner 3.
   Terminal 0 = hyper pin 1 (root), 1 = node3, 2 = node4. *)
let fig5 () =
  let centers = [| p 0.0 2.0; p 0.0 0.0; p 2.0 0.0 |] in
  let hnet = hnet_of_centers centers in
  let positions = Array.append centers [| p 1.0 1.0 |] in
  let topo =
    Topology.make ~positions ~nterminals:3 ~edges:[ (0, 3); (3, 1); (3, 2) ] ~root:0
  in
  (hnet, topo)

let test_all_electrical () =
  let hnet, topo = two_pin () in
  let c = Candidate.electrical params hnet topo in
  Alcotest.(check bool) "pure electrical" true c.Candidate.pure_electrical;
  Alcotest.(check int) "no modulators" 0 c.Candidate.n_mod;
  Alcotest.(check int) "no detectors" 0 c.Candidate.n_det;
  Alcotest.(check int) "no paths" 0 (Array.length c.Candidate.paths);
  close "wirelength" 2.0 c.Candidate.elec_wirelength;
  close "power = bits * unit * wl"
    (4.0 *. Params.electrical_unit_energy params *. 2.0)
    c.Candidate.power;
  close "conversion zero" 0.0 c.Candidate.conversion_power

let test_all_optical_two_pin () =
  let hnet, topo = two_pin () in
  let labels = [| Candidate.Electrical; Candidate.Optical |] in
  let c = Candidate.of_labels params hnet topo labels in
  Alcotest.(check int) "one modulator at root" 1 c.Candidate.n_mod;
  Alcotest.(check int) "one detector at sink" 1 c.Candidate.n_det;
  Alcotest.(check (array int)) "mod at root" [| 0 |] c.Candidate.mod_nodes;
  Alcotest.(check (array int)) "det at sink" [| 1 |] c.Candidate.det_nodes;
  close "conversion power" (params.Params.p_mod +. params.Params.p_det)
    c.Candidate.conversion_power;
  close "no wiring" 0.0 c.Candidate.wiring_power;
  Alcotest.(check int) "one path" 1 (Array.length c.Candidate.paths);
  let path = c.Candidate.paths.(0) in
  Alcotest.(check int) "path start" 0 path.Candidate.start_node;
  Alcotest.(check int) "path sink" 1 path.Candidate.sink_node;
  (* single sink: no splitting, only propagation over 2 cm *)
  close "path loss" (Loss.propagation params 2.0) path.Candidate.intrinsic_loss;
  Alcotest.(check int) "one segment" 1 (Array.length path.Candidate.segments)

let test_fig5_all_optical () =
  let hnet, topo = fig5 () in
  let labels = Array.make 4 Candidate.Optical in
  let c = Candidate.of_labels params hnet topo labels in
  Alcotest.(check int) "one modulator" 1 c.Candidate.n_mod;
  Alcotest.(check int) "two detectors" 2 c.Candidate.n_det;
  Alcotest.(check int) "two paths" 2 (Array.length c.Candidate.paths);
  (* the steiner node splits into 2 arms: both paths carry split loss *)
  let expected_split = Loss.splitting_arm params 2 in
  Array.iter
    (fun (path : Candidate.path) ->
      let hop1 = Loss.propagation params (sqrt 2.0) in
      close "path = 2 hops + split" (hop1 +. hop1 +. expected_split)
        path.Candidate.intrinsic_loss)
    c.Candidate.paths

let test_fig5_hybrid_oeo () =
  (* Paper Fig. 5(c) third candidate: trunk optical, bottom branches
     electrical — (2-3)(2-4)(1-2) = EEO. Edge (root->steiner) optical,
     steiner->terminals electrical. *)
  let hnet, topo = fig5 () in
  let labels =
    [| Candidate.Electrical (* root, ignored *); Candidate.Electrical;
       Candidate.Electrical; Candidate.Optical (* steiner's parent edge *) |]
  in
  let c = Candidate.of_labels params hnet topo labels in
  Alcotest.(check int) "modulator at root" 1 c.Candidate.n_mod;
  Alcotest.(check int) "detector at steiner (O->E handover)" 1 c.Candidate.n_det;
  Alcotest.(check (array int)) "det at steiner" [| 3 |] c.Candidate.det_nodes;
  Alcotest.(check int) "single path to the handover" 1 (Array.length c.Candidate.paths);
  close "no split on a single tap" (Loss.propagation params (sqrt 2.0))
    c.Candidate.paths.(0).Candidate.intrinsic_loss;
  close "wiring covers both branches"
    (float_of_int hnet.Hypernet.bits
     *. Params.electrical_unit_energy params *. (2.0 +. 2.0))
    c.Candidate.wiring_power

let test_fig5_one_optical_branch () =
  (* Steiner edge electrical, one leaf optical: modulator sits at the
     steiner node. *)
  let hnet, topo = fig5 () in
  let labels =
    [| Candidate.Electrical; Candidate.Optical; Candidate.Electrical;
       Candidate.Electrical |]
  in
  let c = Candidate.of_labels params hnet topo labels in
  Alcotest.(check (array int)) "mod at steiner" [| 3 |] c.Candidate.mod_nodes;
  Alcotest.(check (array int)) "det at leaf" [| 1 |] c.Candidate.det_nodes;
  Alcotest.(check int) "one path" 1 (Array.length c.Candidate.paths);
  Alcotest.(check int) "path starts at steiner" 3 c.Candidate.paths.(0).Candidate.start_node

let test_power_totals () =
  let hnet, topo = fig5 () in
  let labels = Array.make 4 Candidate.Optical in
  let c = Candidate.of_labels params hnet topo labels in
  close "power = conversion + wiring" (c.Candidate.conversion_power +. c.Candidate.wiring_power)
    c.Candidate.power;
  close "conversion = eq1"
    (Power.optical params ~n_mod:c.Candidate.n_mod ~n_det:c.Candidate.n_det)
    c.Candidate.conversion_power

let test_label_count_checked () =
  let hnet, topo = two_pin () in
  Alcotest.check_raises "wrong label count"
    (Invalid_argument "Candidate.of_labels: label count") (fun () ->
      ignore (Candidate.of_labels params hnet topo [| Candidate.Optical |]))

let test_crossing_between_candidates () =
  let h1, t1 = two_pin () in
  let c1 =
    Candidate.of_labels params h1 t1 [| Candidate.Electrical; Candidate.Optical |]
  in
  (* perpendicular crossing net *)
  let centers = [| p 1.0 (-1.0); p 1.0 1.0 |] in
  let h2 = hnet_of_centers centers in
  let t2 = Topology.make ~positions:centers ~nterminals:2 ~edges:[ (0, 1) ] ~root:0 in
  let c2 = Candidate.of_labels params h2 t2 [| Candidate.Electrical; Candidate.Optical |] in
  let crossings a b =
    Segment.count_crossings a.Candidate.opt_segments b.Candidate.opt_segments
  in
  Alcotest.(check int) "one crossing" 1 (crossings c1 c2);
  close "crossing loss on path" (Loss.crossing_bundled params 1)
    (Candidate.crossing_loss_on_path params c1 0 c2);
  (* electrical candidate has no optical geometry: no crossings *)
  let e2 = Candidate.electrical params h2 t2 in
  Alcotest.(check int) "no optical no crossing" 0 (crossings c1 e2)

let test_loss_feasible () =
  let hnet, topo = two_pin () in
  let c = Candidate.of_labels params hnet topo [| Candidate.Electrical; Candidate.Optical |] in
  Alcotest.(check bool) "short link feasible" true (Candidate.loss_feasible params c);
  let tight = { params with Params.l_max = 0.1 } in
  Alcotest.(check bool) "tight budget infeasible" false (Candidate.loss_feasible tight c)

let test_describe () =
  let hnet, topo = two_pin () in
  let c = Candidate.electrical params hnet topo in
  let s = Candidate.describe c in
  Alcotest.(check bool) "mentions pureE" true
    (String.length s > 0
     &&
     match String.index_opt s 'p' with
     | Some _ -> true
     | None -> false)

(* Property: for random labelings of a random net, power decomposes and
   paths stay within the topology. *)
let prop_candidate_consistency =
  QCheck.Test.make ~name:"random labelings are consistent" ~count:200
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Operon_util.Prng.create seed in
      let n_extra = 1 + Operon_util.Prng.int rng 4 in
      let centers =
        Array.init (1 + n_extra) (fun i ->
            if i = 0 then p 0.0 0.0
            else
              p (Operon_util.Prng.float rng 3.0) (Operon_util.Prng.float rng 3.0))
      in
      let hnet = hnet_of_centers ~bits:(1 + Operon_util.Prng.int rng 31) centers in
      let topo = Operon_steiner.Bi1s.build Topology.L2 centers ~root:0 in
      let labels =
        Array.init (Topology.node_count topo) (fun _ ->
            if Operon_util.Prng.bool rng then Candidate.Optical else Candidate.Electrical)
      in
      match Candidate.of_labels params hnet topo labels with
      | exception Invalid_argument _ -> true (* inconsistent labeling rejected *)
      | c ->
          Float.abs (c.Candidate.power -. (c.Candidate.conversion_power +. c.Candidate.wiring_power))
          < 1e-9
          && Array.length c.Candidate.mod_nodes = c.Candidate.n_mod
          && Array.length c.Candidate.det_nodes = c.Candidate.n_det
          && Array.for_all
               (fun (path : Candidate.path) ->
                 path.Candidate.intrinsic_loss >= 0.0
                 && Array.length path.Candidate.segments > 0)
               c.Candidate.paths
          && (c.Candidate.n_mod = 0) = c.Candidate.pure_electrical)

let () =
  Alcotest.run "candidate"
    [ ( "candidate",
        [ Alcotest.test_case "all electrical" `Quick test_all_electrical;
          Alcotest.test_case "all optical 2-pin" `Quick test_all_optical_two_pin;
          Alcotest.test_case "fig5 all optical" `Quick test_fig5_all_optical;
          Alcotest.test_case "fig5 hybrid O->E" `Quick test_fig5_hybrid_oeo;
          Alcotest.test_case "fig5 branch modulator" `Quick test_fig5_one_optical_branch;
          Alcotest.test_case "power totals" `Quick test_power_totals;
          Alcotest.test_case "label count" `Quick test_label_count_checked;
          Alcotest.test_case "crossings between" `Quick test_crossing_between_candidates;
          Alcotest.test_case "loss feasible" `Quick test_loss_feasible;
          Alcotest.test_case "describe" `Quick test_describe;
          QCheck_alcotest.to_alcotest prop_candidate_consistency ] ) ]
