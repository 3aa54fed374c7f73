(* Tests for Section 4: WDM sweep placement, legalization, and the
   network-flow re-assignment (Figs. 6-7), including the paper's own
   three-connection example. *)

open Operon_geom
open Operon_optical
open Operon

let p = Point.make

let params = Params.default

let seg x1 y1 x2 y2 = Segment.make (p x1 y1) (p x2 y2)

let conn id net s bits = { Wdm.id; net; seg = s; bits }

(* Paper Fig. 6: three 20-bit parallel connections, capacity 32. The
   sweep places them on >= 2 tracks; re-assignment shows 2 suffice
   (splitting one connection across tracks channel-wise). *)
let fig6_conns () =
  [| conn 0 0 (seg 0.0 1.00 3.0 1.00) 20;
     conn 1 1 (seg 0.5 1.02 3.5 1.02) 20;
     conn 2 2 (seg 1.0 1.04 4.0 1.04) 20 |]

let test_place_all_assigned () =
  let placement = Wdm_place.place params (fig6_conns ()) in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "assigned" true
        (placement.Wdm_place.assignment.(c.Wdm.id) >= 0))
    placement.Wdm_place.conns

let test_place_capacity () =
  let placement = Wdm_place.place params (fig6_conns ()) in
  Array.iter
    (fun t ->
      Alcotest.(check bool) "capacity respected" true (t.Wdm.used <= t.Wdm.capacity))
    placement.Wdm_place.tracks;
  (* 60 bits cannot fit a single 32-channel track *)
  Alcotest.(check bool) "at least 2 tracks" true (Wdm_place.track_count placement >= 2)

let test_fig6_assignment_saves_one () =
  let placement = Wdm_place.place params (fig6_conns ()) in
  let r = Assign.run params placement in
  Alcotest.(check int) "two tracks suffice" 2 r.Assign.final_count;
  Alcotest.(check bool) "reduction happened" true
    (r.Assign.final_count <= r.Assign.initial_count);
  (* all 60 bits still carried *)
  let carried =
    Array.fold_left
      (fun acc flows -> List.fold_left (fun a (_, b) -> a + b) acc flows)
      0 r.Assign.flows
  in
  Alcotest.(check int) "all bits carried" 60 carried

let test_assignment_respects_capacity () =
  let placement = Wdm_place.place params (fig6_conns ()) in
  let r = Assign.run params placement in
  Array.iter
    (fun t ->
      Alcotest.(check bool) "final track capacity" true (t.Wdm.used <= t.Wdm.capacity))
    r.Assign.tracks

let test_assignment_distance_bound () =
  let placement = Wdm_place.place params (fig6_conns ()) in
  let r = Assign.run params placement in
  Array.iteri
    (fun ci flows ->
      let c = placement.Wdm_place.conns.(ci) in
      List.iter
        (fun (wi, _) ->
          Alcotest.(check bool) "within dis_u" true
            (Wdm.track_distance r.Assign.tracks.(wi) c <= params.Params.dis_u +. 1e-9))
        flows)
    r.Assign.flows

let test_orientations_separate () =
  let conns =
    [| conn 0 0 (seg 0.0 1.0 3.0 1.0) 8; conn 1 1 (seg 1.0 0.0 1.0 3.0) 8 |]
  in
  let placement = Wdm_place.place params conns in
  Alcotest.(check int) "one track each" 2 (Wdm_place.track_count placement);
  let orients =
    Array.map (fun t -> t.Wdm.orient) placement.Wdm_place.tracks
  in
  Alcotest.(check bool) "one horizontal one vertical" true
    (Array.exists (fun o -> o = Wdm.Horizontal) orients
     && Array.exists (fun o -> o = Wdm.Vertical) orients)

let test_far_connections_not_shared () =
  (* Connections separated by more than dis_u must get distinct tracks. *)
  let conns =
    [| conn 0 0 (seg 0.0 0.0 3.0 0.0) 4; conn 1 1 (seg 0.0 2.0 3.0 2.0) 4 |]
  in
  let placement = Wdm_place.place params conns in
  Alcotest.(check int) "two tracks" 2 (Wdm_place.track_count placement)

let test_legalize_spacing () =
  let conns =
    [| conn 0 0 (seg 0.0 1.0 3.0 1.0) 30; conn 1 1 (seg 0.0 1.0001 3.0 1.0001) 30 |]
  in
  let placement = Wdm_place.place params conns in
  (* two crowded tracks (each connection fills most of a track) *)
  Alcotest.(check int) "two tracks" 2 (Wdm_place.track_count placement);
  let moved = Wdm_place.legalize params placement.Wdm_place.tracks in
  Alcotest.(check bool) "legalization moved a track" true (moved >= 1);
  let coords =
    Array.to_list placement.Wdm_place.tracks
    |> List.filter (fun t -> t.Wdm.orient = Wdm.Horizontal)
    |> List.map (fun t -> t.Wdm.coord)
    |> List.sort compare
  in
  let rec spaced = function
    | a :: (b :: _ as rest) -> b -. a >= params.Params.dis_l -. 1e-12 && spaced rest
    | _ -> true
  in
  Alcotest.(check bool) "dis_l spacing" true (spaced coords)

let test_empty_placement () =
  let placement = Wdm_place.place params [||] in
  Alcotest.(check int) "no tracks" 0 (Wdm_place.track_count placement);
  let r = Assign.run params placement in
  Alcotest.(check int) "nothing to do" 0 r.Assign.final_count;
  Alcotest.(check (float 1e-9)) "reduction ratio" 0.0 (Assign.reduction_ratio r)

let test_reduction_ratio () =
  let r =
    { Assign.tracks = [||]; flows = [||]; initial_count = 10; final_count = 9;
      displacement_cost = 0.0; searches = 0; retire_solves = 0; pinned = 0 }
  in
  Alcotest.(check (float 1e-9)) "10%" 0.1 (Assign.reduction_ratio r)

(* Property: on random bundles the assignment never loses bits, never
   exceeds capacity, and never increases the track count. *)
let prop_assignment_invariants =
  QCheck.Test.make ~name:"assignment invariants" ~count:50
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Operon_util.Prng.create seed in
      let n = 2 + Operon_util.Prng.int rng 12 in
      let conns =
        Array.init n (fun i ->
            let y = Operon_util.Prng.float rng 0.5 in
            let x0 = Operon_util.Prng.float rng 2.0 in
            let len = 0.5 +. Operon_util.Prng.float rng 2.0 in
            conn i i (seg x0 y (x0 +. len) (y +. (0.001 *. Operon_util.Prng.float rng 1.0)))
              (1 + Operon_util.Prng.int rng 31))
      in
      let placement = Wdm_place.place params conns in
      let r = Assign.run params placement in
      let total_bits = Array.fold_left (fun a c -> a + c.Wdm.bits) 0 conns in
      let carried =
        Array.fold_left
          (fun acc flows -> List.fold_left (fun a (_, b) -> a + b) acc flows)
          0 r.Assign.flows
      in
      carried = total_bits
      && r.Assign.final_count <= r.Assign.initial_count
      && Array.for_all (fun t -> t.Wdm.used <= t.Wdm.capacity) r.Assign.tracks)

let () =
  Alcotest.run "wdm_stages"
    [ ( "placement",
        [ Alcotest.test_case "all assigned" `Quick test_place_all_assigned;
          Alcotest.test_case "capacity" `Quick test_place_capacity;
          Alcotest.test_case "orientations separate" `Quick test_orientations_separate;
          Alcotest.test_case "far not shared" `Quick test_far_connections_not_shared;
          Alcotest.test_case "legalize spacing" `Quick test_legalize_spacing;
          Alcotest.test_case "empty" `Quick test_empty_placement ] );
      ( "assignment",
        [ Alcotest.test_case "fig6 saves a wdm" `Quick test_fig6_assignment_saves_one;
          Alcotest.test_case "capacity" `Quick test_assignment_respects_capacity;
          Alcotest.test_case "distance bound" `Quick test_assignment_distance_bound;
          Alcotest.test_case "reduction ratio" `Quick test_reduction_ratio;
          QCheck_alcotest.to_alcotest prop_assignment_invariants ] ) ]
