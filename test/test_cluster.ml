(* Tests for the clustering substrate: capacity-constrained K-Means and
   bottom-up hyper-pin agglomeration. *)

open Operon_util
open Operon_geom
open Operon_cluster

let p = Point.make

let rng () = Prng.create 1234

let grid_points n =
  Array.init n (fun i -> p (float_of_int (i mod 10)) (float_of_int (i / 10)))

(* --- kmeans --- *)

let test_kmeans_respects_capacity () =
  let pts = grid_points 100 in
  let r = Kmeans.run (rng ()) pts ~k:5 ~capacity:25 in
  Array.iter
    (fun c -> Alcotest.(check bool) "capacity" true (Array.length c <= 25))
    r.Kmeans.clusters

let test_kmeans_partitions_all () =
  let pts = grid_points 60 in
  let r = Kmeans.run (rng ()) pts ~k:3 ~capacity:25 in
  let seen = Array.make 60 false in
  Array.iter (Array.iter (fun i -> seen.(i) <- true)) r.Kmeans.clusters;
  Alcotest.(check bool) "every point assigned" true (Array.for_all Fun.id seen);
  let total = Array.fold_left (fun acc c -> acc + Array.length c) 0 r.Kmeans.clusters in
  Alcotest.(check int) "exactly once" 60 total

let test_kmeans_no_empty_clusters () =
  let pts = grid_points 20 in
  let r = Kmeans.run (rng ()) pts ~k:10 ~capacity:20 in
  Array.iter
    (fun c -> Alcotest.(check bool) "non-empty" true (Array.length c > 0))
    r.Kmeans.clusters

let test_kmeans_tight_capacity () =
  (* k * capacity = n exactly: every cluster must be full. *)
  let pts = grid_points 40 in
  let r = Kmeans.run (rng ()) pts ~k:4 ~capacity:10 in
  Alcotest.(check int) "4 clusters" 4 (Array.length r.Kmeans.clusters);
  Array.iter
    (fun c -> Alcotest.(check int) "full" 10 (Array.length c))
    r.Kmeans.clusters

let test_kmeans_invalid () =
  let pts = grid_points 10 in
  Alcotest.check_raises "too small" (Invalid_argument "Kmeans.run: k * capacity < n")
    (fun () -> ignore (Kmeans.run (rng ()) pts ~k:2 ~capacity:4));
  Alcotest.check_raises "no points" (Invalid_argument "Kmeans.run: no points")
    (fun () -> ignore (Kmeans.run (rng ()) [||] ~k:1 ~capacity:1))

let test_kmeans_separated_clusters () =
  (* Two well-separated blobs must be recovered exactly. *)
  let blob cx cy = Array.init 10 (fun i -> p (cx +. (0.01 *. float_of_int i)) cy) in
  let pts = Array.append (blob 0.0 0.0) (blob 100.0 100.0) in
  let r = Kmeans.run (rng ()) pts ~k:2 ~capacity:10 in
  Alcotest.(check int) "two clusters" 2 (Array.length r.Kmeans.clusters);
  Array.iter
    (fun c ->
      let side i = pts.(i).Point.x < 50.0 in
      let first = side c.(0) in
      Array.iter
        (fun i -> Alcotest.(check bool) "pure cluster" first (side i))
        c)
    r.Kmeans.clusters

let test_partition_under_capacity () =
  let pts = grid_points 10 in
  let r = Kmeans.partition (rng ()) pts ~capacity:32 in
  Alcotest.(check int) "single cluster" 1 (Array.length r.Kmeans.clusters);
  Alcotest.(check int) "holds all" 10 (Array.length r.Kmeans.clusters.(0))

let test_partition_chooses_k () =
  let pts = grid_points 100 in
  let r = Kmeans.partition (rng ()) pts ~capacity:32 in
  (* ceil(100/32) = 4 clusters requested; empties may be dropped *)
  Alcotest.(check bool) "at least 4 needed" true (Array.length r.Kmeans.clusters >= 4);
  Array.iter
    (fun c -> Alcotest.(check bool) "capacity" true (Array.length c <= 32))
    r.Kmeans.clusters

(* --- agglomerative --- *)

let test_agglom_merges_neighbors () =
  let pins = [| p 0.0 0.0; p 0.01 0.0; p 5.0 5.0 |] in
  let hps = Agglom.merge pins ~threshold:0.1 in
  Alcotest.(check int) "two hyper pins" 2 (Array.length hps);
  let sizes = Array.map (fun h -> Array.length h.Agglom.members) hps in
  Array.sort compare sizes;
  Alcotest.(check (array int)) "sizes" [| 1; 2 |] sizes

let test_agglom_threshold_zero () =
  let pins = [| p 0.0 0.0; p 0.0 0.0; p 1.0 1.0 |] in
  let hps = Agglom.merge pins ~threshold:0.0 in
  Alcotest.(check int) "all singletons" 3 (Array.length hps)

let test_agglom_empty () =
  Alcotest.(check int) "empty input" 0 (Array.length (Agglom.merge [||] ~threshold:1.0))

let test_agglom_gravity_center () =
  let pins = [| p 0.0 0.0; p 1.0 0.0; p 0.5 0.6 |] in
  let hps = Agglom.merge pins ~threshold:10.0 in
  Alcotest.(check int) "single hyper pin" 1 (Array.length hps);
  Alcotest.(check bool) "gravity center" true
    (Point.close ~eps:1e-9 hps.(0).Agglom.center (p 0.5 0.2))

let test_agglom_chain_merging () =
  (* Pins at pitch 0.04 under threshold 0.05: closest pairs merge first,
     after which the pair gravity centres sit 0.08 apart -- beyond the
     threshold -- so the chain stabilises at 5 two-pin hyper pins. A bus
     at a much finer pitch (0.002) still collapses fully. *)
  let pins = Array.init 10 (fun i -> p (0.04 *. float_of_int i) 0.0) in
  let hps = Agglom.merge pins ~threshold:0.05 in
  Alcotest.(check int) "pairwise stall at 6" 6 (Array.length hps);
  Array.iter
    (fun h ->
      Alcotest.(check bool) "clusters stay small" true
        (Array.length h.Agglom.members <= 2))
    hps;
  let fine = Array.init 10 (fun i -> p (0.002 *. float_of_int i) 0.0) in
  Alcotest.(check int) "fine bus fully merges" 1
    (Array.length (Agglom.merge fine ~threshold:0.05))

let test_agglom_members_partition () =
  let pins = Array.init 20 (fun i -> p (float_of_int (i mod 5)) (float_of_int (i / 5))) in
  let hps = Agglom.merge pins ~threshold:0.5 in
  let seen = Array.make 20 0 in
  Array.iter (fun h -> Array.iter (fun i -> seen.(i) <- seen.(i) + 1) h.Agglom.members) hps;
  Alcotest.(check (array int)) "each pin exactly once" (Array.make 20 1) seen

(* --- properties --- *)

let arb_pins =
  QCheck.make
    ~print:(fun pts -> string_of_int (Array.length pts))
    QCheck.Gen.(
      array_size (int_range 1 40)
        (map2 p (float_bound_exclusive 4.0) (float_bound_exclusive 4.0)))

let prop_kmeans_capacity =
  QCheck.Test.make ~name:"partition respects capacity" ~count:100 arb_pins
    (fun pts ->
      let r = Kmeans.partition (Prng.create 99) pts ~capacity:7 in
      Array.for_all (fun c -> Array.length c <= 7 && Array.length c > 0) r.Kmeans.clusters)

let prop_kmeans_covers =
  QCheck.Test.make ~name:"partition covers all points" ~count:100 arb_pins
    (fun pts ->
      let r = Kmeans.partition (Prng.create 7) pts ~capacity:5 in
      let total = Array.fold_left (fun a c -> a + Array.length c) 0 r.Kmeans.clusters in
      total = Array.length pts)

let prop_agglom_partition =
  QCheck.Test.make ~name:"agglom partitions pins" ~count:100
    (QCheck.pair arb_pins (QCheck.float_range 0.0 2.0))
    (fun (pts, threshold) ->
      let hps = Agglom.merge pts ~threshold in
      let total = Array.fold_left (fun a h -> a + Array.length h.Agglom.members) 0 hps in
      total = Array.length pts)

let prop_agglom_separated_stay_apart =
  QCheck.Test.make ~name:"far singleton stays apart" ~count:100 arb_pins
    (fun pts ->
      (* add a pin far outside any threshold reach *)
      let far = p 1000.0 1000.0 in
      let hps = Agglom.merge (Array.append pts [| far |]) ~threshold:1.0 in
      Array.exists
        (fun h ->
          Array.length h.Agglom.members = 1 && Point.close h.Agglom.center far)
        hps)

(* The merge as it stood before it kept a nearest neighbour per
   cluster: every round rescans every live pair for the closest, the
   first in (i, j) order on ties. Kept verbatim as the reference of the
   property below. *)
module Rescan = struct
  type cluster = { mutable pts : int list; mutable ctr : Point.t; mutable size : int }

  let merge pins ~threshold =
    let n = Array.length pins in
    if n = 0 then [||]
    else if threshold <= 0.0 then
      Array.mapi (fun i p -> { Agglom.members = [| i |]; center = p }) pins
    else begin
      let clusters =
        Array.init n (fun i -> Some { pts = [ i ]; ctr = pins.(i); size = 1 })
      in
      let merged_ref = ref true in
      while !merged_ref do
        merged_ref := false;
        let best = ref infinity and bi = ref (-1) and bj = ref (-1) in
        for i = 0 to n - 1 do
          match clusters.(i) with
          | None -> ()
          | Some ci ->
              for j = i + 1 to n - 1 do
                match clusters.(j) with
                | None -> ()
                | Some cj ->
                    let d = Point.l2 ci.ctr cj.ctr in
                    if d < !best then begin
                      best := d;
                      bi := i;
                      bj := j
                    end
              done
        done;
        if !bi >= 0 && !best < threshold then begin
          match (clusters.(!bi), clusters.(!bj)) with
          | Some ci, Some cj ->
              let total = ci.size + cj.size in
              let w1 = float_of_int ci.size /. float_of_int total in
              let w2 = float_of_int cj.size /. float_of_int total in
              ci.ctr <- Point.add (Point.scale w1 ci.ctr) (Point.scale w2 cj.ctr);
              ci.pts <- cj.pts @ ci.pts;
              ci.size <- total;
              clusters.(!bj) <- None;
              merged_ref := true
          | _ -> assert false
        end
      done;
      let out = ref [] in
      for i = n - 1 downto 0 do
        match clusters.(i) with
        | None -> ()
        | Some c ->
            let members = Array.of_list (List.sort compare c.pts) in
            out := { Agglom.members; center = c.ctr } :: !out
      done;
      List.sort (fun a b -> compare a.Agglom.members.(0) b.Agglom.members.(0)) !out
      |> Array.of_list
    end
end

(* Pins 1 and 2 merge first, into a centre exactly as far from pin 0
   as pin 3 is: pin 0's nearest cluster above it becomes the merged one,
   the lower index, so 0 then merges with {1, 2} and 3 stays apart. *)
let test_agglom_tie_with_merged () =
  let pins = [| p 0.0 0.0; p 1.0 0.1; p 1.0 (-0.1); p (-1.0) 0.0 |] in
  let members hps = Array.map (fun h -> h.Agglom.members) hps in
  Alcotest.(check (array (array int))) "rescan" [| [| 0; 1; 2 |]; [| 3 |] |]
    (members (Rescan.merge pins ~threshold:1.5));
  Alcotest.(check (array (array int))) "nearest neighbours" [| [| 0; 1; 2 |]; [| 3 |] |]
    (members (Agglom.merge pins ~threshold:1.5))

(* Pins on a coarse lattice (a quarter unit, up to 3 x 3 units), so
   duplicate points and equal distances are common, with thresholds
   around the lattice distances: the nearest-neighbour merge must give
   the rescan's hyper pins, members and bits of every centre. *)
let prop_agglom_matches_rescan =
  let gen =
    QCheck.Gen.(
      pair
        (array_size (int_range 0 60)
           (map2
              (fun x y -> p (0.25 *. float_of_int x) (0.25 *. float_of_int y))
              (int_range 0 12) (int_range 0 12)))
        (oneofl [ 0.0; 0.25; 0.3; 0.36; 0.5; 0.75; 1.0; 2.0; 100.0 ]))
  in
  QCheck.Test.make ~name:"nearest-neighbour merge = all-pairs rescan" ~count:500
    (QCheck.make
       ~print:(fun (pts, t) -> Printf.sprintf "%d pins, threshold %g" (Array.length pts) t)
       gen)
    (fun (pts, threshold) ->
      let same (a : Agglom.hyper_pin) (b : Agglom.hyper_pin) =
        a.Agglom.members = b.Agglom.members
        && Int64.bits_of_float a.Agglom.center.Point.x = Int64.bits_of_float b.Agglom.center.Point.x
        && Int64.bits_of_float a.Agglom.center.Point.y = Int64.bits_of_float b.Agglom.center.Point.y
      in
      let got = Agglom.merge pts ~threshold and want = Rescan.merge pts ~threshold in
      Array.length got = Array.length want && Array.for_all2 same got want)

let () =
  Alcotest.run "cluster"
    [ ( "kmeans",
        [ Alcotest.test_case "capacity" `Quick test_kmeans_respects_capacity;
          Alcotest.test_case "partitions all" `Quick test_kmeans_partitions_all;
          Alcotest.test_case "no empty clusters" `Quick test_kmeans_no_empty_clusters;
          Alcotest.test_case "tight capacity" `Quick test_kmeans_tight_capacity;
          Alcotest.test_case "invalid" `Quick test_kmeans_invalid;
          Alcotest.test_case "separated blobs" `Quick test_kmeans_separated_clusters;
          Alcotest.test_case "partition small" `Quick test_partition_under_capacity;
          Alcotest.test_case "partition chooses k" `Quick test_partition_chooses_k;
          QCheck_alcotest.to_alcotest prop_kmeans_capacity;
          QCheck_alcotest.to_alcotest prop_kmeans_covers ] );
      ( "agglom",
        [ Alcotest.test_case "merges neighbors" `Quick test_agglom_merges_neighbors;
          Alcotest.test_case "threshold zero" `Quick test_agglom_threshold_zero;
          Alcotest.test_case "empty" `Quick test_agglom_empty;
          Alcotest.test_case "gravity center" `Quick test_agglom_gravity_center;
          Alcotest.test_case "chain merging" `Quick test_agglom_chain_merging;
          Alcotest.test_case "members partition" `Quick test_agglom_members_partition;
          QCheck_alcotest.to_alcotest prop_agglom_partition;
          QCheck_alcotest.to_alcotest prop_agglom_separated_stay_apart;
          Alcotest.test_case "tie with a merged cluster" `Quick test_agglom_tie_with_merged;
          QCheck_alcotest.to_alcotest prop_agglom_matches_rescan ] ) ]
