(* Tests for the crossing index and the Section 3.3 interaction
   machinery (bounding-box variable reduction + component decomposition). *)

open Operon_geom
open Operon

let p = Point.make

let seg x1 y1 x2 y2 = Segment.make (p x1 y1) (p x2 y2)

let die = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:10.0 ~ymax:10.0

let test_index_counts_cross () =
  let idx =
    Crossing.build_index ~die
      [| (0, seg 0.0 5.0 10.0 5.0); (1, seg 5.0 0.0 5.0 10.0) |]
  in
  Alcotest.(check int) "query crosses both nets" 2
    (Crossing.count_crossings idx ~exclude_net:2 (seg 3.0 0.0 6.0 10.0));
  Alcotest.(check int) "excluding net 0 leaves the vertical" 1
    (Crossing.count_crossings idx ~exclude_net:0 (seg 3.0 0.0 6.0 10.0));
  Alcotest.(check int) "parallel query crosses the horizontal once" 1
    (Crossing.count_crossings idx ~exclude_net:1 (seg 2.0 0.0 2.0 10.0))

let test_index_excludes_own_net () =
  let idx = Crossing.build_index ~die [| (7, seg 0.0 5.0 10.0 5.0) |] in
  Alcotest.(check int) "own net ignored" 0
    (Crossing.count_crossings idx ~exclude_net:7 (seg 5.0 0.0 5.0 10.0));
  Alcotest.(check int) "other net counted" 1
    (Crossing.count_crossings idx ~exclude_net:99 (seg 5.0 0.0 5.0 10.0))

let test_index_no_double_counting () =
  (* A long diagonal spans many buckets; it must still count once. *)
  let idx = Crossing.build_index ~die [| (0, seg 0.0 0.0 10.0 10.0) |] in
  Alcotest.(check int) "counted once" 1
    (Crossing.count_crossings idx ~exclude_net:1 (seg 0.0 10.0 10.0 0.0))

(* The index rejects a pair whose bboxes are disjoint before testing it.
   On dies a few hundred units wide or less, [Segment.crosses_properly]
   never accepts such a pair: its 1e-9 tolerance exceeds the rounding of
   its cross products. At 1e4 coordinates it can, as for these two
   nearly collinear segments 6 units apart along their common line; the
   index counts no crossing there. *)
let test_disjoint_boxes_never_count () =
  let s1 = seg 7747.194204028925 9503.3124124440819 800.04116758043415 3569.0747669028001 in
  let s2 =
    seg 793.86563661558091 3563.7996465562978 (-2835.8355847366188) 463.31956258417637
  in
  Alcotest.(check bool) "the rounded predicate reads a crossing" true
    (Segment.crosses_properly s1 s2);
  let die = Rect.make ~xmin:(-3000.0) ~ymin:0.0 ~xmax:10000.0 ~ymax:10000.0 in
  let idx = Crossing.build_index ~die [| (0, s1) |] in
  Alcotest.(check int) "disjoint boxes count no crossing" 0
    (Crossing.count_crossings idx ~exclude_net:1 s2)

let test_index_matches_brute_force () =
  let rng = Operon_util.Prng.create 31 in
  let random_seg () =
    seg (Operon_util.Prng.float rng 10.0) (Operon_util.Prng.float rng 10.0)
      (Operon_util.Prng.float rng 10.0) (Operon_util.Prng.float rng 10.0)
  in
  let entries = Array.init 50 (fun i -> (i mod 7, random_seg ())) in
  let idx = Crossing.build_index ~die entries in
  for _ = 1 to 50 do
    let q = random_seg () in
    let exclude = Operon_util.Prng.int rng 7 in
    let brute =
      Array.fold_left
        (fun acc (net, s) ->
          if net <> exclude && Segment.crosses_properly s q then acc + 1 else acc)
        0 entries
    in
    Alcotest.(check int) "matches brute force" brute
      (Crossing.count_crossings idx ~exclude_net:exclude q)
  done

(* Each query walks the buckets of its cell range and reads an entry
   only in the first cell the two ranges share; the count must be the
   brute-force one. The 300 entries mix short segments with corridors,
   long runs across at least half the die like the chip-crossing nets of
   I2 and I5, so entries span many cells and are met first on every side
   of a query's range. A third of the queries are axis-aligned and lie
   exactly on a cell boundary (the die's 32 cells are 0.3125 wide), where
   a computed intersection point can round into the neighbouring cell. *)
let prop_grid_matches_brute_force =
  QCheck.Test.make ~name:"grid index matches brute force" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Operon_util.Prng.create seed in
      let coord () = Operon_util.Prng.float rng 10.0 in
      let random_seg () = seg (coord ()) (coord ()) (coord ()) (coord ()) in
      let short_seg () =
        let x = coord () and y = coord () in
        let near v = Float.min 10.0 (v +. Operon_util.Prng.float rng 1.0) in
        seg x y (near x) (near y)
      in
      let corridor () =
        let lo = Operon_util.Prng.float rng 5.0 in
        let hi = lo +. 5.0 +. Operon_util.Prng.float rng (5.0 -. lo) in
        let a = coord () in
        let b = Float.max 0.0 (Float.min 10.0 (a +. Operon_util.Prng.float rng 0.5)) in
        if Operon_util.Prng.bool rng then seg lo a hi b else seg a lo b hi
      in
      let entries =
        Array.init 300 (fun i ->
            (i mod 7, if i mod 3 = 0 then corridor () else short_seg ()))
      in
      let idx = Crossing.build_index ~die entries in
      let boundary () = float_of_int (Operon_util.Prng.int rng 33) *. 10.0 /. 32.0 in
      let query k =
        match k mod 6 with
        | 0 -> random_seg ()
        | 1 | 2 -> short_seg ()
        | 3 -> corridor ()
        | 4 ->
            let x = boundary () in
            seg x (coord ()) x (coord ())
        | _ ->
            let y = boundary () in
            seg (coord ()) y (coord ()) y
      in
      List.for_all
          (fun k ->
            let q = query k and exclude = Operon_util.Prng.int rng 7 in
            let want =
              Array.fold_left
                (fun acc (net, s) ->
                  if
                    net <> exclude
                    && Segment.crosses_properly s q
                    && Segment.intersection_point s q <> None
                  then acc + 1
                  else acc)
                0 entries
            in
            Crossing.count_crossings idx ~exclude_net:exclude q = want)
          (List.init 240 Fun.id))

(* Every entry's bbox cell range is the whole grid, so every bucket lists
   every entry, and each query covers every cell too: each entry must
   still be counted once, in the query's first cell, as the brute-force
   count says. The entries are near-diagonals in both directions, one
   net each, that also cross one another. *)
let test_die_spanning_entries () =
  let rising k = seg (0.1 *. k) 0.2 (9.9 -. (0.1 *. k)) 9.8 in
  let falling k = seg 0.2 (9.9 -. (0.1 *. k)) 9.8 (0.1 *. k) in
  let entries =
    Array.init 6 (fun k ->
        let k' = float_of_int k in
        (k, if k mod 2 = 0 then rising k' else falling k'))
  in
  let idx = Crossing.build_index ~die entries in
  List.iter
    (fun (q, exclude) ->
      let want =
        Array.fold_left
          (fun acc (net, s) ->
            if
              net <> exclude
              && Segment.crosses_properly s q
              && Segment.intersection_point s q <> None
            then acc + 1
            else acc)
          0 entries
      in
      Alcotest.(check bool) "the query crosses an entry" true (want > 0);
      Alcotest.(check int) "each entry counted once" want
        (Crossing.count_crossings idx ~exclude_net:exclude q))
    [ (rising 1.5, 9); (falling 1.5, 9); (rising 2.5, 1); (falling 0.5, 0) ]

let test_estimator_closure () =
  let idx = Crossing.build_index ~die [| (0, seg 0.0 5.0 10.0 5.0) |] in
  let est = Crossing.estimator idx ~net:1 in
  Alcotest.(check int) "closure counts" 1 (est (seg 5.0 0.0 5.0 10.0))

let rect x1 y1 x2 y2 = Rect.make ~xmin:x1 ~ymin:y1 ~xmax:x2 ~ymax:y2

let test_components () =
  let boxes =
    [| rect 0.0 0.0 2.0 2.0; (* overlaps 1 *)
       rect 1.0 1.0 3.0 3.0; (* overlaps 0 and 2 *)
       rect 2.5 2.5 4.0 4.0; (* overlaps 1 *)
       rect 8.0 8.0 9.0 9.0 (* isolated *) |]
  in
  let comps = Crossing.interaction_components boxes in
  Alcotest.(check int) "two components" 2 (Array.length comps);
  let sizes = Array.map Array.length comps in
  Array.sort compare sizes;
  Alcotest.(check (array int)) "sizes 1 and 3" [| 1; 3 |] sizes

let test_components_all_disjoint () =
  let boxes = Array.init 5 (fun i -> rect (float_of_int (3 * i)) 0.0 (float_of_int ((3 * i) + 1)) 1.0) in
  let comps = Crossing.interaction_components boxes in
  Alcotest.(check int) "all singletons" 5 (Array.length comps)

(* The interacting pairs (i < j, boxes overlapping) the spatial index
   reports, collected and sorted. *)
let overlap_pairs boxes =
  let acc = ref [] in
  Overlap.iter_pairs (Overlap.build boxes) (fun i j -> acc := (i, j) :: !acc);
  List.sort compare !acc

let test_overlap_pairs () =
  let boxes = [| rect 0.0 0.0 2.0 2.0; rect 1.0 1.0 3.0 3.0; rect 9.0 9.0 10.0 10.0 |] in
  Alcotest.(check (list (pair int int))) "single pair" [ (0, 1) ] (overlap_pairs boxes)

(* The shapes the sweep must not miss or repeat: a box repeated four
   times, boxes that touch along an edge or only at a corner, zero-width
   and zero-height boxes and a point, a box that starts where another
   ends, and one just past touching. *)
let test_overlap_pairs_degenerate () =
  let boxes =
    [| rect 0.0 0.0 1.0 1.0; rect 1.0 0.0 2.0 1.0; rect 2.0 1.0 3.0 2.0;
       rect 0.0 0.0 1.0 1.0; rect 0.0 0.0 1.0 1.0; rect 0.0 0.0 1.0 1.0;
       rect 0.5 0.5 0.5 0.5; rect 0.0 3.0 4.0 3.0; rect 2.0 2.0 2.0 5.0;
       rect 4.0 3.0 4.0 3.0; rect 5.0 5.0 6.0 6.0; rect 2.0000001 0.0 3.0 0.5;
       rect 1.0 1.0 1.0 1.0 |]
  in
  let n = Array.length boxes in
  let naive = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if Rect.overlaps boxes.(i) boxes.(j) then naive := (i, j) :: !naive
    done
  done;
  Alcotest.(check (list (pair int int))) "naive pairs" !naive (overlap_pairs boxes);
  Alcotest.(check bool) "corner touch counts" true (List.mem (1, 2) !naive);
  Alcotest.(check bool) "just past touching does not" false (List.mem (1, 11) !naive)

let prop_components_partition =
  QCheck.Test.make ~name:"components partition the nets" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 20)
              (quad (float_range 0.0 8.0) (float_range 0.0 8.0)
                 (float_range 0.1 2.0) (float_range 0.1 2.0)))
    (fun specs ->
      let boxes =
        Array.of_list
          (List.map (fun (x, y, w, h) -> rect x y (x +. w) (y +. h)) specs)
      in
      let comps = Crossing.interaction_components boxes in
      let seen = Array.make (Array.length boxes) 0 in
      Array.iter (Array.iter (fun i -> seen.(i) <- seen.(i) + 1)) comps;
      Array.for_all (fun c -> c = 1) seen)

let prop_pairs_within_components =
  QCheck.Test.make ~name:"interacting pairs stay within one component" ~count:100
    QCheck.(list_of_size Gen.(int_range 2 15)
              (quad (float_range 0.0 8.0) (float_range 0.0 8.0)
                 (float_range 0.1 2.0) (float_range 0.1 2.0)))
    (fun specs ->
      let boxes =
        Array.of_list
          (List.map (fun (x, y, w, h) -> rect x y (x +. w) (y +. h)) specs)
      in
      let comps = Crossing.interaction_components boxes in
      let comp_of = Array.make (Array.length boxes) (-1) in
      Array.iteri (fun ci members -> Array.iter (fun i -> comp_of.(i) <- ci) members) comps;
      List.for_all (fun (i, j) -> comp_of.(i) = comp_of.(j)) (overlap_pairs boxes))

let () =
  Alcotest.run "crossing"
    [ ( "index",
        [ Alcotest.test_case "counts crossings" `Quick test_index_counts_cross;
          Alcotest.test_case "excludes own net" `Quick test_index_excludes_own_net;
          Alcotest.test_case "no double counting" `Quick test_index_no_double_counting;
          Alcotest.test_case "disjoint boxes never count" `Quick
            test_disjoint_boxes_never_count;
          Alcotest.test_case "matches brute force" `Quick test_index_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_grid_matches_brute_force;
          Alcotest.test_case "die-spanning entries" `Quick
            test_die_spanning_entries;
          Alcotest.test_case "estimator closure" `Quick test_estimator_closure ] );
      ( "interaction",
        [ Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "disjoint" `Quick test_components_all_disjoint;
          Alcotest.test_case "pairs" `Quick test_overlap_pairs;
          Alcotest.test_case "pairs, degenerate boxes" `Quick test_overlap_pairs_degenerate;
          QCheck_alcotest.to_alcotest prop_components_partition;
          QCheck_alcotest.to_alcotest prop_pairs_within_components ] ) ]
