(* Tests for the geometry substrate: points, rectangles, segment crossing
   semantics (the loss model depends on "proper crossing" being exactly
   transversal-interior), and the hotspot grid. *)

open Operon_geom

let p = Point.make

let check_float = Alcotest.(check (float 1e-9))

(* --- points --- *)

let test_distances () =
  check_float "l1" 7.0 (Point.l1 (p 0.0 0.0) (p 3.0 4.0));
  check_float "l2" 5.0 (Point.l2 (p 0.0 0.0) (p 3.0 4.0));
  check_float "l2_sq" 25.0 (Point.l2_sq (p 0.0 0.0) (p 3.0 4.0))

let test_point_ops () =
  let a = p 1.0 2.0 and b = p 3.0 5.0 in
  Alcotest.(check bool) "midpoint" true (Point.equal (Point.midpoint a b) (p 2.0 3.5));
  Alcotest.(check bool) "add" true (Point.equal (Point.add a b) (p 4.0 7.0));
  Alcotest.(check bool) "sub" true (Point.equal (Point.sub b a) (p 2.0 3.0));
  check_float "dot" 13.0 (Point.dot a b);
  check_float "cross" (-1.0) (Point.cross a b)

let test_centroid () =
  let c = Point.centroid [| p 0.0 0.0; p 2.0 0.0; p 1.0 3.0 |] in
  Alcotest.(check bool) "centroid" true (Point.close c (p 1.0 1.0));
  Alcotest.check_raises "empty" (Invalid_argument "Point.centroid: empty array")
    (fun () -> ignore (Point.centroid [||]))

let test_compare_order () =
  Alcotest.(check bool) "x first" true (Point.compare (p 0.0 9.0) (p 1.0 0.0) < 0);
  Alcotest.(check bool) "then y" true (Point.compare (p 1.0 0.0) (p 1.0 1.0) < 0);
  Alcotest.(check int) "equal" 0 (Point.compare (p 1.0 1.0) (p 1.0 1.0))

(* --- rectangles --- *)

let test_rect_basic () =
  let r = Rect.make ~xmin:0.0 ~ymin:1.0 ~xmax:4.0 ~ymax:3.0 in
  check_float "width" 4.0 (Rect.width r);
  check_float "height" 2.0 (Rect.height r);
  check_float "area" 8.0 (Rect.area r);
  check_float "hpwl" 6.0 (Rect.half_perimeter r);
  Alcotest.(check bool) "contains" true (Rect.contains r (p 2.0 2.0));
  Alcotest.(check bool) "boundary contains" true (Rect.contains r (p 0.0 1.0));
  Alcotest.(check bool) "outside" false (Rect.contains r (p 5.0 2.0))

let test_rect_invalid () =
  Alcotest.check_raises "inverted" (Invalid_argument "Rect.make: inverted bounds")
    (fun () -> ignore (Rect.make ~xmin:1.0 ~ymin:0.0 ~xmax:0.0 ~ymax:1.0))

let test_rect_overlap () =
  let a = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:2.0 ~ymax:2.0 in
  let b = Rect.make ~xmin:1.0 ~ymin:1.0 ~xmax:3.0 ~ymax:3.0 in
  let c = Rect.make ~xmin:2.0 ~ymin:2.0 ~xmax:3.0 ~ymax:3.0 in
  let d = Rect.make ~xmin:5.0 ~ymin:5.0 ~xmax:6.0 ~ymax:6.0 in
  Alcotest.(check bool) "proper overlap" true (Rect.overlaps a b);
  Alcotest.(check bool) "touching counts" true (Rect.overlaps a c);
  Alcotest.(check bool) "disjoint" false (Rect.overlaps a d)

let test_rect_intersection_union () =
  let a = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:2.0 ~ymax:2.0 in
  let b = Rect.make ~xmin:1.0 ~ymin:1.0 ~xmax:3.0 ~ymax:3.0 in
  (match Rect.intersection a b with
   | Some r ->
       check_float "ixmin" 1.0 r.Rect.xmin;
       check_float "ixmax" 2.0 r.Rect.xmax
   | None -> Alcotest.fail "expected intersection");
  let u = Rect.union a b in
  check_float "uxmax" 3.0 u.Rect.xmax;
  let far = Rect.make ~xmin:10.0 ~ymin:10.0 ~xmax:11.0 ~ymax:11.0 in
  Alcotest.(check bool) "no intersection" true (Rect.intersection a far = None)

let test_rect_inflate () =
  let a = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:2.0 ~ymax:2.0 in
  let big = Rect.inflate a 1.0 in
  check_float "grown" 4.0 (Rect.width big);
  let collapsed = Rect.inflate a (-5.0) in
  check_float "collapsed to center" 0.0 (Rect.width collapsed);
  Alcotest.(check bool) "center preserved" true
    (Point.close (Rect.center collapsed) (p 1.0 1.0))

let test_rect_of_points () =
  let r = Rect.of_points [| p 1.0 5.0; p 3.0 2.0; p 2.0 4.0 |] in
  check_float "xmin" 1.0 r.Rect.xmin;
  check_float "ymax" 5.0 r.Rect.ymax

(* --- segments --- *)

let seg a b = Segment.make a b

let test_segment_lengths () =
  let s = seg (p 0.0 0.0) (p 3.0 4.0) in
  check_float "l2 length" 5.0 (Segment.length s);
  check_float "l1 length" 7.0 (Segment.length_l1 s)

let test_segment_orientation_classes () =
  Alcotest.(check bool) "horizontal" true (Segment.is_horizontal (seg (p 0.0 1.0) (p 5.0 1.0)));
  Alcotest.(check bool) "vertical" true (Segment.is_vertical (seg (p 2.0 0.0) (p 2.0 5.0)));
  Alcotest.(check bool) "diagonal not horizontal" false
    (Segment.is_horizontal (seg (p 0.0 0.0) (p 1.0 1.0)))

let test_proper_crossing () =
  let s1 = seg (p 0.0 0.0) (p 2.0 2.0) in
  let s2 = seg (p 0.0 2.0) (p 2.0 0.0) in
  Alcotest.(check bool) "X crosses" true (Segment.crosses_properly s1 s2);
  Alcotest.(check bool) "symmetric" true (Segment.crosses_properly s2 s1)

let test_endpoint_touch_not_proper () =
  (* Shared endpoints are tree branch points, not waveguide crossings. *)
  let s1 = seg (p 0.0 0.0) (p 1.0 1.0) in
  let s2 = seg (p 1.0 1.0) (p 2.0 0.0) in
  Alcotest.(check bool) "intersects" true (Segment.intersects s1 s2);
  Alcotest.(check bool) "not proper" false (Segment.crosses_properly s1 s2)

let test_t_junction_not_proper () =
  let s1 = seg (p 0.0 0.0) (p 2.0 0.0) in
  let s2 = seg (p 1.0 0.0) (p 1.0 1.0) in
  Alcotest.(check bool) "T intersects" true (Segment.intersects s1 s2);
  Alcotest.(check bool) "T not proper" false (Segment.crosses_properly s1 s2)

let test_collinear_overlap_not_proper () =
  let s1 = seg (p 0.0 0.0) (p 2.0 0.0) in
  let s2 = seg (p 1.0 0.0) (p 3.0 0.0) in
  Alcotest.(check bool) "collinear intersects" true (Segment.intersects s1 s2);
  Alcotest.(check bool) "collinear not proper" false (Segment.crosses_properly s1 s2)

let test_disjoint_segments () =
  let s1 = seg (p 0.0 0.0) (p 1.0 0.0) in
  let s2 = seg (p 0.0 1.0) (p 1.0 1.0) in
  Alcotest.(check bool) "parallel disjoint" false (Segment.intersects s1 s2);
  Alcotest.(check bool) "not proper either" false (Segment.crosses_properly s1 s2)

let test_intersection_point () =
  let s1 = seg (p 0.0 0.0) (p 2.0 2.0) in
  let s2 = seg (p 0.0 2.0) (p 2.0 0.0) in
  (match Segment.intersection_point s1 s2 with
   | Some q -> Alcotest.(check bool) "center" true (Point.close q (p 1.0 1.0))
   | None -> Alcotest.fail "expected intersection");
  let s3 = seg (p 0.0 5.0) (p 1.0 5.0) in
  Alcotest.(check bool) "parallel -> none" true (Segment.intersection_point s1 s3 = None)

let test_count_crossings () =
  let fam1 = [| seg (p 0.0 0.0) (p 4.0 0.0); seg (p 0.0 1.0) (p 4.0 1.0) |] in
  let fam2 = [| seg (p 1.0 (-1.0)) (p 1.0 2.0); seg (p 3.0 (-1.0)) (p 3.0 2.0) |] in
  Alcotest.(check int) "4 crossings" 4 (Segment.count_crossings fam1 fam2);
  Alcotest.(check int) "no self crossings among parallels" 0
    (Segment.count_self_crossings fam1)

let test_self_crossings () =
  let fam =
    [| seg (p 0.0 0.0) (p 2.0 2.0); seg (p 0.0 2.0) (p 2.0 0.0);
       seg (p 5.0 5.0) (p 6.0 6.0) |]
  in
  Alcotest.(check int) "one pair" 1 (Segment.count_self_crossings fam)

let test_distance_point () =
  let s = seg (p 0.0 0.0) (p 4.0 0.0) in
  check_float "perpendicular" 2.0 (Segment.distance_point (p 2.0 2.0) s);
  check_float "beyond endpoint" 5.0 (Segment.distance_point (p 7.0 4.0) s);
  check_float "on segment" 0.0 (Segment.distance_point (p 1.0 0.0) s)

(* --- gridmap --- *)

let die = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:4.0 ~ymax:4.0

let test_grid_point_deposit () =
  let g = Gridmap.create die ~nx:4 ~ny:4 in
  Gridmap.deposit_point g (p 0.5 0.5) 2.0;
  Gridmap.deposit_point g (p 3.9 3.9) 3.0;
  check_float "cell 0,0" 2.0 (Gridmap.get g 0 0);
  check_float "cell 3,3" 3.0 (Gridmap.get g 3 3);
  check_float "total" 5.0 (Gridmap.total g);
  check_float "peak" 3.0 (Gridmap.peak g)

let test_grid_clamping () =
  let g = Gridmap.create die ~nx:4 ~ny:4 in
  Gridmap.deposit_point g (p (-1.0) 10.0) 1.0;
  check_float "clamped to border" 1.0 (Gridmap.get g 0 3)

let test_grid_segment_mass_conserved () =
  let g = Gridmap.create die ~nx:4 ~ny:4 in
  Gridmap.deposit_segment g (seg (p 0.2 0.2) (p 3.8 3.8)) 10.0;
  Alcotest.(check bool) "mass conserved" true (Float.abs (Gridmap.total g -. 10.0) < 1e-6);
  (* a diagonal must heat all diagonal cells *)
  Alcotest.(check bool) "diagonal coverage" true
    (Gridmap.get g 0 0 > 0.0 && Gridmap.get g 1 1 > 0.0 && Gridmap.get g 2 2 > 0.0
     && Gridmap.get g 3 3 > 0.0)

let test_grid_normalized () =
  let g = Gridmap.create die ~nx:2 ~ny:2 in
  Gridmap.deposit_point g (p 0.5 0.5) 4.0;
  Gridmap.deposit_point g (p 3.5 3.5) 2.0;
  let n = Gridmap.normalized g in
  check_float "peak 1" 1.0 n.(0).(0);
  check_float "half" 0.5 n.(1).(1)

let test_grid_correlation () =
  let g1 = Gridmap.create die ~nx:2 ~ny:2 in
  let g2 = Gridmap.create die ~nx:2 ~ny:2 in
  Gridmap.deposit_point g1 (p 0.5 0.5) 1.0;
  Gridmap.deposit_point g2 (p 0.5 0.5) 5.0;
  Alcotest.(check bool) "self-similar maps correlate" true (Gridmap.correlation g1 g2 > 0.99);
  let g3 = Gridmap.create die ~nx:2 ~ny:2 in
  Gridmap.deposit_point g3 (p 3.5 3.5) 1.0;
  Alcotest.(check bool) "different hotspots anti-correlate" true (Gridmap.correlation g1 g3 < 0.0)

let test_grid_render () =
  let g = Gridmap.create die ~nx:3 ~ny:2 in
  Gridmap.deposit_point g (p 0.5 0.5) 1.0;
  let s = Gridmap.render g in
  let newlines = String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s in
  Alcotest.(check int) "one newline per row" 2 newlines;
  Alcotest.(check int) "rows are nx wide (+newline)" (2 * 4) (String.length s)

(* --- properties --- *)

let point_gen =
  QCheck.Gen.(map2 (fun x y -> p x y) (float_bound_exclusive 10.0) (float_bound_exclusive 10.0))

let arb_point = QCheck.make ~print:(fun q -> Format.asprintf "%a" Point.pp q) point_gen

let prop_triangle_l1 =
  QCheck.Test.make ~name:"L1 triangle inequality" ~count:500
    QCheck.(triple arb_point arb_point arb_point)
    (fun (a, b, c) -> Point.l1 a c <= Point.l1 a b +. Point.l1 b c +. 1e-9)

let prop_triangle_l2 =
  QCheck.Test.make ~name:"L2 triangle inequality" ~count:500
    QCheck.(triple arb_point arb_point arb_point)
    (fun (a, b, c) -> Point.l2 a c <= Point.l2 a b +. Point.l2 b c +. 1e-9)

let prop_l1_ge_l2 =
  QCheck.Test.make ~name:"L1 >= L2" ~count:500
    QCheck.(pair arb_point arb_point)
    (fun (a, b) -> Point.l1 a b >= Point.l2 a b -. 1e-9)

let prop_crossing_symmetric =
  QCheck.Test.make ~name:"proper crossing is symmetric" ~count:500
    QCheck.(quad arb_point arb_point arb_point arb_point)
    (fun (a, b, c, d) ->
      let s1 = seg a b and s2 = seg c d in
      Segment.crosses_properly s1 s2 = Segment.crosses_properly s2 s1)

let prop_proper_implies_intersects =
  QCheck.Test.make ~name:"proper crossing implies intersection" ~count:500
    QCheck.(quad arb_point arb_point arb_point arb_point)
    (fun (a, b, c, d) ->
      let s1 = seg a b and s2 = seg c d in
      (not (Segment.crosses_properly s1 s2)) || Segment.intersects s1 s2)

(* The boxed formulation of [Segment.orientation] (intermediate points
   from [Point.sub], then [Point.cross]), kept as the oracle the
   allocation-free predicate must match bit for bit. *)
let orientation_oracle p q r =
  let v = Point.cross (Point.sub q p) (Point.sub r p) in
  if v > 1e-9 then 1 else if v < -1e-9 then -1 else 0

let crosses_properly_oracle (s1 : Segment.t) (s2 : Segment.t) =
  let o = orientation_oracle in
  o s1.a s1.b s2.a * o s1.a s1.b s2.b < 0 && o s2.a s2.b s1.a * o s2.a s2.b s1.b < 0

(* The boxed intersection-parameter test, likewise. *)
let has_intersection_point_oracle (s1 : Segment.t) (s2 : Segment.t) =
  let r = Point.sub s1.b s1.a and s = Point.sub s2.b s2.a in
  let denom = Point.cross r s in
  Float.abs denom > 1e-9
  &&
  let qp = Point.sub s2.a s1.a in
  let t = Point.cross qp s /. denom and u = Point.cross qp r /. denom in
  t >= -1e-9 && t <= 1.0 +. 1e-9 && u >= -1e-9 && u <= 1.0 +. 1e-9

(* Segment pairs from four families: uniform in a 10 x 10 box, nearly
   collinear (the second segment's endpoints within ~1e-10 of the first's
   line, where the sign sits at the eps threshold or in rounding noise),
   sharing an endpoint, and all but the shared family again at ~1e4
   coordinates. *)
let segment_pair_gen =
  let open QCheck.Gen in
  let pt scale = map2 (fun x y -> p x y) (float_bound_exclusive scale) (float_bound_exclusive scale) in
  let near_line scale =
    pt scale >>= fun a ->
    pt scale >>= fun b ->
    let on_line = map2 (fun t e -> p (a.x +. (t *. (b.x -. a.x)) +. e) (a.y +. (t *. (b.y -. a.y)) -. e))
        (float_range (-0.5) 1.5) (float_range (-1e-10) 1e-10)
    in
    map2 (fun c d -> (seg a b, seg c d)) on_line on_line
  in
  let shared =
    pt 10.0 >>= fun a ->
    map3 (fun b c first -> (seg a b, if first then seg a c else seg c a)) (pt 10.0) (pt 10.0) bool
  in
  let uniform scale = map2 (fun (a, b) (c, d) -> (seg a b, seg c d)) (pair (pt scale) (pt scale)) (pair (pt scale) (pt scale)) in
  oneof [ uniform 10.0; near_line 10.0; near_line 1e4; shared; uniform 1e4 ]

let arb_segment_pair =
  QCheck.make
    ~print:(fun (s1, s2) -> Format.asprintf "%a %a" Segment.pp s1 Segment.pp s2)
    segment_pair_gen

let prop_predicate_parity =
  QCheck.Test.make ~name:"predicates match the boxed oracle" ~count:4000 arb_segment_pair
    (fun ((s1 : Segment.t), (s2 : Segment.t)) ->
      Segment.orientation s1.a s1.b s2.a = orientation_oracle s1.a s1.b s2.a
      && Segment.orientation s1.a s1.b s2.b = orientation_oracle s1.a s1.b s2.b
      && Segment.orientation s2.a s2.b s1.a = orientation_oracle s2.a s2.b s1.a
      && Segment.orientation s2.a s2.b s1.b = orientation_oracle s2.a s2.b s1.b
      && Segment.crosses_properly s1 s2 = crosses_properly_oracle s1 s2
      && Segment.has_intersection_point s1 s2 = has_intersection_point_oracle s1 s2
      && (Segment.intersection_point s1 s2 <> None) = has_intersection_point_oracle s1 s2)

let prop_exists_crossing =
  QCheck.Test.make ~name:"exists_crossing = count_crossings > 0" ~count:500
    QCheck.(pair (array_of_size Gen.(int_range 0 8) (pair arb_point arb_point))
              (array_of_size Gen.(int_range 0 8) (pair arb_point arb_point)))
    (fun (f1, f2) ->
      let fam = Array.map (fun (a, b) -> seg a b) in
      let f1 = fam f1 and f2 = fam f2 in
      Segment.exists_crossing f1 f2 = (Segment.count_crossings f1 f2 > 0))

let prop_bbox_contains_endpoints =
  QCheck.Test.make ~name:"bbox contains its points" ~count:500
    QCheck.(array_of_size Gen.(int_range 1 20) arb_point)
    (fun pts ->
      let r = Rect.of_points pts in
      Array.for_all (Rect.contains r) pts)

let () =
  Alcotest.run "geom"
    [ ( "point",
        [ Alcotest.test_case "distances" `Quick test_distances;
          Alcotest.test_case "ops" `Quick test_point_ops;
          Alcotest.test_case "centroid" `Quick test_centroid;
          Alcotest.test_case "compare" `Quick test_compare_order;
          QCheck_alcotest.to_alcotest prop_triangle_l1;
          QCheck_alcotest.to_alcotest prop_triangle_l2;
          QCheck_alcotest.to_alcotest prop_l1_ge_l2 ] );
      ( "rect",
        [ Alcotest.test_case "basic" `Quick test_rect_basic;
          Alcotest.test_case "invalid" `Quick test_rect_invalid;
          Alcotest.test_case "overlap" `Quick test_rect_overlap;
          Alcotest.test_case "intersection/union" `Quick test_rect_intersection_union;
          Alcotest.test_case "inflate" `Quick test_rect_inflate;
          Alcotest.test_case "of_points" `Quick test_rect_of_points;
          QCheck_alcotest.to_alcotest prop_bbox_contains_endpoints ] );
      ( "segment",
        [ Alcotest.test_case "lengths" `Quick test_segment_lengths;
          Alcotest.test_case "orientation" `Quick test_segment_orientation_classes;
          Alcotest.test_case "proper crossing" `Quick test_proper_crossing;
          Alcotest.test_case "endpoint touch" `Quick test_endpoint_touch_not_proper;
          Alcotest.test_case "T junction" `Quick test_t_junction_not_proper;
          Alcotest.test_case "collinear overlap" `Quick test_collinear_overlap_not_proper;
          Alcotest.test_case "disjoint" `Quick test_disjoint_segments;
          Alcotest.test_case "intersection point" `Quick test_intersection_point;
          Alcotest.test_case "count crossings" `Quick test_count_crossings;
          Alcotest.test_case "self crossings" `Quick test_self_crossings;
          Alcotest.test_case "distance to point" `Quick test_distance_point;
          QCheck_alcotest.to_alcotest prop_crossing_symmetric;
          QCheck_alcotest.to_alcotest prop_proper_implies_intersects;
          QCheck_alcotest.to_alcotest prop_predicate_parity;
          QCheck_alcotest.to_alcotest prop_exists_crossing ] );
      ( "gridmap",
        [ Alcotest.test_case "point deposit" `Quick test_grid_point_deposit;
          Alcotest.test_case "clamping" `Quick test_grid_clamping;
          Alcotest.test_case "segment mass" `Quick test_grid_segment_mass_conserved;
          Alcotest.test_case "normalized" `Quick test_grid_normalized;
          Alcotest.test_case "correlation" `Quick test_grid_correlation;
          Alcotest.test_case "render" `Quick test_grid_render ] ) ]
