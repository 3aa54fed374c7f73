(* Tests for Steiner-tree construction: topology invariants, BI1S never
   losing to the plain MST, Hanan candidates, subdivision, and the RSMT
   bracketing HPWL <= RSMT <= RMST. *)

open Operon_geom
open Operon_steiner

let p = Point.make

let check_float = Alcotest.(check (float 1e-9))

(* --- topology --- *)

let three_pin () =
  (* root 0 at origin, terminals at (2,0) and (1,1), one Steiner node. *)
  Topology.make
    ~positions:[| p 0.0 0.0; p 2.0 0.0; p 1.0 1.0; p 1.0 0.0 |]
    ~nterminals:3
    ~edges:[ (0, 3); (3, 1); (3, 2) ]
    ~root:0

let test_topology_structure () =
  let t = three_pin () in
  Alcotest.(check int) "nodes" 4 (Topology.node_count t);
  Alcotest.(check int) "terminals" 3 (Topology.terminal_count t);
  Alcotest.(check int) "root" 0 (Topology.root t);
  Alcotest.(check bool) "terminal" true (Topology.is_terminal t 2);
  Alcotest.(check bool) "steiner" false (Topology.is_terminal t 3);
  Alcotest.(check int) "root parent" (-1) (Topology.parent t 0);
  Alcotest.(check int) "steiner parent" 0 (Topology.parent t 3);
  Alcotest.(check (list int)) "steiner children" [ 2; 1 ]
    (List.sort (fun a b -> compare b a) (Topology.children t 3))

let test_topology_postorder () =
  let t = three_pin () in
  let order = Topology.postorder t in
  Alcotest.(check int) "all nodes" 4 (List.length order);
  (* every child must appear before its parent *)
  let position = Hashtbl.create 4 in
  List.iteri (fun i v -> Hashtbl.add position v i) order;
  List.iter
    (fun (parent, child) ->
      Alcotest.(check bool) "child before parent" true
        (Hashtbl.find position child < Hashtbl.find position parent))
    (Topology.edges t)

let test_topology_lengths () =
  let t = three_pin () in
  check_float "L1 length" 3.0 (Topology.length Topology.L1 t);
  check_float "L2 length" 3.0 (Topology.length Topology.L2 t);
  check_float "edge length" 1.0 (Topology.edge_length Topology.L1 t 3)

let test_topology_subtree_terminals () =
  let t = three_pin () in
  let counts = Topology.subtree_terminals t in
  Alcotest.(check int) "root sees all" 3 counts.(0);
  Alcotest.(check int) "steiner sees two" 2 counts.(3);
  Alcotest.(check int) "leaf sees itself" 1 counts.(1)

let test_topology_invalid () =
  Alcotest.check_raises "not spanning"
    (Invalid_argument "Topology.make: edge count must be n-1") (fun () ->
      ignore
        (Topology.make ~positions:[| p 0.0 0.0; p 1.0 0.0 |] ~nterminals:2 ~edges:[]
           ~root:0));
  Alcotest.check_raises "root not terminal"
    (Invalid_argument "Topology.make: root must be a terminal") (fun () ->
      ignore
        (Topology.make
           ~positions:[| p 0.0 0.0; p 1.0 0.0; p 2.0 0.0 |]
           ~nterminals:2
           ~edges:[ (0, 1); (1, 2) ]
           ~root:2))

let test_topology_segments () =
  let t = three_pin () in
  Alcotest.(check int) "one segment per edge" 3 (Array.length (Topology.segments t))

let test_topology_bends () =
  (* straight chain has no bends; an L has one *)
  let straight =
    Topology.make
      ~positions:[| p 0.0 0.0; p 2.0 0.0; p 1.0 0.0 |]
      ~nterminals:2 ~edges:[ (0, 2); (2, 1) ] ~root:0
  in
  Alcotest.(check int) "straight" 0 (Topology.bends straight);
  let bent =
    Topology.make
      ~positions:[| p 0.0 0.0; p 1.0 1.0; p 1.0 0.0 |]
      ~nterminals:2 ~edges:[ (0, 2); (2, 1) ] ~root:0
  in
  Alcotest.(check int) "L shape" 1 (Topology.bends bent)

(* --- hanan --- *)

let test_hanan_points () =
  let pts = [| p 0.0 0.0; p 1.0 1.0 |] in
  let hanan = Bi1s.hanan_points pts in
  Alcotest.(check int) "two off-diagonal" 2 (Array.length hanan);
  Array.iter
    (fun h ->
      Alcotest.(check bool) "is grid point" true
        (Point.equal h (p 0.0 1.0) || Point.equal h (p 1.0 0.0)))
    hanan

let test_hanan_excludes_inputs () =
  let pts = [| p 0.0 0.0; p 1.0 0.0; p 0.0 1.0 |] in
  let hanan = Bi1s.hanan_points pts in
  Array.iter
    (fun h ->
      Array.iter
        (fun q -> Alcotest.(check bool) "not an input" false (Point.equal h q))
        pts)
    hanan

(* --- BI1S --- *)

let test_bi1s_cross_instance () =
  (* Four corners of a unit square: the rectilinear Steiner tree saves
     length over the rectilinear MST (3.0 -> but with Hanan points the
     cross shape achieves 3.0 too; use the classic plus shape). *)
  let pts = [| p 0.0 1.0; p 2.0 1.0; p 1.0 0.0; p 1.0 2.0 |] in
  let tree = Bi1s.build Topology.L2 pts ~root:0 in
  let mst = Bi1s.mst_tree Topology.L2 pts ~root:0 in
  Alcotest.(check bool) "steiner no worse" true
    (Topology.length Topology.L2 tree <= Topology.length Topology.L2 mst +. 1e-9);
  (* optimal Euclidean length for the plus is 4; MST costs 3*sqrt2+... *)
  Alcotest.(check bool) "near optimal" true (Topology.length Topology.L2 tree <= 4.3)

let test_bi1s_two_pins () =
  let pts = [| p 0.0 0.0; p 3.0 4.0 |] in
  let t = Bi1s.build Topology.L2 pts ~root:0 in
  check_float "direct chord" 5.0 (Topology.length Topology.L2 t)

let test_bi1s_single_pin () =
  let t = Bi1s.build Topology.L2 [| p 1.0 1.0 |] ~root:0 in
  Alcotest.(check int) "one node" 1 (Topology.node_count t)

let test_bi1s_terminals_preserved () =
  let pts = [| p 0.0 0.0; p 2.0 0.0; p 0.0 2.0; p 2.0 2.0; p 1.0 3.0 |] in
  let t = Bi1s.build Topology.L1 pts ~root:0 in
  Alcotest.(check int) "terminal count" 5 (Topology.terminal_count t);
  for i = 0 to 4 do
    Alcotest.(check bool) (Printf.sprintf "terminal %d position" i) true
      (Point.equal (Topology.position t i) pts.(i))
  done

let test_bi1s_no_low_degree_steiner () =
  let pts = [| p 0.0 1.0; p 2.0 1.0; p 1.0 0.0; p 1.0 2.0; p 3.0 3.0 |] in
  let t = Bi1s.build Topology.L1 pts ~root:0 in
  for v = Topology.terminal_count t to Topology.node_count t - 1 do
    Alcotest.(check bool) "steiner degree >= 3" true (Topology.degree t v >= 3)
  done

(* --- subdivision --- *)

let test_subdivide () =
  let pts = [| p 0.0 0.0; p 4.0 0.0 |] in
  let t = Bi1s.build Topology.L2 pts ~root:0 in
  let s = Bi1s.subdivide t ~max_len:1.0 in
  Alcotest.(check int) "terminals kept" 2 (Topology.terminal_count s);
  Alcotest.(check int) "4 pieces -> 3 interior nodes" 5 (Topology.node_count s);
  check_float "length preserved" 4.0 (Topology.length Topology.L2 s);
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "piece short enough" true
        (Topology.edge_length Topology.L2 s v <= 1.0 +. 1e-9))
    (Topology.edges s)

let test_subdivide_noop () =
  let pts = [| p 0.0 0.0; p 0.5 0.0 |] in
  let t = Bi1s.build Topology.L2 pts ~root:0 in
  let s = Bi1s.subdivide t ~max_len:1.0 in
  Alcotest.(check int) "unchanged" (Topology.node_count t) (Topology.node_count s)

(* --- baselines --- *)

let test_baselines_diverse () =
  let pts = [| p 0.0 0.0; p 2.0 0.0; p 0.0 2.0; p 2.0 2.0 |] in
  let bs, _ = Bi1s.baselines pts ~root:0 in
  Alcotest.(check bool) "at least two shapes" true (List.length bs >= 2);
  List.iter
    (fun t ->
      Alcotest.(check int) "terminals" 4 (Topology.terminal_count t);
      Alcotest.(check int) "root" 0 (Topology.root t))
    bs

(* --- rsmt --- *)

let test_rsmt_bracketing () =
  let pts = [| p 0.0 0.0; p 3.0 1.0; p 1.0 4.0; p 4.0 4.0 |] in
  let hp = Rsmt.hpwl pts in
  let wl = Rsmt.wirelength pts in
  let rm = Rsmt.rmst_length pts in
  Alcotest.(check bool) "hpwl <= rsmt" true (hp <= wl +. 1e-9);
  Alcotest.(check bool) "rsmt <= rmst" true (wl <= rm +. 1e-9)

let test_rsmt_two_pin_exact () =
  let pts = [| p 0.0 0.0; p 2.0 3.0 |] in
  check_float "L1 distance" 5.0 (Rsmt.wirelength pts);
  check_float "hpwl equals" 5.0 (Rsmt.hpwl pts)

let test_rsmt_degenerate () =
  check_float "single pin" 0.0 (Rsmt.wirelength [| p 1.0 1.0 |])

(* --- properties --- *)

let arb_points =
  QCheck.make
    ~print:(fun pts ->
      String.concat ";" (Array.to_list (Array.map (Format.asprintf "%a" Point.pp) pts)))
    QCheck.Gen.(
      array_size (int_range 2 8)
        (map2 (fun x y -> p (Float.round (x *. 10.0) /. 10.0) (Float.round (y *. 10.0) /. 10.0))
           (float_bound_exclusive 5.0) (float_bound_exclusive 5.0)))

let prop_bi1s_beats_mst =
  QCheck.Test.make ~name:"bi1s never longer than MST" ~count:100 arb_points
    (fun pts ->
      let tree = Bi1s.build Topology.L2 pts ~root:0 in
      let mst = Bi1s.mst_tree Topology.L2 pts ~root:0 in
      Topology.length Topology.L2 tree <= Topology.length Topology.L2 mst +. 1e-6)

let prop_rsmt_bracketing =
  QCheck.Test.make ~name:"hpwl <= rsmt <= rmst" ~count:100 arb_points
    (fun pts ->
      let hp = Rsmt.hpwl pts in
      let wl = Rsmt.wirelength pts in
      let rm = Rsmt.rmst_length pts in
      hp <= wl +. 1e-6 && wl <= rm +. 1e-6)

let prop_subdivide_preserves_length =
  QCheck.Test.make ~name:"subdivision preserves length" ~count:100 arb_points
    (fun pts ->
      let t = Bi1s.build Topology.L2 pts ~root:0 in
      let s = Bi1s.subdivide t ~max_len:0.7 in
      Float.abs (Topology.length Topology.L2 t -. Topology.length Topology.L2 s) < 1e-6)

let prop_postorder_child_first =
  QCheck.Test.make ~name:"postorder is child-first" ~count:100 arb_points
    (fun pts ->
      let t = Bi1s.build Topology.L2 pts ~root:0 in
      let position = Hashtbl.create 8 in
      List.iteri (fun i v -> Hashtbl.add position v i) (Topology.postorder t);
      List.for_all
        (fun (parent, child) -> Hashtbl.find position child < Hashtbl.find position parent)
        (Topology.edges t))

let () =
  Alcotest.run "steiner"
    [ ( "topology",
        [ Alcotest.test_case "structure" `Quick test_topology_structure;
          Alcotest.test_case "postorder" `Quick test_topology_postorder;
          Alcotest.test_case "lengths" `Quick test_topology_lengths;
          Alcotest.test_case "subtree terminals" `Quick test_topology_subtree_terminals;
          Alcotest.test_case "invalid" `Quick test_topology_invalid;
          Alcotest.test_case "segments" `Quick test_topology_segments;
          Alcotest.test_case "bends" `Quick test_topology_bends;
          QCheck_alcotest.to_alcotest prop_postorder_child_first ] );
      ( "bi1s",
        [ Alcotest.test_case "hanan points" `Quick test_hanan_points;
          Alcotest.test_case "hanan excludes inputs" `Quick test_hanan_excludes_inputs;
          Alcotest.test_case "cross instance" `Quick test_bi1s_cross_instance;
          Alcotest.test_case "two pins" `Quick test_bi1s_two_pins;
          Alcotest.test_case "single pin" `Quick test_bi1s_single_pin;
          Alcotest.test_case "terminals preserved" `Quick test_bi1s_terminals_preserved;
          Alcotest.test_case "steiner degrees" `Quick test_bi1s_no_low_degree_steiner;
          Alcotest.test_case "subdivide" `Quick test_subdivide;
          Alcotest.test_case "subdivide noop" `Quick test_subdivide_noop;
          Alcotest.test_case "baselines diverse" `Quick test_baselines_diverse;
          QCheck_alcotest.to_alcotest prop_bi1s_beats_mst;
          QCheck_alcotest.to_alcotest prop_subdivide_preserves_length ] );
      ( "rsmt",
        [ Alcotest.test_case "bracketing" `Quick test_rsmt_bracketing;
          Alcotest.test_case "two pin exact" `Quick test_rsmt_two_pin_exact;
          Alcotest.test_case "degenerate" `Quick test_rsmt_degenerate;
          QCheck_alcotest.to_alcotest prop_rsmt_bracketing ] ) ]
