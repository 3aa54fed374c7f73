(* Tests for the graph substrate: union-find, heap ordering and MST
   algorithms agreeing with each other. *)

open Operon_graph

let check_float = Alcotest.(check (float 1e-9))

(* --- dsu --- *)

let test_dsu_basic () =
  let d = Dsu.create 5 in
  Alcotest.(check int) "initial sets" 5 (Dsu.count d);
  Alcotest.(check bool) "union" true (Dsu.union d 0 1);
  Alcotest.(check bool) "redundant union" false (Dsu.union d 0 1);
  Alcotest.(check bool) "same" true (Dsu.same d 0 1);
  Alcotest.(check bool) "not same" false (Dsu.same d 0 2);
  Alcotest.(check int) "sets after" 4 (Dsu.count d);
  Alcotest.(check int) "size" 2 (Dsu.size d 1)

let test_dsu_transitive () =
  let d = Dsu.create 6 in
  ignore (Dsu.union d 0 1);
  ignore (Dsu.union d 2 3);
  ignore (Dsu.union d 1 2);
  Alcotest.(check bool) "transitive" true (Dsu.same d 0 3);
  Alcotest.(check int) "size 4" 4 (Dsu.size d 0)

(* --- heap --- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  Alcotest.(check int) "length" 5 (Heap.length h);
  let order = List.init 5 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] order;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_peek_and_clear () =
  let h = Heap.create () in
  Heap.push h 2.0 "b";
  Heap.push h 1.0 "a";
  (match Heap.peek h with
   | Some (k, v) ->
       check_float "peek key" 1.0 k;
       Alcotest.(check string) "peek value" "a" v
   | None -> Alcotest.fail "expected peek");
  Alcotest.(check int) "peek does not pop" 2 (Heap.length h);
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let test_heap_grows () =
  let h = Heap.create () in
  for i = 100 downto 1 do
    Heap.push h (float_of_int i) i
  done;
  (match Heap.pop h with
   | Some (_, v) -> Alcotest.(check int) "min of 100" 1 v
   | None -> Alcotest.fail "expected pop")

(* --- mst --- *)

let square_graph () =
  let g = Wgraph.create 4 in
  Wgraph.add_edge g 0 1 1.0;
  Wgraph.add_edge g 1 2 2.0;
  Wgraph.add_edge g 2 3 1.0;
  Wgraph.add_edge g 3 0 2.5;
  Wgraph.add_edge g 0 2 4.0;
  g

let test_mst_kruskal () =
  let mst = Mst.kruskal (square_graph ()) in
  check_float "weight" 4.0 (Mst.weight mst);
  Alcotest.(check int) "edges" 3 (List.length mst)

let test_mst_prim () =
  let mst = Mst.prim (square_graph ()) in
  check_float "weight" 4.0 (Mst.weight mst);
  Alcotest.(check int) "edges" 3 (List.length mst)

let test_mst_disconnected () =
  let g = Wgraph.create 4 in
  Wgraph.add_edge g 0 1 1.0;
  Wgraph.add_edge g 2 3 2.0;
  Alcotest.(check int) "forest kruskal" 2 (List.length (Mst.kruskal g));
  Alcotest.(check int) "forest prim" 2 (List.length (Mst.prim g))

let test_prim_dense_matches () =
  (* Euclidean points: dense Prim must agree with Kruskal on the complete
     graph. *)
  let pts = [| (0.0, 0.0); (1.0, 0.2); (2.0, 1.0); (0.5, 2.0); (3.0, 0.0) |] in
  let d i j =
    let xi, yi = pts.(i) and xj, yj = pts.(j) in
    sqrt (((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0))
  in
  let dense = Mst.prim_dense (Array.length pts) d in
  let dense_weight = List.fold_left (fun acc (u, v) -> acc +. d u v) 0.0 dense in
  let g = Wgraph.complete_of_weights (Array.length pts) d in
  let kruskal_weight = Mst.weight (Mst.kruskal g) in
  check_float "same MST weight" kruskal_weight dense_weight

let test_prim_dense_trivial () =
  Alcotest.(check (list (pair int int))) "n=0" [] (Mst.prim_dense 0 (fun _ _ -> 0.0));
  Alcotest.(check (list (pair int int))) "n=1" [] (Mst.prim_dense 1 (fun _ _ -> 0.0))

(* --- properties --- *)

let random_graph_gen =
  QCheck.Gen.(
    int_range 2 12 >>= fun n ->
    list_size (int_range 1 30)
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_bound_exclusive 10.0))
    >|= fun edges -> (n, edges))

let arb_graph =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";"
           (List.map (fun (u, v, w) -> Printf.sprintf "(%d,%d,%.2f)" u v w) edges)))
    random_graph_gen

let build (n, edges) =
  let g = Wgraph.create n in
  List.iter (fun (u, v, w) -> if u <> v then Wgraph.add_edge g u v w) edges;
  g

let prop_mst_algorithms_agree =
  QCheck.Test.make ~name:"kruskal and prim agree on weight" ~count:300 arb_graph
    (fun spec ->
      let g = build spec in
      Float.abs (Mst.weight (Mst.kruskal g) -. Mst.weight (Mst.prim g)) < 1e-6)

let prop_mst_spanning =
  QCheck.Test.make ~name:"mst spans each component" ~count:300 arb_graph
    (fun spec ->
      let g = build spec in
      let n = Wgraph.vertex_count g in
      let dsu_all = Dsu.create n in
      List.iter (fun { Wgraph.u; v; _ } -> ignore (Dsu.union dsu_all u v)) (Wgraph.edges g);
      let dsu_mst = Dsu.create n in
      List.iter (fun { Wgraph.u; v; _ } -> ignore (Dsu.union dsu_mst u v)) (Mst.kruskal g);
      Dsu.count dsu_all = Dsu.count dsu_mst)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in order" ~count:300
    QCheck.(list (float_bound_exclusive 100.0))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h k k) keys;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some (k, _) -> k >= prev && drain k
      in
      drain neg_infinity)

let () =
  Alcotest.run "graph"
    [ ( "dsu",
        [ Alcotest.test_case "basic" `Quick test_dsu_basic;
          Alcotest.test_case "transitive" `Quick test_dsu_transitive ] );
      ( "heap",
        [ Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek/clear" `Quick test_heap_peek_and_clear;
          Alcotest.test_case "grows" `Quick test_heap_grows;
          QCheck_alcotest.to_alcotest prop_heap_sorts ] );
      ( "mst",
        [ Alcotest.test_case "kruskal" `Quick test_mst_kruskal;
          Alcotest.test_case "prim" `Quick test_mst_prim;
          Alcotest.test_case "disconnected" `Quick test_mst_disconnected;
          Alcotest.test_case "dense matches" `Quick test_prim_dense_matches;
          Alcotest.test_case "dense trivial" `Quick test_prim_dense_trivial;
          QCheck_alcotest.to_alcotest prop_mst_algorithms_agree;
          QCheck_alcotest.to_alcotest prop_mst_spanning ] ) ]
