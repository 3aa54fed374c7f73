(* Tests for the flow-network substrate (Dinic max-flow and min-cost
   max-flow), including the bipartite transportation shape used by the WDM
   assignment and a brute-force cross-check on small instances. *)

open Operon_flow

let check_float = Alcotest.(check (float 1e-6))

(* --- max flow --- *)

let test_maxflow_simple_path () =
  let g = Maxflow.create 3 in
  ignore (Maxflow.add_edge g ~src:0 ~dst:1 ~cap:5);
  ignore (Maxflow.add_edge g ~src:1 ~dst:2 ~cap:3);
  Alcotest.(check int) "bottleneck" 3 (Maxflow.max_flow g ~source:0 ~sink:2)

let test_maxflow_parallel_paths () =
  let g = Maxflow.create 4 in
  ignore (Maxflow.add_edge g ~src:0 ~dst:1 ~cap:2);
  ignore (Maxflow.add_edge g ~src:0 ~dst:2 ~cap:3);
  ignore (Maxflow.add_edge g ~src:1 ~dst:3 ~cap:4);
  ignore (Maxflow.add_edge g ~src:2 ~dst:3 ~cap:1);
  Alcotest.(check int) "sum of cuts" 3 (Maxflow.max_flow g ~source:0 ~sink:3)

let test_maxflow_classic () =
  (* CLRS-style example with a known max flow of 23. *)
  let g = Maxflow.create 6 in
  ignore (Maxflow.add_edge g ~src:0 ~dst:1 ~cap:16);
  ignore (Maxflow.add_edge g ~src:0 ~dst:2 ~cap:13);
  ignore (Maxflow.add_edge g ~src:1 ~dst:2 ~cap:10);
  ignore (Maxflow.add_edge g ~src:2 ~dst:1 ~cap:4);
  ignore (Maxflow.add_edge g ~src:1 ~dst:3 ~cap:12);
  ignore (Maxflow.add_edge g ~src:3 ~dst:2 ~cap:9);
  ignore (Maxflow.add_edge g ~src:2 ~dst:4 ~cap:14);
  ignore (Maxflow.add_edge g ~src:4 ~dst:3 ~cap:7);
  ignore (Maxflow.add_edge g ~src:3 ~dst:5 ~cap:20);
  ignore (Maxflow.add_edge g ~src:4 ~dst:5 ~cap:4);
  Alcotest.(check int) "CLRS 23" 23 (Maxflow.max_flow g ~source:0 ~sink:5)

let test_maxflow_disconnected () =
  let g = Maxflow.create 4 in
  ignore (Maxflow.add_edge g ~src:0 ~dst:1 ~cap:5);
  ignore (Maxflow.add_edge g ~src:2 ~dst:3 ~cap:5);
  Alcotest.(check int) "no path" 0 (Maxflow.max_flow g ~source:0 ~sink:3)

let test_maxflow_flow_on () =
  let g = Maxflow.create 3 in
  let a = Maxflow.add_edge g ~src:0 ~dst:1 ~cap:5 in
  let b = Maxflow.add_edge g ~src:1 ~dst:2 ~cap:3 in
  ignore (Maxflow.max_flow g ~source:0 ~sink:2);
  Alcotest.(check int) "flow a" 3 (Maxflow.flow_on g a);
  Alcotest.(check int) "flow b" 3 (Maxflow.flow_on g b)

(* After a max flow the residual-reachable vertices are the source side
   of a minimum cut: here the saturated 1 -> 3 arc separates {0, 1, 2}
   from {3}, and vertex 4, with no arc in, is never reached. *)
let test_maxflow_reachable () =
  let g = Maxflow.create 5 in
  ignore (Maxflow.add_edge g ~src:0 ~dst:1 ~cap:5);
  ignore (Maxflow.add_edge g ~src:0 ~dst:2 ~cap:5);
  ignore (Maxflow.add_edge g ~src:2 ~dst:1 ~cap:5);
  ignore (Maxflow.add_edge g ~src:1 ~dst:3 ~cap:2);
  ignore (Maxflow.add_edge g ~src:4 ~dst:3 ~cap:9);
  Alcotest.(check int) "cut" 2 (Maxflow.max_flow g ~source:0 ~sink:3);
  Alcotest.(check (array bool)) "source side"
    [| true; true; true; false; false |]
    (Maxflow.reachable g ~source:0);
  Alcotest.check_raises "bad vertex"
    (Invalid_argument "Maxflow.reachable: vertex out of range") (fun () ->
      ignore (Maxflow.reachable g ~source:5))

let test_maxflow_invalid () =
  let g = Maxflow.create 2 in
  Alcotest.check_raises "bad vertex"
    (Invalid_argument "Maxflow.add_edge: vertex out of range") (fun () ->
      ignore (Maxflow.add_edge g ~src:0 ~dst:7 ~cap:1));
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Maxflow.add_edge: negative capacity") (fun () ->
      ignore (Maxflow.add_edge g ~src:0 ~dst:1 ~cap:(-1)))

(* --- min-cost max-flow --- *)

(* The classic single-source solve: one supply that never runs out. *)
let solve_from g source ~sink = Mcmf.solve g ~supplies:[| (source, max_int) |] ~sink

let test_mcmf_prefers_cheap_path () =
  let g = Mcmf.create 4 in
  ignore (Mcmf.add_edge g ~src:0 ~dst:1 ~cap:1 ~cost:1.0);
  ignore (Mcmf.add_edge g ~src:0 ~dst:2 ~cap:1 ~cost:10.0);
  ignore (Mcmf.add_edge g ~src:1 ~dst:3 ~cap:1 ~cost:1.0);
  ignore (Mcmf.add_edge g ~src:2 ~dst:3 ~cap:1 ~cost:1.0);
  let { Mcmf.flow; cost; _ } = solve_from g 0 ~sink:3 in
  Alcotest.(check int) "max flow 2" 2 flow;
  check_float "cost" 13.0 cost

let test_mcmf_rejects_negative_costs () =
  let g = Mcmf.create 3 in
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Mcmf.add_edge: negative cost") (fun () ->
      ignore (Mcmf.add_edge g ~src:0 ~dst:1 ~cap:2 ~cost:(-3.0)));
  Alcotest.check_raises "NaN cost"
    (Invalid_argument "Mcmf.add_edge: negative cost") (fun () ->
      ignore (Mcmf.add_edge g ~src:0 ~dst:1 ~cap:2 ~cost:Float.nan));
  (* A rejected arc leaves the network untouched. *)
  ignore (Mcmf.add_edge g ~src:0 ~dst:1 ~cap:2 ~cost:0.0);
  ignore (Mcmf.add_edge g ~src:1 ~dst:2 ~cap:2 ~cost:1.0);
  let { Mcmf.flow; cost; _ } = solve_from g 0 ~sink:2 in
  Alcotest.(check int) "flow" 2 flow;
  check_float "cost" 2.0 cost

let test_mcmf_flow_on () =
  let g = Mcmf.create 3 in
  let a = Mcmf.add_edge g ~src:0 ~dst:1 ~cap:4 ~cost:1.0 in
  ignore (Mcmf.add_edge g ~src:1 ~dst:2 ~cap:3 ~cost:1.0);
  ignore (solve_from g 0 ~sink:2);
  Alcotest.(check int) "readback" 3 (Mcmf.flow_on g a)

(* Transportation instance: 3 connections (20 bits each) onto 3 WDMs of
   capacity 32 — the Fig. 6 example; two WDMs suffice only if bits split,
   which min-cost flow does channel-wise. *)
let test_mcmf_wdm_shape () =
  let nc = 3 and nw = 2 in
  let g = Mcmf.create (nc + nw + 2) in
  let source = 0 and sink = nc + nw + 1 in
  for c = 0 to nc - 1 do
    ignore (Mcmf.add_edge g ~src:source ~dst:(1 + c) ~cap:20 ~cost:0.0);
    for w = 0 to nw - 1 do
      ignore
        (Mcmf.add_edge g ~src:(1 + c) ~dst:(1 + nc + w) ~cap:20
           ~cost:(float_of_int (abs (c - w))))
    done
  done;
  for w = 0 to nw - 1 do
    ignore (Mcmf.add_edge g ~src:(1 + nc + w) ~dst:sink ~cap:32 ~cost:0.1)
  done;
  let { Mcmf.flow; _ } = solve_from g source ~sink in
  Alcotest.(check int) "60 bits fit in 2x32" 60 flow

(* Brute force assignment check: 2 items x 2 bins, unit flows. *)
let test_mcmf_matches_brute_force () =
  let costs = [| [| 4.0; 1.0 |]; [| 2.0; 3.0 |] |] in
  let g = Mcmf.create 6 in
  let source = 0 and sink = 5 in
  ignore (Mcmf.add_edge g ~src:source ~dst:1 ~cap:1 ~cost:0.0);
  ignore (Mcmf.add_edge g ~src:source ~dst:2 ~cap:1 ~cost:0.0);
  for item = 0 to 1 do
    for bin = 0 to 1 do
      ignore (Mcmf.add_edge g ~src:(1 + item) ~dst:(3 + bin) ~cap:1 ~cost:costs.(item).(bin))
    done
  done;
  ignore (Mcmf.add_edge g ~src:3 ~dst:sink ~cap:1 ~cost:0.0);
  ignore (Mcmf.add_edge g ~src:4 ~dst:sink ~cap:1 ~cost:0.0);
  let { Mcmf.flow; cost; _ } = solve_from g source ~sink in
  Alcotest.(check int) "perfect matching" 2 flow;
  (* optimal: item0->bin1 (1.0) + item1->bin0 (2.0) *)
  check_float "optimal assignment" 3.0 cost

(* Property: mcmf flow value equals Dinic max flow on the same network. *)
let prop_mcmf_flow_equals_maxflow =
  let gen =
    QCheck.Gen.(
      int_range 3 8 >>= fun n ->
      list_size (int_range 2 20)
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 10))
      >|= fun edges -> (n, edges))
  in
  QCheck.Test.make ~name:"mcmf max flow equals dinic" ~count:200
    (QCheck.make
       ~print:(fun (n, e) -> Printf.sprintf "n=%d #e=%d" n (List.length e))
       gen)
    (fun (n, edges) ->
      let mf = Maxflow.create n in
      let mc = Mcmf.create n in
      List.iter
        (fun (u, v, c) ->
          if u <> v then begin
            ignore (Maxflow.add_edge mf ~src:u ~dst:v ~cap:c);
            ignore (Mcmf.add_edge mc ~src:u ~dst:v ~cap:c ~cost:(float_of_int ((u + v) mod 3)))
          end)
        edges;
      let f1 = Maxflow.max_flow mf ~source:0 ~sink:(n - 1) in
      f1 = (solve_from mc 0 ~sink:(n - 1)).Mcmf.flow)

(* Property: the min-cost flow is optimal. A maximum flow has minimum
   cost exactly when its residual graph holds no negative-cost cycle, so
   Bellman-Ford from a virtual root (every distance starting at 0) must
   stop improving within n rounds. Half the instances hang most vertices
   behind expensive arcs off a cheap source-sink route, so each early
   Dijkstra settles the sink while most vertices are unsettled or not
   even discovered: exactly where a wrong early-exit potential rule
   leaves negative reduced costs behind. *)
let residual_has_negative_cycle n arcs =
  let dist = Array.make n 0.0 in
  let relax () =
    List.fold_left
      (fun changed (u, v, cost) ->
        if dist.(u) +. cost < dist.(v) -. 1e-9 then begin
          dist.(v) <- dist.(u) +. cost;
          true
        end
        else changed)
      false arcs
  in
  let rec rounds k = if k = 0 then relax () else relax () && rounds (k - 1) in
  rounds n

(* Supplies for a random instance: the single never-ending source, or a
   few vertices (repeats allowed) each offering a few units, so some run
   dry and some lose the sink first. *)
let gen_supplies n =
  QCheck.Gen.(
    oneof
      [ return [ (0, max_int) ];
        list_size (int_range 1 4) (pair (int_range 0 (n - 2)) (int_range 0 12)) ])

let prop_mcmf_optimality_certificate =
  let uniform =
    QCheck.Gen.(
      int_range 3 10 >>= fun n ->
      list_size (int_range 2 30)
        (quad (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 10)
           (float_range 0.0 10.0))
      >|= fun edges -> (n, edges))
  in
  let early_sink =
    QCheck.Gen.(
      int_range 6 14 >>= fun n ->
      int_range 1 4 >>= fun cheap ->
      list_size (int_range 4 40)
        (quad (int_range 1 (n - 1)) (int_range 1 (n - 1)) (int_range 1 10)
           (float_range 0.0 3.0))
      >>= fun inner ->
      list_size (int_range 1 6)
        (pair (int_range 2 (n - 2)) (float_range 20.0 60.0))
      >|= fun fans ->
      let sink = n - 1 in
      let route = [ (0, 1, cheap, 0.0); (1, sink, cheap, 0.5) ] in
      let fan = List.map (fun (v, c) -> (0, v, 10, c)) fans in
      (n, route @ fan @ inner))
  in
  QCheck.Test.make ~name:"mcmf residual graph has no negative cycle" ~count:500
    (QCheck.make
       ~print:(fun ((n, e), supplies) ->
         Printf.sprintf "n=%d edges=[%s] supplies=[%s]" n
           (String.concat "; "
              (List.map
                 (fun (u, v, c, w) -> Printf.sprintf "%d->%d cap %d cost %g" u v c w)
                 e))
           (String.concat "; "
              (List.map (fun (v, u) -> Printf.sprintf "%d:%d" v u) supplies)))
       QCheck.Gen.(
         oneof [ uniform; early_sink ] >>= fun (n, e) ->
         gen_supplies n >|= fun supplies -> ((n, e), supplies)))
    (fun ((n, edges), supplies) ->
      let edges = List.filter (fun (u, v, _, _) -> u <> v) edges in
      (* Dinic's reference gets a super source [n] with one arc per
         supply, capped at its units. *)
      let mf = Maxflow.create (n + 1) and mc = Mcmf.create n in
      List.iter
        (fun (v, units) ->
          ignore (Maxflow.add_edge mf ~src:n ~dst:v ~cap:(min units 1_000_000)))
        supplies;
      let handles =
        List.map
          (fun (u, v, c, w) ->
            ignore (Maxflow.add_edge mf ~src:u ~dst:v ~cap:c);
            (Mcmf.add_edge mc ~src:u ~dst:v ~cap:c ~cost:w, (u, v, c, w)))
          edges
      in
      let { Mcmf.flow; cost; _ } =
        Mcmf.solve mc ~supplies:(Array.of_list supplies) ~sink:(n - 1)
      in
      let residual =
        List.concat_map
          (fun (h, (u, v, c, w)) ->
            let f = Mcmf.flow_on mc h in
            (if f < c then [ (u, v, w) ] else [])
            @ if f > 0 then [ (v, u, -.w) ] else [])
          handles
      in
      let recomputed =
        List.fold_left
          (fun acc (h, (_, _, _, w)) -> acc +. (w *. float_of_int (Mcmf.flow_on mc h)))
          0.0 handles
      in
      flow = Maxflow.max_flow mf ~source:n ~sink:(n - 1)
      && Float.abs (cost -. recomputed) <= 1e-9 *. Float.max 1.0 (Float.abs cost)
      && not (residual_has_negative_cycle n residual))

(* A WDM-shaped transportation network: [bits] per connection, [caps] per
   track, eligible (connection, track, cost) arcs and a usage cost per
   track. Costs come from a few repeated values, so equal-cost optima
   abound. Built either with one super source ([`Super]) or with each
   connection supplying its own bits ([`Each]), the way [Assign] does. *)
let transport_solve (bits, caps, arcs, usage) how =
  let k = Array.length bits and m = Array.length caps in
  let sink = k + m in
  let g = Mcmf.create (k + m + 2) in
  let source = k + m + 1 in
  List.iter
    (fun (c, w, cost) ->
      ignore (Mcmf.add_edge g ~src:c ~dst:(k + w) ~cap:bits.(c) ~cost))
    arcs;
  Array.iteri
    (fun w cap -> ignore (Mcmf.add_edge g ~src:(k + w) ~dst:sink ~cap ~cost:usage.(w)))
    caps;
  match how with
  | `Each -> Mcmf.solve g ~supplies:(Array.mapi (fun c b -> (c, b)) bits) ~sink
  | `Super ->
      Array.iteri
        (fun c b -> ignore (Mcmf.add_edge g ~src:source ~dst:c ~cap:b ~cost:0.0))
        bits;
      Mcmf.solve g ~supplies:[| (source, max_int) |] ~sink

let prop_supplies_match_super_source =
  let gen =
    QCheck.Gen.(
      int_range 1 10 >>= fun k ->
      int_range 1 8 >>= fun m ->
      array_repeat k (oneofl [ 1; 4; 8; 16; 32 ]) >>= fun bits ->
      array_repeat m (oneofl [ 8; 16; 32 ]) >>= fun caps ->
      array_repeat m (oneofl [ 0.001; 0.002; 0.003 ]) >>= fun usage ->
      list_size (int_range k (3 * k * m))
        (triple (int_range 0 (k - 1)) (int_range 0 (m - 1))
           (oneofl [ 0.0; 0.02; 0.05; 0.05; 0.08 ]))
      >|= fun arcs -> (bits, caps, arcs, usage))
  in
  QCheck.Test.make ~name:"per-connection supplies = one super source" ~count:500
    (QCheck.make
       ~print:(fun (bits, caps, arcs, _) ->
         Printf.sprintf "bits=[%s] caps=[%s] arcs=[%s]"
           (String.concat ";" (Array.to_list (Array.map string_of_int bits)))
           (String.concat ";" (Array.to_list (Array.map string_of_int caps)))
           (String.concat "; "
              (List.map (fun (c, w, x) -> Printf.sprintf "%d->%d %g" c w x) arcs)))
       gen)
    (fun ((bits, _, _, _) as inst) ->
      let each = transport_solve inst `Each and super = transport_solve inst `Super in
      let demand = Array.fold_left ( + ) 0 bits in
      if each.Mcmf.flow <> super.Mcmf.flow then
        QCheck.Test.fail_reportf "flow %d vs %d" each.Mcmf.flow super.Mcmf.flow;
      (* Min cost over the same supplies: when every bit is routed, the
         two solves answer the same problem. *)
      if
        each.Mcmf.flow = demand
        && Float.abs (each.Mcmf.cost -. super.Mcmf.cost)
           > 1e-9 *. Float.max 1.0 (Float.abs super.Mcmf.cost)
      then
        QCheck.Test.fail_reportf "cost %.17g vs %.17g" each.Mcmf.cost super.Mcmf.cost;
      true)

(* A search is one Dijkstra: two augmenting paths, then one that finds
   the sink gone; a supply of exactly two units needs no third. *)
let test_mcmf_searches () =
  let build () =
    let g = Mcmf.create 4 in
    ignore (Mcmf.add_edge g ~src:0 ~dst:1 ~cap:1 ~cost:1.0);
    ignore (Mcmf.add_edge g ~src:0 ~dst:2 ~cap:1 ~cost:10.0);
    ignore (Mcmf.add_edge g ~src:1 ~dst:3 ~cap:1 ~cost:1.0);
    ignore (Mcmf.add_edge g ~src:2 ~dst:3 ~cap:1 ~cost:1.0);
    g
  in
  Alcotest.(check int) "until the sink is gone" 3
    (solve_from (build ()) 0 ~sink:3).Mcmf.searches;
  let s = Mcmf.solve (build ()) ~supplies:[| (0, 2) |] ~sink:3 in
  Alcotest.(check (pair int int)) "until the supply is spent" (2, 2)
    (s.Mcmf.flow, s.Mcmf.searches);
  let s = Mcmf.solve (build ()) ~supplies:[| (1, 0); (0, 1); (2, 5) |] ~sink:3 in
  (* 0 -> 1 -> 3 for vertex 0's unit, then 2 -> 3 until vertex 2 loses
     the sink: no search for the empty supply. *)
  Alcotest.(check (triple int (float 1e-9) int)) "zero, one, then what is left"
    (2, 3.0, 3) (s.Mcmf.flow, s.Mcmf.cost, s.Mcmf.searches)

let test_mcmf_rejects_bad_supplies () =
  let g = Mcmf.create 3 in
  ignore (Mcmf.add_edge g ~src:0 ~dst:1 ~cap:2 ~cost:1.0);
  let raises name msg supplies sink =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Mcmf.solve g ~supplies ~sink))
  in
  raises "supply below range" "Mcmf.solve: supply vertex out of range" [| (-1, 1) |] 1;
  raises "supply above range" "Mcmf.solve: supply vertex out of range" [| (3, 1) |] 1;
  raises "supply at the sink" "Mcmf.solve: supply at the sink" [| (0, 1); (1, 1) |] 1;
  raises "negative units" "Mcmf.solve: negative supply" [| (0, -1) |] 1;
  raises "sink out of range" "Mcmf.solve: sink out of range" [| (0, 1) |] 3;
  (* Every supply is checked before any flow moves. *)
  Alcotest.(check int) "untouched" 0 (Mcmf.flow_on g 0);
  Alcotest.(check int) "then solvable" 2 (Mcmf.solve g ~supplies:[| (0, 5) |] ~sink:1).Mcmf.flow

let () =
  Alcotest.run "flownet"
    [ ( "maxflow",
        [ Alcotest.test_case "simple path" `Quick test_maxflow_simple_path;
          Alcotest.test_case "parallel paths" `Quick test_maxflow_parallel_paths;
          Alcotest.test_case "classic" `Quick test_maxflow_classic;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          Alcotest.test_case "flow readback" `Quick test_maxflow_flow_on;
          Alcotest.test_case "residual reachability" `Quick test_maxflow_reachable;
          Alcotest.test_case "invalid args" `Quick test_maxflow_invalid ] );
      ( "mcmf",
        [ Alcotest.test_case "cheap path first" `Quick test_mcmf_prefers_cheap_path;
          Alcotest.test_case "rejects negative costs" `Quick
            test_mcmf_rejects_negative_costs;
          Alcotest.test_case "flow readback" `Quick test_mcmf_flow_on;
          Alcotest.test_case "wdm transportation" `Quick test_mcmf_wdm_shape;
          Alcotest.test_case "matches brute force" `Quick test_mcmf_matches_brute_force;
          Alcotest.test_case "search count" `Quick test_mcmf_searches;
          Alcotest.test_case "rejects bad supplies" `Quick test_mcmf_rejects_bad_supplies;
          QCheck_alcotest.to_alcotest prop_mcmf_flow_equals_maxflow;
          QCheck_alcotest.to_alcotest prop_mcmf_optimality_certificate;
          QCheck_alcotest.to_alcotest prop_supplies_match_super_source ] ) ]
