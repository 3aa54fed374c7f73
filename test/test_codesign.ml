(* Tests for the co-design dynamic program: agreement with exhaustive
   enumeration on small nets (the DP pruning ablation), presence of the
   electrical fallback, loss feasibility of everything it emits, and the
   Fig. 5 candidate structure. *)

open Operon_geom
open Operon_optical
open Operon_steiner
open Operon

let p = Point.make

let params = Params.default

let hnet_of_centers ?(bits = 8) ?(id = 0) centers =
  let pins =
    Array.mapi
      (fun i c ->
        { Hypernet.center = c; pin_count = 1; source_count = (if i = 0 then 1 else 0) })
      centers
  in
  Hypernet.make ~id ~group:0 ~bits ~pins

(* Exhaustive reference: all 2^(n-1) labelings of a topology, keeping the
   loss-feasible ones (ignoring crossings, as the DP does with a zero
   estimate). *)
let exhaustive hnet topo =
  let n = Topology.node_count topo in
  let root = Topology.root topo in
  let non_root = List.filter (fun v -> v <> root) (List.init n Fun.id) in
  let k = List.length non_root in
  let best = ref infinity in
  for mask = 0 to (1 lsl k) - 1 do
    let labels = Array.make n Candidate.Electrical in
    List.iteri
      (fun bit v ->
        if mask land (1 lsl bit) <> 0 then labels.(v) <- Candidate.Optical)
      non_root;
    match Candidate.of_labels params hnet topo labels with
    | exception Invalid_argument _ -> ()
    | c ->
        if Candidate.loss_feasible params c && c.Candidate.power < !best then
          best := c.Candidate.power
  done;
  !best

let test_dp_matches_exhaustive_small () =
  (* several deterministic small instances *)
  List.iter
    (fun seed ->
      let rng = Operon_util.Prng.create seed in
      let n = 3 + Operon_util.Prng.int rng 3 in
      let centers =
        Array.init n (fun i ->
            if i = 0 then p 0.0 0.0
            else p (Operon_util.Prng.float rng 4.0) (Operon_util.Prng.float rng 4.0))
      in
      let hnet = hnet_of_centers ~bits:(1 + Operon_util.Prng.int rng 31) centers in
      let topo = Bi1s.build Topology.L2 centers ~root:0 in
      let cands = Codesign.enumerate params hnet topo in
      Alcotest.(check bool) "dp produced something" true (cands <> []);
      let dp_best = (List.hd cands).Candidate.power in
      let brute = exhaustive hnet topo in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: dp %.4f = brute %.4f" seed dp_best brute)
        true
        (Float.abs (dp_best -. brute) < 1e-6))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let test_dp_candidates_feasible () =
  List.iter
    (fun seed ->
      let rng = Operon_util.Prng.create seed in
      let centers =
        Array.init 5 (fun i ->
            if i = 0 then p 0.0 0.0
            else p (Operon_util.Prng.float rng 4.0) (Operon_util.Prng.float rng 4.0))
      in
      let hnet = hnet_of_centers centers in
      let topo = Bi1s.build Topology.L2 centers ~root:0 in
      List.iter
        (fun c ->
          Alcotest.(check bool) "intrinsically feasible" true
            (Candidate.loss_feasible params c))
        (Codesign.enumerate params hnet topo))
    [ 11; 12; 13 ]

let test_dp_sorted_by_power () =
  let centers = [| p 0.0 0.0; p 3.0 0.0; p 0.0 3.0; p 3.0 3.0 |] in
  let hnet = hnet_of_centers centers in
  let topo = Bi1s.build Topology.L2 centers ~root:0 in
  let cands = Codesign.enumerate params hnet topo in
  let rec sorted = function
    | (a : Candidate.t) :: (b :: _ as rest) ->
        a.Candidate.power <= b.Candidate.power +. 1e-9 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending power" true (sorted cands)

let test_dp_includes_electrical () =
  let centers = [| p 0.0 0.0; p 2.5 0.0 |] in
  let hnet = hnet_of_centers centers in
  let topo = Bi1s.build Topology.L2 centers ~root:0 in
  let cands = Codesign.enumerate params hnet topo in
  Alcotest.(check bool) "electrical labeling present" true
    (List.exists (fun c -> c.Candidate.pure_electrical) cands)

let test_dp_power_cross_check () =
  (* The power the DP's bookkeeping reached for a labelling is the power
     of the candidate materialized from it. *)
  let centers = [| p 0.0 0.0; p 2.0 1.0; p 1.0 3.0 |] in
  let hnet = hnet_of_centers centers in
  let topo = Bi1s.build Topology.L2 centers ~root:0 in
  List.iter
    (fun c ->
      let built = Candidate.of_labels params hnet c.Candidate.topo c.Candidate.labels in
      Alcotest.(check bool) "power consistent" true
        (Float.abs (built.Candidate.power -. c.Candidate.power) < 1e-9))
    (Codesign.enumerate params hnet topo)

let test_wide_bus_prefers_optical () =
  (* 32-bit bus over 3 cm: conversions (~0.9) beat 32 wires x 2.7 each. *)
  let centers = [| p 0.0 0.0; p 3.0 0.0 |] in
  let hnet = hnet_of_centers ~bits:32 centers in
  let topo = Bi1s.build Topology.L2 centers ~root:0 in
  let best = List.hd (Codesign.enumerate params hnet topo) in
  Alcotest.(check bool) "optical wins" false best.Candidate.pure_electrical

let test_short_thin_net_prefers_electrical () =
  (* 1-bit net over 0.2 cm: one wire at ~0.18 pJ beats 0.885 pJ devices. *)
  let centers = [| p 0.0 0.0; p 0.2 0.0 |] in
  let hnet = hnet_of_centers ~bits:1 centers in
  let topo = Bi1s.build Topology.L2 centers ~root:0 in
  let best = List.hd (Codesign.enumerate params hnet topo) in
  Alcotest.(check bool) "electrical wins" true best.Candidate.pure_electrical

let test_crossover_distance () =
  (* With site-amortized conversions the optical/electrical crossover for
     a 1-bit point-to-point net sits at conversion/unit ~ 0.98 cm. *)
  let unit = Params.electrical_unit_energy params in
  let crossover = (params.Params.p_mod +. params.Params.p_det) /. unit in
  let best_at d =
    let centers = [| p 0.0 0.0; p d 0.0 |] in
    let hnet = hnet_of_centers ~bits:1 centers in
    let topo = Bi1s.build Topology.L2 centers ~root:0 in
    List.hd (Codesign.enumerate params hnet topo)
  in
  Alcotest.(check bool) "below crossover electrical" true
    (best_at (0.8 *. crossover)).Candidate.pure_electrical;
  Alcotest.(check bool) "above crossover optical" false
    (best_at (1.2 *. crossover)).Candidate.pure_electrical

let test_loss_budget_forces_electrical () =
  (* A hopelessly tight budget leaves only the electrical labeling. *)
  let tight = { params with Params.l_max = 0.01 } in
  let centers = [| p 0.0 0.0; p 3.0 0.0; p 0.0 3.0 |] in
  let hnet = hnet_of_centers ~bits:32 centers in
  let topo = Bi1s.build Topology.L2 centers ~root:0 in
  let cands = Codesign.enumerate tight hnet topo in
  List.iter
    (fun c -> Alcotest.(check bool) "only electrical survives" true c.Candidate.pure_electrical)
    cands

let test_crossing_estimate_prunes () =
  (* A huge crossing estimate on every edge must push the DP fully
     electrical. *)
  let centers = [| p 0.0 0.0; p 3.0 0.0 |] in
  let hnet = hnet_of_centers ~bits:32 centers in
  let topo = Bi1s.build Topology.L2 centers ~root:0 in
  let cands = Codesign.enumerate ~edge_crossings:(fun _ -> 10_000) params hnet topo in
  List.iter
    (fun c -> Alcotest.(check bool) "electrical only" true c.Candidate.pure_electrical)
    cands

let test_for_hypernet_trivial () =
  let hnet = hnet_of_centers [| p 1.0 1.0 |] in
  match Codesign.for_hypernet params hnet with
  | [ c ] ->
      Alcotest.(check bool) "single zero-power candidate" true
        (c.Candidate.pure_electrical && c.Candidate.power = 0.0)
  | _ -> Alcotest.fail "expected exactly one candidate"

let test_for_hypernet_has_fallback_and_cap () =
  let rng = Operon_util.Prng.create 77 in
  let centers =
    Array.init 6 (fun i ->
        if i = 0 then p 0.0 0.0
        else p (Operon_util.Prng.float rng 5.0) (Operon_util.Prng.float rng 5.0))
  in
  let hnet = hnet_of_centers ~bits:16 centers in
  let cands = Codesign.for_hypernet ~max_total:5 params hnet in
  Alcotest.(check bool) "within cap (+fallback)" true (List.length cands <= 6);
  Alcotest.(check bool) "has electrical fallback" true
    (List.exists (fun c -> c.Candidate.pure_electrical) cands)

let test_fig5_shapes () =
  (* The paper's example keeps hybrid configurations like OEO/EEO; the DP
     over the Fig. 5 topology must produce at least one candidate that
     mixes optical and electrical edges when geometry warrants it. *)
  let centers = [| p 0.0 3.0; p 0.0 0.0; p 3.0 0.0 |] in
  let hnet = hnet_of_centers ~bits:12 centers in
  let cands = Codesign.for_hypernet params hnet in
  Alcotest.(check bool) "several candidates" true (List.length cands >= 2);
  let kinds =
    List.map
      (fun (c : Candidate.t) ->
        if c.Candidate.pure_electrical then `E
        else if c.Candidate.elec_wirelength > 1e-9 then `Hybrid
        else `O)
      cands
  in
  Alcotest.(check bool) "contains a fully-labelled variety" true
    (List.mem `E kinds && (List.mem `O kinds || List.mem `Hybrid kinds))

let prop_dp_optimal_on_random_small =
  QCheck.Test.make ~name:"dp equals exhaustive on random 4-pin nets" ~count:50
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Operon_util.Prng.create seed in
      let centers =
        Array.init 4 (fun i ->
            if i = 0 then p 0.0 0.0
            else p (Operon_util.Prng.float rng 4.0) (Operon_util.Prng.float rng 4.0))
      in
      let hnet = hnet_of_centers ~bits:(1 + Operon_util.Prng.int rng 31) centers in
      let topo = Bi1s.build Topology.L2 centers ~root:0 in
      match Codesign.enumerate params hnet topo with
      | [] -> false
      | best :: _ -> Float.abs (best.Candidate.power -. exhaustive hnet topo) < 1e-6)

(* The shared-topology path — one {!Codesign.baselines} list, counted
   with one estimator call per distinct directed segment, then
   {!Codesign.generate} — against an unmemoized count table over
   {!Bi1s.baselines} and against {!Codesign.for_hypernet}. Pins are drawn
   on a coarse grid, with duplicates of earlier pins and pins collinear
   with two earlier ones, so baselines share edges and degenerate ones
   occur. The estimator is a hash of the segment's exact endpoint bits in
   order, so a memo that merged a segment with its reverse, or two
   segments that compare equal as floats, would read a wrong count. *)
let key (s : Segment.t) =
  List.map Int64.bits_of_float [ s.a.x; s.a.y; s.b.x; s.b.y ]

let prop_shared_topologies =
  QCheck.Test.make ~name:"shared topologies match the per-net path" ~count:200
    QCheck.(pair (int_range 2 8) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Operon_util.Prng.create seed in
      let coord () = float_of_int (Operon_util.Prng.int rng 7) *. 0.75 in
      let centers = Array.make n (p 0.0 0.0) in
      for i = 1 to n - 1 do
        let earlier () = centers.(Operon_util.Prng.int rng i) in
        centers.(i) <-
          (match Operon_util.Prng.int rng 4 with
           | 0 -> earlier ()
           | 1 ->
               let a = earlier () and b = earlier () in
               let t = float_of_int (1 + Operon_util.Prng.int rng 3) in
               Point.make
                 (a.Point.x +. (t *. (b.Point.x -. a.Point.x)))
                 (a.Point.y +. (t *. (b.Point.y -. a.Point.y)))
           | _ -> p (coord ()) (coord ()))
      done;
      let hnet = hnet_of_centers ~bits:(1 + Operon_util.Prng.int rng 31) centers in
      let est s = Hashtbl.hash (key s) mod 5 in
      let baselines, _ = Bi1s.baselines centers ~root:0 in
      let distinct = Hashtbl.create 32 in
      let reference =
        Array.of_list
          (List.map
             (fun topo ->
               let root = Topology.root topo in
               Array.init (Topology.node_count topo) (fun v ->
                   if v = root then 0
                   else begin
                     let s = Topology.segment_of_edge topo v in
                     Hashtbl.replace distinct (key s) ();
                     est s
                   end))
             baselines)
      in
      let seen = Hashtbl.create 32 and calls = ref 0 and repeated = ref false in
      let counting s =
        incr calls;
        if Hashtbl.mem seen (key s) then repeated := true;
        Hashtbl.replace seen (key s) ();
        est s
      in
      let b = Codesign.baselines hnet in
      let counts, queries = Codesign.count ~crossing_est:counting b.Codesign.topos in
      let shared, _ = Codesign.generate ~counts params hnet b in
      let per_net = Codesign.for_hypernet ~crossing_est:est params hnet in
      (* The electrical fallback routed on the baselines' rectilinear tree
         is the one routed on a fresh [Rsmt.tree], and so is the DP's
         output around it. *)
      let rsmt = Rsmt.tree centers ~root:0 in
      let on_rsmt, _ = Codesign.generate ~counts params hnet { b with Codesign.rsmt } in
      let same (a : Candidate.t) (b : Candidate.t) =
        a.Candidate.labels = b.Candidate.labels
        && Int64.equal
             (Int64.bits_of_float a.Candidate.power)
             (Int64.bits_of_float b.Candidate.power)
        && a = b
      in
      let same_lists xs ys = List.length xs = List.length ys && List.for_all2 same xs ys in
      counts = reference
      && Codesign.crossing_counts ~crossing_est:est hnet = reference
      && (not !repeated)
      && !calls = Hashtbl.length distinct
      && queries = !calls
      && same_lists shared per_net
      && same
           (Candidate.electrical params hnet b.Codesign.rsmt)
           (Candidate.electrical params hnet rsmt)
      && same_lists shared on_rsmt
      && same_lists (Codesign.electrical_only params hnet)
           [ Candidate.electrical params hnet rsmt ])

let () =
  Alcotest.run "codesign"
    [ ( "codesign",
        [ Alcotest.test_case "matches exhaustive" `Quick test_dp_matches_exhaustive_small;
          Alcotest.test_case "feasible output" `Quick test_dp_candidates_feasible;
          Alcotest.test_case "sorted" `Quick test_dp_sorted_by_power;
          Alcotest.test_case "electrical present" `Quick test_dp_includes_electrical;
          Alcotest.test_case "power cross-check" `Quick test_dp_power_cross_check;
          Alcotest.test_case "wide bus optical" `Quick test_wide_bus_prefers_optical;
          Alcotest.test_case "thin short electrical" `Quick test_short_thin_net_prefers_electrical;
          Alcotest.test_case "crossover distance" `Quick test_crossover_distance;
          Alcotest.test_case "tight budget" `Quick test_loss_budget_forces_electrical;
          Alcotest.test_case "crossing estimate prunes" `Quick test_crossing_estimate_prunes;
          Alcotest.test_case "trivial hypernet" `Quick test_for_hypernet_trivial;
          Alcotest.test_case "fallback and cap" `Quick test_for_hypernet_has_fallback_and_cap;
          Alcotest.test_case "fig5 shapes" `Quick test_fig5_shapes;
          QCheck_alcotest.to_alcotest prop_dp_optimal_on_random_small;
          QCheck_alcotest.to_alcotest prop_shared_topologies ] ) ]
