(* Tests for the hierarchical partition-and-route layer: spatial-index
   parity against the naive O(n^2) pairwise sweep it replaced,
   decomposition invariants and determinism, partitioned-vs-flat flow
   identity on a design whose cut severs no interacting pairs, and the
   flat and partitioned flows pinned to literals. *)

open Operon_geom
open Operon
open Operon_benchgen
open Operon_engine

let params = Operon_optical.Params.default

let rect x1 y1 x2 y2 = Rect.make ~xmin:x1 ~ymin:y1 ~xmax:x2 ~ymax:y2

(* The reference the spatial index replaced: every i < j whose boxes
   overlap, ascending lexicographic. *)
let naive_pairs boxes =
  let n = Array.length boxes in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if Rect.overlaps boxes.(i) boxes.(j) then acc := (i, j) :: !acc
    done
  done;
  !acc

let naive_components boxes =
  let n = Array.length boxes in
  let dsu = Operon_graph.Dsu.create n in
  List.iter
    (fun (i, j) -> ignore (Operon_graph.Dsu.union dsu i j))
    (naive_pairs boxes);
  let groups = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    let r = Operon_graph.Dsu.find dsu i in
    let existing = try Hashtbl.find groups r with Not_found -> [] in
    Hashtbl.replace groups r (i :: existing)
  done;
  Hashtbl.fold (fun _ members acc -> Array.of_list members :: acc) groups []
  |> List.sort (fun a b -> compare a.(0) b.(0))
  |> Array.of_list

(* Random boxes plus the adversarial shapes the hash grid must survive:
   exact duplicates (the all-electrical placeholder cliques), degenerate
   point boxes piled on one far-away coordinate, and a lone outlier that
   would poison any global-bounds cell size. *)
let boxes_of_specs specs =
  let base =
    List.map (fun (x, y, w, h) -> rect x y (x +. w) (y +. h)) specs
  in
  let adversarial =
    match base with
    | [] -> []
    | first :: _ ->
        [ first; first; first ]
        @ [ rect (-1e9) (-1e9) (-1e9) (-1e9);
            rect (-1e9) (-1e9) (-1e9) (-1e9);
            rect (-1e9) (-1e9) (-1e9) (-1e9);
            rect 1e9 1e9 1e9 1e9 ]
  in
  Array.of_list (base @ adversarial)

let spec_gen =
  QCheck.(
    list_of_size Gen.(int_range 0 30)
      (quad (float_range 0.0 8.0) (float_range 0.0 8.0)
         (float_range 0.0 2.0) (float_range 0.0 2.0)))

(* The pairs [Overlap.iter_pairs] reports, collected and sorted: the
   index promises each overlapping pair once, in no particular order. *)
let prop_pairs_match_naive =
  QCheck.Test.make ~name:"interacting_pairs = naive pairwise sweep"
    ~count:200 spec_gen (fun specs ->
      let boxes = boxes_of_specs specs in
      let acc = ref [] in
      Overlap.iter_pairs (Overlap.build boxes) (fun i j -> acc := (i, j) :: !acc);
      List.sort compare !acc = naive_pairs boxes)

let prop_components_match_naive =
  QCheck.Test.make ~name:"interaction_components = naive DSU" ~count:200
    spec_gen (fun specs ->
      let boxes = boxes_of_specs specs in
      Crossing.interaction_components boxes = naive_components boxes)

(* Boxes on a coarse lattice, up to 150 of them: exact duplicates,
   zero-width and zero-height boxes and boxes that touch along an edge
   or at a corner are the common case rather than the rare one, and past
   64 distinct boxes a query goes through the hash grid. *)
let lattice_gen =
  QCheck.(
    list_of_size Gen.(int_range 0 150)
      (quad (int_range 0 6) (int_range 0 6) (int_range 0 2) (int_range 0 2)))

let lattice_boxes specs =
  Array.of_list
    (List.map
       (fun (x, y, w, h) ->
         let x = float_of_int x and y = float_of_int y in
         rect x y (x +. float_of_int w) (y +. float_of_int h))
       specs)

(* Besides the pairs and components, each group holds the indices of one
   distinct box, ascending, and every index is in exactly one group. *)
let prop_lattice_pairs_match_naive =
  QCheck.Test.make ~name:"lattice boxes: pairs, groups and components = naive" ~count:200
    lattice_gen (fun specs ->
      let boxes = lattice_boxes specs in
      let acc = ref [] in
      Overlap.iter_pairs (Overlap.build boxes) (fun i j -> acc := (i, j) :: !acc);
      let groups = ref [] in
      Overlap.iter_groups (Overlap.build boxes) (fun g -> groups := g :: !groups);
      let ascending g = Array.for_all Fun.id (Array.mapi (fun k i -> k = 0 || g.(k - 1) < i) g) in
      let equal g = Array.for_all (fun i -> boxes.(i) = boxes.(g.(0))) g in
      List.sort compare !acc = naive_pairs boxes
      && Crossing.interaction_components boxes = naive_components boxes
      && List.for_all (fun g -> ascending g && equal g) !groups
      && List.sort compare (List.concat_map Array.to_list !groups)
         = List.init (Array.length boxes) Fun.id
      && List.length (List.sort_uniq compare (List.map (fun g -> boxes.(g.(0))) !groups))
         = List.length !groups)

(* [query] and [overlaps_any] against a scan of every box, for lattice
   query boxes (touching included) and an unbounded one. *)
let prop_lattice_query_match_naive =
  QCheck.Test.make ~name:"lattice boxes: query = naive" ~count:200
    QCheck.(pair lattice_gen (list_of_size Gen.(int_range 1 10)
                                (quad (int_range (-1) 7) (int_range (-1) 7)
                                   (int_range 0 3) (int_range 0 3))))
    (fun (specs, queries) ->
      let boxes = lattice_boxes specs in
      let idx = Overlap.build boxes in
      let everything = rect neg_infinity neg_infinity infinity infinity in
      Array.for_all
        (fun q ->
          let acc = ref [] in
          Overlap.query idx q (fun i -> acc := i :: !acc);
          let want =
            List.filter (fun i -> Rect.overlaps boxes.(i) q)
              (List.init (Array.length boxes) Fun.id)
          in
          List.sort compare !acc = want && Overlap.overlaps_any idx q = (want <> []))
        (Array.append [| everything |] (lattice_boxes queries)))

(* Neighbor rows of a real selection context: sorted ascending,
   symmetric, and a subset of the naive bbox-overlap relation — the
   index enumerates exactly the overlapping pairs, and the [linked]
   filter only removes pairs. *)
let test_ctx_neighbors () =
  let design = Cases.small ~seed:7 () in
  let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let neighbors = ctx.Selection.neighbors in
  let n = Array.length neighbors in
  let overlap i j =
    match (ctx.Selection.bboxes.(i), ctx.Selection.bboxes.(j)) with
    | Some a, Some b -> Rect.overlaps a b
    | _ -> false
  in
  for i = 0 to n - 1 do
    let row = neighbors.(i) in
    Array.iteri
      (fun k j ->
        if k > 0 then
          Alcotest.(check bool) "row ascending" true (row.(k - 1) < j);
        Alcotest.(check bool) "neighbor overlaps" true (overlap i j);
        Alcotest.(check bool) "symmetric" true
          (Array.exists (fun x -> x = i) neighbors.(j)))
      row
  done

let test_ctx_neighbors_cache_invariant () =
  let design = Cases.small ~seed:7 () in
  let _, with_cache = Flow.prepare_with (Flow.Config.default params) design in
  let without =
    Selection.make_ctx ~cache:false params
      (Array.map Array.to_list with_cache.Selection.cands)
  in
  Alcotest.(check bool) "same neighbor sets" true
    (with_cache.Selection.neighbors = without.Selection.neighbors)

(* --- Partition.make --- *)

let neighbors_of_pairs n pairs =
  let rows = Array.make n [] in
  List.iter
    (fun (i, j) ->
      rows.(i) <- j :: rows.(i);
      rows.(j) <- i :: rows.(j))
    (List.rev pairs);
  Array.map (fun l -> Array.of_list (List.sort compare l)) rows

let prop_partition_invariants =
  QCheck.Test.make ~name:"Partition.make invariants" ~count:200
    QCheck.(pair (int_range 1 8) spec_gen)
    (fun (regions, specs) ->
      let boxes = boxes_of_specs specs in
      let n = Array.length boxes in
      let some_boxes = Array.map (fun b -> Some b) boxes in
      let pairs = naive_pairs boxes in
      let neighbors = neighbors_of_pairs n pairs in
      let plan = Partition.make ~regions some_boxes ~neighbors in
      let seen = Array.make n 0 in
      Array.iter
        (fun ids -> Array.iter (fun i -> seen.(i) <- seen.(i) + 1) ids)
        plan.Partition.regions;
      let covered = Array.for_all (fun c -> c = 1) seen in
      let consistent =
        Array.for_all
          (fun i ->
            Array.exists (fun x -> x = i)
              plan.Partition.regions.(plan.Partition.region_of.(i)))
          (Array.init n Fun.id)
      in
      let cut =
        List.filter
          (fun (i, j) ->
            plan.Partition.region_of.(i) <> plan.Partition.region_of.(j))
          pairs
      in
      let corridor_ref =
        List.concat_map (fun (i, j) -> [ i; j ]) cut
        |> List.sort_uniq compare |> Array.of_list
      in
      let boundary_members =
        Array.to_list plan.Partition.boundary
        |> List.concat_map Array.to_list |> List.sort compare
        |> Array.of_list
      in
      let deterministic =
        plan = Partition.make ~regions some_boxes ~neighbors
      in
      n = 0
      || (covered && consistent
          && Array.length plan.Partition.regions <= Stdlib.max 1 regions
          && plan.Partition.cut_pairs = List.length cut
          && plan.Partition.total_pairs = List.length pairs
          && plan.Partition.corridor = corridor_ref
          && boundary_members = corridor_ref
          && deterministic))

(* --- Partitioned flow vs flat flow --- *)

let ilp_config ?(jobs = 1) ?partition () =
  Flow.Config.make ~mode:Flow.Ilp ~ilp_budget:60.0 ~jobs ?partition params

let no_timings r = Export.flow_to_json ~timings:false r

(* The split case's two clusters never interact: a 2-region cut severs
   zero pairs, so region-local ILP solves compose into exactly the flat
   solution — whole exports byte-compare, at any worker count. *)
let test_split_bit_identity () =
  let design = Cases.split () in
  let flat = Flow.synthesize (ilp_config ()) design in
  let part1 =
    Flow.synthesize
      (ilp_config ~partition:(Flow.Config.Regions 2) ())
      design
  in
  let part4 =
    Flow.synthesize
      (ilp_config ~jobs:4 ~partition:(Flow.Config.Regions 2) ())
      design
  in
  (match part1.Flow.partition with
   | Some p ->
       Alcotest.(check int) "two regions" 2 p.Flow.pt_regions;
       Alcotest.(check int) "no cut pairs" 0 p.Flow.pt_cut_pairs;
       Alcotest.(check int) "no corridor" 0 p.Flow.pt_corridor_nets
   | None -> Alcotest.fail "partitioned run reported no partition stats");
  (* Selection-level identity: the partitioned choice, its power and the
     solver path reproduce the flat run exactly when the cut severs
     nothing. The WDM realization is decomposed per region too, and its
     eligibility is 1-D (perpendicular distance only), so even this
     geometrically split design shares tracks across the gap in flat
     mode — partitioned mode forfeits that sharing, which is why the
     track count is bounded rather than equal. *)
  Alcotest.(check (array int)) "partitioned choice = flat choice"
    flat.Flow.choice part1.Flow.choice;
  Alcotest.(check int64) "partitioned power = flat power, bit for bit"
    (Int64.bits_of_float flat.Flow.power)
    (Int64.bits_of_float part1.Flow.power);
  Alcotest.(check string) "solver path matches flat" flat.Flow.solver_path
    part1.Flow.solver_path;
  Alcotest.(check bool) "surviving track count within 15% of flat" true
    (float_of_int part1.Flow.assignment.Assign.final_count
    <= 1.15 *. float_of_int flat.Flow.assignment.Assign.final_count);
  Alcotest.(check string) "jobs 1 = jobs 4, byte for byte"
    (no_timings part1) (no_timings part4)

(* With real cut pairs the stitched result may differ from flat, but it
   must stay feasible and within the documented 5% power bound. *)
let test_interacting_quality_bound () =
  let design = Cases.small ~seed:7 () in
  let flat = Flow.synthesize (ilp_config ()) design in
  let part =
    Flow.synthesize
      (ilp_config ~partition:(Flow.Config.Regions 4) ())
      design
  in
  Alcotest.(check bool) "partition stats present" true
    (part.Flow.partition <> None);
  Alcotest.(check bool) "within 5% of flat power" true
    (part.Flow.power <= flat.Flow.power *. 1.05);
  Alcotest.(check bool) "solver path is still ilp" true
    (part.Flow.solver_path = "ilp")

let test_partitioned_jobs_determinism_interacting () =
  let design = Cases.small ~seed:7 () in
  let run jobs =
    Flow.synthesize
      (ilp_config ~jobs ~partition:(Flow.Config.Regions 4) ())
      design
  in
  Alcotest.(check string) "jobs 1 = jobs 4 with cut pairs"
    (no_timings (run 1)) (no_timings (run 4))

(* Below the activation threshold (or at Off) the flat flow runs and no
   stats are reported. *)
let test_inactive_partition () =
  let design = Cases.tiny () in
  let off = Flow.synthesize (ilp_config ()) design in
  let auto =
    Flow.synthesize (ilp_config ~partition:Flow.Config.Auto ()) design
  in
  Alcotest.(check bool) "off reports none" true (off.Flow.partition = None);
  Alcotest.(check bool) "auto under threshold reports none" true
    (auto.Flow.partition = None);
  Alcotest.(check string) "auto under threshold = flat" (no_timings off)
    (no_timings auto)

(* --- Region contexts sliced from the design-wide context --- *)

(* A partitioned region selects on [Selection.slice] of the design-wide
   context. It must be the context [Selection.make_ctx] builds from the
   region's candidate lists, with the thermal rows attached as a regional
   profile would compute them: the same neighbour rows, bboxes and
   fallbacks, and a crossing matrix with the same pairs, entries and
   counts in every slot. Checked on the three partitioned CI designs,
   with and without a thermal profile. *)
let test_slice_equals_make_ctx () =
  List.iter
    (fun (name, design, regions) ->
      let cfg =
        Flow.Config.make ~partition:(Flow.Config.Regions regions) params
      in
      let plain = (Flow.prepare cfg design).Flow.p_ctx in
      let map =
        Operon_thermal.Thermal_map.synthetic ~hotspots:3 ~amplitude:25.0
          ~decay:0.2 ~die:design.Signal.die (Operon_util.Prng.create 7)
      in
      let heated =
        Selection.with_thermal plain (Selection.thermal_profile plain map)
          ~weight:2.0
      in
      List.iter
        (fun (variant, (ctx : Selection.ctx)) ->
          let plan =
            Partition.make ~regions ctx.Selection.bboxes
              ~neighbors:ctx.Selection.neighbors
          in
          Array.iteri
            (fun r ids ->
              let label what =
                Printf.sprintf "%s/%d %s region %d: %s" name regions variant r
                  what
              in
              let rows a = Array.map (fun i -> a.(i)) ids in
              let sliced = Selection.slice ctx ids in
              let made =
                Selection.make_ctx ctx.Selection.params
                  (Array.map Array.to_list (rows ctx.Selection.cands))
              in
              let made =
                match ctx.Selection.thermal with
                | None -> made
                | Some th ->
                    Selection.with_thermal made
                      { th with
                        Selection.penalty = rows th.Selection.penalty;
                        tcost = rows th.Selection.tcost }
                      ~weight:th.Selection.weight
              in
              Alcotest.(check (array (array int))) (label "neighbour rows")
                made.Selection.neighbors sliced.Selection.neighbors;
              Alcotest.(check bool) (label "bboxes") true
                (made.Selection.bboxes = sliced.Selection.bboxes);
              Alcotest.(check (array int)) (label "elec_idx")
                made.Selection.elec_idx sliced.Selection.elec_idx;
              Alcotest.(check bool) (label "candidates") true
                (made.Selection.cands = sliced.Selection.cands);
              Alcotest.(check bool) (label "thermal rows") true
                (made.Selection.thermal = sliced.Selection.thermal);
              let ms = Xmatrix.stats made.Selection.xmat
              and ss = Xmatrix.stats sliced.Selection.xmat in
              Alcotest.(check (pair int int)) (label "matrix pairs, entries")
                (ms.Xmatrix.pairs, ms.Xmatrix.entries)
                (ss.Xmatrix.pairs, ss.Xmatrix.entries);
              let differ = ref 0 in
              Array.iteri
                (fun i row ->
                  Array.iteri
                    (fun k m ->
                      Array.iteri
                        (fun j _ ->
                          Array.iteri
                            (fun n _ ->
                              let counts x =
                                Xmatrix.slot_counts x ~i ~k ~j ~m ~n
                              in
                              if
                                counts made.Selection.xmat
                                <> counts sliced.Selection.xmat
                              then incr differ)
                            sliced.Selection.cands.(m))
                        sliced.Selection.cands.(i))
                    row)
                sliced.Selection.neighbors;
              Alcotest.(check int) (label "slots whose counts differ") 0
                !differ)
            plan.Partition.regions)
        [ ("plain", plain); ("thermal", heated) ])
    [ ("small", Cases.small (), 4);
      ("split", Cases.split (), 2);
      ("I1", Gen.generate Cases.i1, 2) ]

(* --- Flat and partitioned flows pinned to literals --- *)

(* The choice (FNV-1a of the vector), the power bits, the solver path,
   the surviving track count, the crossing-matrix stats (pairs, entries,
   hits, misses) and the Codesign/Select/Wdm/Assign counters of tiny,
   small and split, flat and partitioned, in both modes: whatever restructures
   selection or its fan-outs must reproduce them bit for bit. Each entry
   must hold at jobs 1 and at jobs 4. *)
type pin = {
  choice : int64;
  power : int64;
  path : string;
  tracks : int;
  cache : int * int * int * int;
  counters : (string * (string * int) list) list;
}

let mode_name = function Flow.Lr -> "lr" | Flow.Ilp -> "ilp"

let choice_hash choice =
  Array.fold_left
    (fun h j -> Int64.mul (Int64.logxor h (Int64.of_int j)) 0x100000001b3L)
    0xcbf29ce484222325L choice

let pin_design = function
  | "tiny" -> (Cases.tiny (), Flow.Config.Off)
  | "small" -> (Cases.small (), Flow.Config.Off)
  | "split" -> (Cases.split (), Flow.Config.Off)
  | "split/2" -> (Cases.split (), Flow.Config.Regions 2)
  | "small/4" -> (Cases.small (), Flow.Config.Regions 4)
  | name -> invalid_arg name

let pin_run ?(injections = []) ~jobs name mode =
  let design, partition = pin_design name in
  let config =
    match mode with
    | Flow.Lr -> Flow.Config.make ~jobs ~injections ~partition params
    | Flow.Ilp ->
        Flow.Config.make ~mode:Flow.Ilp ~ilp_budget:60.0 ~jobs ~injections
          ~partition params
  in
  Flow.synthesize config design

let stage_counters (r : Flow.t) =
  List.filter_map
    (fun (rcd : Instrument.record) ->
      let row counters =
        Some (Instrument.stage_name rcd.Instrument.stage, counters)
      in
      match rcd.Instrument.stage with
      | Instrument.Codesign ->
          (* The matrix's own counters are the [cache] pin, and its build
             time is not a count. *)
          row
            (List.filter
               (fun (key, _) ->
                 not (String.starts_with ~prefix:"xmatrix_" key))
               (Instrument.counters rcd))
      | Instrument.Select | Instrument.Wdm | Instrument.Assign ->
          row (Instrument.counters rcd)
      | _ -> None)
    (Instrument.records r.Flow.trace)

let pinned =
  [
    ( ("tiny", Flow.Lr),
      { choice = 0x4d25767f9dce13f5L;
        power = 0x4012a5e353f7ced9L;
        path = "lr";
        tracks = 4;
        cache = (6, 126, 99, 0);
        counters =
          [ ( "codesign",
              [ ("raw", 34); ("kept", 31); ("pruned", 3); ("queries", 16) ] );
            ( "select",
              [ ("iterations", 2); ("demoted", 0); ("cache_hits", 99);
                ("cache_misses", 0) ] );
            ( "wdm",
              [ ("connections", 8); ("tracks", 4) ] );
            ( "assign",
              [ ("initial", 4); ("final", 4);
                ("searches", 8); ("retire_solves", 4); ("pinned", 0) ] ) ] } );
    ( ("tiny", Flow.Ilp),
      { choice = 0x4d25767f9dce13f5L;
        power = 0x4012a5e353f7ced9L;
        path = "ilp";
        tracks = 4;
        cache = (6, 126, 339, 0);
        counters =
          [ ( "codesign",
              [ ("raw", 34); ("kept", 31); ("pruned", 3); ("queries", 16) ] );
            ( "select",
              [ ("components", 1); ("timed_out", 0); ("nodes", 1);
                ("lp_solves", 1); ("pivots", 10); ("refactorizations", 0);
                ("blocks_solved", 0); ("blocks_skipped", 0);
                ("guard_rows", 0); ("guard_skipped", 0);
                ("cache_hits", 339); ("cache_misses", 0) ] );
            ( "wdm",
              [ ("connections", 8); ("tracks", 4) ] );
            ( "assign",
              [ ("initial", 4); ("final", 4);
                ("searches", 8); ("retire_solves", 4); ("pinned", 0) ] ) ] } );
    ( ("small", Flow.Lr),
      { choice = 0x5467b0da1d106495L;
        power = 0x402e374bc6a7ef9eL;
        path = "lr";
        tracks = 15;
        cache = (40, 1558, 761, 0);
        counters =
          [ ( "codesign",
              [ ("raw", 126); ("kept", 104); ("pruned", 22); ("queries", 75) ] );
            ( "select",
              [ ("iterations", 3); ("demoted", 0); ("cache_hits", 761);
                ("cache_misses", 0) ] );
            ( "wdm",
              [ ("connections", 32); ("tracks", 15) ] );
            ( "assign",
              [ ("initial", 15); ("final", 15);
                ("searches", 32); ("retire_solves", 15); ("pinned", 0) ] ) ] } );
    ( ("small", Flow.Ilp),
      { choice = 0x5467b0da1d106495L;
        power = 0x402e374bc6a7ef9eL;
        path = "ilp";
        tracks = 15;
        cache = (40, 1558, 2959, 0);
        counters =
          [ ( "codesign",
              [ ("raw", 126); ("kept", 104); ("pruned", 22); ("queries", 75) ] );
            ( "select",
              [ ("components", 1); ("timed_out", 0); ("nodes", 1);
                ("lp_solves", 1); ("pivots", 54); ("refactorizations", 0);
                ("blocks_solved", 0); ("blocks_skipped", 0);
                ("guard_rows", 0); ("guard_skipped", 0);
                ("cache_hits", 2959); ("cache_misses", 0) ] );
            ( "wdm",
              [ ("connections", 32); ("tracks", 15) ] );
            ( "assign",
              [ ("initial", 15); ("final", 15);
                ("searches", 32); ("retire_solves", 15); ("pinned", 0) ] ) ] } );
    ( ("split", Flow.Lr),
      { choice = 0xc8210784d8af5a5L;
        power = 0x40417d6453e94f7eL;
        path = "lr";
        tracks = 22;
        cache = (210, 2192, 2506, 0);
        counters =
          [ ( "codesign",
              [ ("raw", 192); ("kept", 170); ("pruned", 22); ("queries", 102) ] );
            ( "select",
              [ ("iterations", 2); ("demoted", 0); ("cache_hits", 2506);
                ("cache_misses", 0) ] );
            ( "wdm",
              [ ("connections", 53); ("tracks", 22) ] );
            ( "assign",
              [ ("initial", 22); ("final", 22);
                ("searches", 53); ("retire_solves", 22); ("pinned", 0) ] ) ] } );
    ( ("split", Flow.Ilp),
      { choice = 0xc8210784d8af5a5L;
        power = 0x40417d6453e94f7eL;
        path = "ilp";
        tracks = 22;
        cache = (210, 2192, 5400, 0);
        counters =
          [ ( "codesign",
              [ ("raw", 192); ("kept", 170); ("pruned", 22); ("queries", 102) ] );
            ( "select",
              [ ("components", 2); ("timed_out", 0); ("nodes", 2);
                ("lp_solves", 2); ("pivots", 289); ("refactorizations", 3);
                ("blocks_solved", 0); ("blocks_skipped", 0);
                ("guard_rows", 0); ("guard_skipped", 0);
                ("cache_hits", 5400); ("cache_misses", 0) ] );
            ( "wdm",
              [ ("connections", 53); ("tracks", 22) ] );
            ( "assign",
              [ ("initial", 22); ("final", 22);
                ("searches", 53); ("retire_solves", 22); ("pinned", 0) ] ) ] } );
    ( ("split/2", Flow.Lr),
      { choice = 0xc8210784d8af5a5L;
        power = 0x40417d6453e94f7eL;
        path = "lr";
        tracks = 24;
        cache = (210, 2192, 2506, 0);
        counters =
          [ ( "codesign",
              [ ("raw", 192); ("kept", 170); ("pruned", 22); ("queries", 102) ] );
            ( "select",
              [ ("iterations", 4); ("demoted", 0) ] );
            ( "wdm",
              [ ("regions", 2); ("connections", 53); ("tracks", 24) ] );
            ( "assign",
              [ ("regions", 2); ("initial", 24); ("final", 24);
                ("searches", 53); ("retire_solves", 24); ("pinned", 0) ] ) ] } );
    ( ("split/2", Flow.Ilp),
      { choice = 0xc8210784d8af5a5L;
        power = 0x40417d6453e94f7eL;
        path = "ilp";
        tracks = 24;
        cache = (210, 2192, 5400, 0);
        counters =
          [ ( "codesign",
              [ ("raw", 192); ("kept", 170); ("pruned", 22); ("queries", 102) ] );
            ( "select",
              [ ("components", 2); ("timed_out", 0); ("nodes", 2);
                ("lp_solves", 2); ("pivots", 254); ("refactorizations", 3);
                ("blocks_solved", 0); ("blocks_skipped", 0);
                ("guard_rows", 0); ("guard_skipped", 0) ] );
            ( "wdm",
              [ ("regions", 2); ("connections", 53); ("tracks", 24) ] );
            ( "assign",
              [ ("regions", 2); ("initial", 24); ("final", 24);
                ("searches", 53); ("retire_solves", 24); ("pinned", 0) ] ) ] } );
    ( ("small/4", Flow.Lr),
      { choice = 0x5467b0da1d106495L;
        power = 0x402e374bc6a7ef9eL;
        path = "lr";
        tracks = 24;
        cache = (12, 432, 226, 0);
        counters =
          [ ( "codesign",
              [ ("raw", 126); ("kept", 104); ("pruned", 22); ("queries", 75) ] );
            ( "select",
              [ ("iterations", 10); ("demoted", 0) ] );
            ( "wdm",
              [ ("regions", 4); ("connections", 32); ("tracks", 24) ] );
            ( "assign",
              [ ("regions", 4); ("initial", 24); ("final", 24);
                ("searches", 32); ("retire_solves", 24); ("pinned", 0) ] ) ] } );
    ( ("small/4", Flow.Ilp),
      { choice = 0x5467b0da1d106495L;
        power = 0x402e374bc6a7ef9eL;
        path = "ilp";
        tracks = 24;
        cache = (12, 432, 856, 0);
        counters =
          [ ( "codesign",
              [ ("raw", 126); ("kept", 104); ("pruned", 22); ("queries", 75) ] );
            ( "select",
              [ ("components", 4); ("timed_out", 0); ("nodes", 4);
                ("lp_solves", 4); ("pivots", 29); ("refactorizations", 0);
                ("blocks_solved", 0); ("blocks_skipped", 0);
                ("guard_rows", 0); ("guard_skipped", 0) ] );
            ( "wdm",
              [ ("regions", 4); ("connections", 32); ("tracks", 24) ] );
            ( "assign",
              [ ("regions", 4); ("initial", 24); ("final", 24);
                ("searches", 32); ("retire_solves", 24); ("pinned", 0) ] ) ] } ) ]

let test_flow_pinned () =
  List.iter
    (fun ((name, mode), pin) ->
      List.iter
        (fun jobs ->
          let r = pin_run ~jobs name mode in
          let label what =
            Printf.sprintf "%s %s jobs %d: %s" name (mode_name mode) jobs
              what
          in
          Alcotest.(check int64) (label "choice") pin.choice
            (choice_hash r.Flow.choice);
          Alcotest.(check int64) (label "power bits") pin.power
            (Int64.bits_of_float r.Flow.power);
          Alcotest.(check string) (label "solver path") pin.path
            r.Flow.solver_path;
          Alcotest.(check int) (label "final tracks") pin.tracks
            r.Flow.assignment.Assign.final_count;
          let c = r.Flow.cache in
          Alcotest.(check (pair (pair int int) (pair int int)))
            (label "cache stats")
            (let p, e, h, m = pin.cache in ((p, e), (h, m)))
            ( (c.Xmatrix.pairs, c.Xmatrix.entries),
              (c.Xmatrix.hits, c.Xmatrix.misses) );
          Alcotest.(check (list (pair string (list (pair string int)))))
            (label "counters") pin.counters (stage_counters r))
        [ 1; 4 ])
    pinned

(* An injected Select fault fires inside every region's engine chain, as
   it does in the flat chain: each region falls back to greedy, the
   faults arrive in region order, and the partitioned plan stands. *)
let test_partitioned_select_injection () =
  let injections =
    match Fault.injections_of_string "select:*:budget" with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun (mode, path, hops) ->
      List.iter
        (fun jobs ->
          let r = pin_run ~injections ~jobs "split/2" mode in
          let label what =
            Printf.sprintf "%s jobs %d: %s" (mode_name mode) jobs what
          in
          Alcotest.(check string) (label "solver path") path r.Flow.solver_path;
          Alcotest.(check (list (triple string string bool)))
            (label "one budget fault per failed hop, region by region")
            (List.init (2 * hops) (fun _ -> ("select", "budget", true)))
            (List.map
               (fun (f : Fault.t) ->
                 ( Instrument.stage_name f.Fault.stage,
                   Fault.kind_name f.Fault.kind,
                   f.Fault.net = None ))
               r.Flow.faults);
          Alcotest.(check int) (label "fallbacks") (2 * hops)
            (Instrument.counter r.Flow.trace Instrument.Select "fallbacks");
          (match r.Flow.partition with
           | Some p ->
               Alcotest.(check int) (label "regions") 2 p.Flow.pt_regions
           | None -> Alcotest.fail (label "partition stats missing"));
          Alcotest.(check bool) (label "feasible") true
            (Selection.feasible r.Flow.ctx r.Flow.choice))
        [ 1; 4 ])
    [ (Flow.Lr, "lr->greedy", 1); (Flow.Ilp, "ilp->lr->greedy", 2) ]

(* --- thermal support trim (satellite of the same PR) --- *)

let test_thermal_support () =
  let open Operon_thermal in
  let die = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:4.0 ~ymax:4.0 in
  let t_ref = params.Operon_optical.Params.t_ref in
  (* Whole map exactly at t_ref: empty support. *)
  let flat_grid = Gridmap.create die ~nx:8 ~ny:8 in
  let uniform = Thermal_map.make ~ambient:t_ref flat_grid in
  Alcotest.(check bool) "uniform map has empty support" true
    (Thermal_map.support ~t_ref uniform = None);
  (* One interior hot cell: support covers it, and sampling outside the
     support is exactly zero. *)
  let grid = Gridmap.create die ~nx:8 ~ny:8 in
  Gridmap.set grid 2 3 10.0;
  let map = Thermal_map.make ~ambient:t_ref grid in
  (match Thermal_map.support ~t_ref map with
   | None -> Alcotest.fail "hot cell must produce a support box"
   | Some s ->
       Alcotest.(check bool) "hot cell center inside" true
         (Rect.contains s (Thermal_map.cell_center map 2 3));
       let far =
         Segment.make (Point.make 3.9 0.1) (Point.make 3.9 3.9)
       in
       Alcotest.(check bool) "far segment outside support" true
         (not (Rect.overlaps s (Segment.bbox far)));
       Alcotest.(check (float 0.0)) "outside support detunes exactly 0" 0.0
         (Thermal_map.segment_detuning map ~t_ref far))

let () =
  Alcotest.run "partition"
    [ ( "spatial-index",
        [ QCheck_alcotest.to_alcotest prop_pairs_match_naive;
          QCheck_alcotest.to_alcotest prop_components_match_naive;
          QCheck_alcotest.to_alcotest prop_lattice_pairs_match_naive;
          QCheck_alcotest.to_alcotest prop_lattice_query_match_naive;
          Alcotest.test_case "ctx neighbor rows" `Quick test_ctx_neighbors;
          Alcotest.test_case "cache-invariant neighbors" `Quick
            test_ctx_neighbors_cache_invariant ] );
      ( "plan",
        [ QCheck_alcotest.to_alcotest prop_partition_invariants ] );
      ( "flow",
        [ Alcotest.test_case "split bit-identity" `Quick
            test_split_bit_identity;
          Alcotest.test_case "interacting quality bound" `Quick
            test_interacting_quality_bound;
          Alcotest.test_case "jobs determinism with cuts" `Quick
            test_partitioned_jobs_determinism_interacting;
          Alcotest.test_case "inactive partition" `Quick
            test_inactive_partition;
          Alcotest.test_case "region context is a slice" `Quick
            test_slice_equals_make_ctx;
          Alcotest.test_case "flat and partitioned flows pinned" `Quick
            test_flow_pinned;
          Alcotest.test_case "partitioned select injection" `Quick
            test_partitioned_select_injection ] );
      ( "thermal-trim",
        [ Alcotest.test_case "support geometry" `Quick test_thermal_support ]
      ) ]
