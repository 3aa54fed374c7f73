(* Tests for the selection machinery: the shared context, the Formula (3)
   ILP selector, and Algorithm 1 (Lagrangian relaxation). Built around a
   crafted scenario where two crossing nets cannot both go optical, so
   the selectors must coordinate. *)

open Operon_geom
open Operon_optical
open Operon

let p = Point.make

let params = Params.default

let hnet_of_centers ~id ?(bits = 8) centers =
  let pins =
    Array.mapi
      (fun i c ->
        { Hypernet.center = c; pin_count = 1; source_count = (if i = 0 then 1 else 0) })
      centers
  in
  Hypernet.make ~id ~group:0 ~bits ~pins

(* Candidate lists for a net: [all-optical; electrical]. *)
let simple_cands ?(bits = 8) id a b =
  let centers = [| a; b |] in
  let hnet = hnet_of_centers ~id ~bits centers in
  let topo =
    Operon_steiner.Topology.make ~positions:centers ~nterminals:2 ~edges:[ (0, 1) ]
      ~root:0
  in
  [ Candidate.of_labels params hnet topo [| Candidate.Electrical; Candidate.Optical |];
    Candidate.electrical params hnet topo ]

(* Two long nets crossing at the centre. *)
let crossing_pair () =
  [| simple_cands 0 (p 0.0 2.0) (p 4.0 2.0); simple_cands 1 (p 2.0 0.0) (p 2.0 4.0) |]

(* Independent parallel nets. *)
let parallel_pair () =
  [| simple_cands 0 (p 0.0 0.0) (p 4.0 0.0); simple_cands 1 (p 0.0 2.0) (p 4.0 2.0) |]

let test_ctx_structure () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  Alcotest.(check int) "two nets" 2 (Array.length ctx.Selection.cands);
  Alcotest.(check int) "elec fallback of net 0" 1 ctx.Selection.elec_idx.(0);
  Alcotest.(check (array int)) "net 0 neighbors" [| 1 |] ctx.Selection.neighbors.(0);
  Alcotest.(check (array int)) "net 1 neighbors" [| 0 |] ctx.Selection.neighbors.(1)

let test_ctx_parallel_nets_no_neighbors () =
  let ctx = Selection.make_ctx params (parallel_pair ()) in
  Alcotest.(check (array int)) "no coupling" [||] ctx.Selection.neighbors.(0);
  Alcotest.(check (array int)) "no coupling" [||] ctx.Selection.neighbors.(1)

let test_ctx_requires_fallback () =
  let centers = [| p 0.0 0.0; p 2.0 0.0 |] in
  let hnet = hnet_of_centers ~id:0 centers in
  let topo =
    Operon_steiner.Topology.make ~positions:centers ~nterminals:2 ~edges:[ (0, 1) ]
      ~root:0
  in
  let optical_only =
    [ Candidate.of_labels params hnet topo [| Candidate.Electrical; Candidate.Optical |] ]
  in
  try
    ignore (Selection.make_ctx params [| optical_only |]);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_path_losses_include_crossing () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  let both_optical = [| 0; 0 |] in
  let losses = Selection.net_path_losses ctx both_optical 0 in
  Alcotest.(check int) "one path" 1 (Array.length losses);
  let expected =
    Loss.propagation params 4.0 +. Loss.crossing_bundled params 1
  in
  Alcotest.(check bool) "loss includes coupling" true
    (Float.abs (losses.(0) -. expected) < 1e-9);
  (* demoting the neighbour removes the crossing term *)
  let alone = [| 0; 1 |] in
  let losses' = Selection.net_path_losses ctx alone 0 in
  Alcotest.(check bool) "no coupling once neighbour electrical" true
    (Float.abs (losses'.(0) -. Loss.propagation params 4.0) < 1e-9)

let test_all_electrical_feasible () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  let choice = Selection.all_electrical ctx in
  Alcotest.(check bool) "feasible" true (Selection.feasible ctx choice);
  Alcotest.(check (float 1e-9)) "no violation" 0.0
    (Float.max 0.0 (Selection.worst_violation ctx choice))

let test_greedy_picks_cheapest () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  let choice = Selection.greedy ctx in
  (* long 8-bit nets: optical (index 0) is cheaper per net *)
  Alcotest.(check (array int)) "both optical" [| 0; 0 |] choice

let test_polish_feasible_and_no_worse () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  let start = Selection.greedy ctx in
  let out = Selection.polish ctx start in
  Alcotest.(check bool) "feasible" true (Selection.feasible ctx out);
  Alcotest.(check bool) "no worse than all-electrical" true
    (Selection.power ctx out <= Selection.power ctx (Selection.all_electrical ctx) +. 1e-9)

(* Force a conflict: shrink the loss budget so that exactly one of the two
   crossing nets can be optical. *)
let conflict_params =
  { params with
    Params.l_max = Loss.propagation params 4.0 +. (0.5 *. Loss.crossing_bundled params 1) }

let test_ilp_resolves_conflict () =
  let ctx = Selection.make_ctx conflict_params (crossing_pair ()) in
  let r = Ilp_select.select ~budget_seconds:30.0 ctx in
  Alcotest.(check bool) "feasible" true (Selection.feasible ctx r.Ilp_select.choice);
  Alcotest.(check bool) "proven" true r.Ilp_select.proven;
  (* exactly one optical, one electrical *)
  let opticals =
    Array.fold_left (fun acc j -> if j = 0 then acc + 1 else acc) 0 r.Ilp_select.choice
  in
  Alcotest.(check int) "one optical" 1 opticals

let test_ilp_no_conflict_both_optical () =
  let ctx = Selection.make_ctx params (parallel_pair ()) in
  let r = Ilp_select.select ~budget_seconds:30.0 ctx in
  Alcotest.(check (array int)) "both optical" [| 0; 0 |] r.Ilp_select.choice;
  Alcotest.(check int) "two singleton components" 2 r.Ilp_select.components

let test_ilp_power_not_above_lr () =
  (* On a shared context with a generous budget, the exact ILP must not
     lose to the heuristic LR. *)
  let ctx = Selection.make_ctx conflict_params (crossing_pair ()) in
  let ilp = Ilp_select.select ~budget_seconds:30.0 ctx in
  let lr = Lr_select.select ctx in
  Alcotest.(check bool) "ilp <= lr" true
    (ilp.Ilp_select.power <= lr.Lr_select.power +. 1e-6)

let test_lr_feasible_conflict () =
  let ctx = Selection.make_ctx conflict_params (crossing_pair ()) in
  let r = Lr_select.select ctx in
  Alcotest.(check bool) "feasible after repair" true
    (Selection.feasible ctx r.Lr_select.choice);
  Alcotest.(check bool) "iterations within paper cap" true (r.Lr_select.iterations <= 10)

let test_lr_improves_over_all_electrical () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  let r = Lr_select.select ctx in
  let all_e = Selection.power ctx (Selection.all_electrical ctx) in
  Alcotest.(check bool) "beats all-electrical" true (r.Lr_select.power < all_e)

let test_lr_respects_max_iterations () =
  let ctx = Selection.make_ctx conflict_params (crossing_pair ()) in
  let r = Lr_select.select ~max_iterations:1 ctx in
  Alcotest.(check int) "one iteration" 1 r.Lr_select.iterations;
  Alcotest.(check bool) "still feasible" true (Selection.feasible ctx r.Lr_select.choice)

(* A chain of many crossing nets: both engines stay feasible, ILP <= LR. *)
let star_of_nets n =
  Array.init n (fun i ->
      let angle = Float.pi *. float_of_int i /. float_of_int n in
      let dx = 2.0 *. cos angle and dy = 2.0 *. sin angle in
      simple_cands ~bits:(4 + (i mod 8)) i
        (p (2.0 -. dx) (2.0 -. dy))
        (p (2.0 +. dx) (2.0 +. dy)))

let test_star_engines_consistent () =
  let nets = star_of_nets 7 in
  let ctx = Selection.make_ctx params nets in
  let ilp = Ilp_select.select ~budget_seconds:60.0 ctx in
  let lr = Lr_select.select ctx in
  Alcotest.(check bool) "ilp feasible" true (Selection.feasible ctx ilp.Ilp_select.choice);
  Alcotest.(check bool) "lr feasible" true (Selection.feasible ctx lr.Lr_select.choice);
  Alcotest.(check bool) "ilp <= lr + eps" true
    (ilp.Ilp_select.power <= lr.Lr_select.power +. 1e-6)

(* Golden core parity: the dense tableau and the sparse revised simplex
   must produce bit-identical selections end-to-end, at any worker
   count — the invariant the ILP redesign is required to preserve. *)
let test_core_parity () =
  let designs =
    [ ("tiny", Operon_benchgen.Cases.tiny ());
      ("small", Operon_benchgen.Cases.small ()) ]
  in
  List.iter
    (fun (name, design) ->
      let run core jobs =
        Flow.synthesize
          (Flow.Config.make ~mode:Flow.Ilp ~ilp_budget:60.0 ~jobs
             ~solver_core:core params)
          design
      in
      let reference = run Operon_solver.Solver.Sparse 1 in
      List.iter
        (fun (core, jobs) ->
          let r = run core jobs in
          let label =
            Printf.sprintf "%s: %s core, %d jobs" name
              (Operon_solver.Solver.core_name core) jobs
          in
          Alcotest.(check (array int)) (label ^ ": choice") reference.Flow.choice
            r.Flow.choice;
          Alcotest.(check (float 0.0)) (label ^ ": power") reference.Flow.power
            r.Flow.power)
        [ (Operon_solver.Solver.Sparse, 4);
          (Operon_solver.Solver.Dense, 1);
          (Operon_solver.Solver.Dense, 4) ])
    designs

(* Block descent, pinned to the selections of the descent that solved
   every block in both passes. [max_component_vars = 20] forces descent
   on small and on I1/I4 at a third of their signal groups: plain, under
   a synthetic thermal map at weight 1, and with each node LP capped at
   20 pivots, so that some block solves end unproven. [blocks] (solved,
   skipped) pins the re-solve rule itself: every choice here stays the
   same if the rule looks one hop out instead of two (two blocks of
   I4/3+thermal are then wrongly skipped), or if it skips unproven blocks
   (small+pivots20 then skips two). [lp] pins the LP work of the blocks
   solved exactly — branch-and-bound nodes, LP solves, simplex pivots
   and basis refactorizations: block programs and their LPs are
   deterministic pivot for pivot, so any change to how a program is
   built or factorized shows here. A guard-term cache that misses an
   invalidation when adoption moves a net or a neighbour changes
   I1/3+thermal's pivots (and its choice). *)
type descent_case = {
  name : string;
  lp : int * int * int * int;  (** nodes, LP solves, pivots, refactorizations *)
  blocks : int * int;
  choice : int array;
}

let descent_cases =
  [
    { name = "small";
      lp = (2, 2, 43, 0);
      blocks = (2, 2);
      choice =
        [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |] };
    { name = "small+thermal";
      lp = (2, 2, 59, 0);
      blocks = (2, 2);
      choice =
        [| 2; 0; 1; 2; 2; 6; 2; 3; 1; 0; 2; 3 |] };
    { name = "small+pivots20";
      lp = (4, 4, 80, 0);
      blocks = (4, 0);
      choice =
        [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |] };
    { name = "I1/3";
      lp = (20, 20, 436, 0);
      blocks = (20, 20);
      choice =
        [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0 |] };
    { name = "I1/3+thermal";
      lp = (57, 57, 1758, 2);
      blocks = (33, 7);
      choice =
        [| 0; 3; 3; 0; 0; 3; 0; 0; 0; 2; 3; 0; 1; 10; 3; 0; 0; 0; 3; 0; 0; 0;
           2; 2; 1; 3; 0; 4; 0; 4; 3; 0; 2; 0; 3; 0; 3; 3; 3; 4; 0; 3; 0; 1;
           3; 2; 1; 2; 0; 0; 2; 1; 0; 4; 4; 2; 0; 3; 0; 2; 0; 0; 2; 4; 0; 0;
           0; 2; 3; 2; 0; 0; 4; 0; 2; 2; 1; 2; 0; 0; 3; 0; 2; 2; 0; 2; 3; 4;
           0; 0; 3; 0; 4; 3; 0; 2; 0; 3; 0; 3; 0; 0; 0; 3; 0; 0; 0; 0; 1; 3;
           2; 2; 4; 0; 4; 0; 0; 0 |] };
    { name = "I1/3+pivots20";
      lp = (30, 30, 548, 0);
      blocks = (30, 10);
      choice =
        [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0 |] };
    { name = "I4/3";
      lp = (23, 23, 474, 0);
      blocks = (23, 23);
      choice =
        [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0 |] };
    { name = "I4/3+thermal";
      lp = (276, 276, 3033, 5);
      blocks = (46, 0);
      choice =
        [| 3; 6; 0; 3; 0; 0; 0; 0; 4; 2; 4; 0; 2; 0; 1; 0; 3; 1; 7; 2; 2; 2;
           1; 3; 1; 1; 0; 0; 2; 2; 0; 0; 2; 4; 3; 0; 2; 0; 2; 3; 1; 7; 4; 0;
           0; 0; 4; 1; 3; 0; 3; 0; 2; 0; 1; 2; 2; 0; 2; 2; 0; 0; 0; 0; 0; 2;
           4; 4; 2; 0; 1; 3; 2; 0; 0; 4; 2; 3; 1; 0; 3; 0; 2; 0; 0; 3; 0; 3;
           1; 2; 0; 3; 3; 2; 3; 3; 0; 2; 0; 2; 3; 2; 4; 2; 4; 4; 3; 0; 2; 1;
           0; 3; 2; 3; 2; 0; 0; 1; 4; 2; 0; 3; 0; 1; 3; 0; 3; 3; 4; 3; 3; 1;
           0; 0 |] };
    { name = "I4/3+pivots20";
      lp = (33, 33, 603, 0);
      blocks = (33, 13);
      choice =
        [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0 |] };
  ]

let test_block_descent_pinned () =
  let open Operon_benchgen in
  let third (spec : Gen.spec) =
    Gen.generate { spec with Gen.n_groups = Stdlib.max 1 (spec.Gen.n_groups / 3) }
  in
  let runs =
    List.concat_map
      (fun (name, design) ->
        let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
        let map =
          Operon_thermal.Thermal_map.synthetic ~hotspots:4 ~amplitude:30.0 ~decay:0.2
            ~die:design.Signal.die (Operon_util.Prng.create 7)
        in
        let hot =
          Selection.with_thermal ctx (Selection.thermal_profile ctx map) ~weight:1.0
        in
        [ (name, (ctx, None));
          (name ^ "+thermal", (hot, None));
          (name ^ "+pivots20", (ctx, Some 20)) ])
      [ ("small", Cases.small ()); ("I1/3", third Cases.i1); ("I4/3", third Cases.i4) ]
  in
  List.iter
    (fun c ->
      let ctx, max_pivots = List.assoc c.name runs in
      let r =
        Ilp_select.select ~budget_seconds:1e6 ?max_pivots ~max_component_vars:20 ctx
      in
      Alcotest.(check bool) (c.name ^ ": descended") true (r.Ilp_select.timed_out > 0);
      Alcotest.(check (array int)) (c.name ^ ": choice") c.choice r.Ilp_select.choice;
      Alcotest.(check (pair (pair int int) (pair int int)))
        (c.name ^ ": nodes, LP solves, pivots, refactorizations")
        (let n, l, p, f = c.lp in ((n, l), (p, f)))
        ( (r.Ilp_select.nodes, r.Ilp_select.lp_solves),
          (r.Ilp_select.pivots, r.Ilp_select.refactorizations) );
      Alcotest.(check (pair int int))
        (c.name ^ ": blocks solved, skipped") c.blocks
        (r.Ilp_select.blocks_solved, r.Ilp_select.blocks_skipped))
    descent_cases

(* Lagrangian relaxation, pinned to the results recorded before LR
   re-selection read the crossing table by neighbour slot. Runs small and
   I1/I4 at a third of their signal groups, plain and under a synthetic
   thermal map at weight 1, each on the cached and the direct matrix with
   the table built by one and by four workers. The cached = uncached
   parity tests cannot see a change of summation order (both modes would
   change together); these literals see any such change that moves a
   choice, [power] or [final_violation], the last two compared bit for
   bit. *)
type lr_case = {
  lr_name : string;
  lr_power : float;
  lr_iterations : int;
  lr_demoted : int;
  lr_final_violation : float;
  lr_choice : int array;
}

let lr_cases =
  [
    { lr_name = "small";
      lr_power = 0x1.e374bc6a7ef9ep+3;
      lr_iterations = 3;
      lr_demoted = 0;
      lr_final_violation = 0x0p+0;
      lr_choice =
        [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |] };
    { lr_name = "small+thermal";
      lr_power = 0x1.e3ae7e4dfc45ep+3;
      lr_iterations = 3;
      lr_demoted = 0;
      lr_final_violation = 0x0p+0;
      lr_choice =
        [| 2; 0; 1; 2; 2; 6; 2; 3; 1; 0; 2; 3 |] };
    { lr_name = "I1/3";
      lr_power = 0x1.4cbc22bf708c9p+7;
      lr_iterations = 4;
      lr_demoted = 0;
      lr_final_violation = 0x0p+0;
      lr_choice =
        [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0 |] };
    { lr_name = "I1/3+thermal";
      lr_power = 0x1.8ea7c4c586b98p+7;
      lr_iterations = 8;
      lr_demoted = 7;
      lr_final_violation = 0x1.2a84caf82b1ep-1;
      lr_choice =
        [| 0; 10; 0; 0; 0; 3; 0; 0; 0; 2; 3; 0; 1; 0; 3; 0; 0; 0; 3; 0; 0; 0;
           2; 2; 0; 0; 0; 4; 0; 4; 3; 0; 2; 0; 3; 0; 0; 3; 3; 4; 0; 3; 0; 1;
           3; 2; 1; 2; 0; 0; 2; 1; 0; 4; 4; 0; 0; 0; 3; 0; 0; 0; 2; 4; 0; 0;
           0; 2; 2; 2; 0; 0; 4; 0; 2; 0; 1; 2; 0; 2; 3; 0; 2; 0; 0; 2; 2; 3;
           0; 0; 3; 0; 4; 0; 1; 2; 0; 0; 0; 3; 0; 0; 0; 1; 1; 0; 0; 0; 1; 3;
           0; 2; 4; 0; 3; 0; 1; 0 |] };
    { lr_name = "I4/3";
      lr_power = 0x1.954c6217fc7ddp+7;
      lr_iterations = 3;
      lr_demoted = 0;
      lr_final_violation = 0x0p+0;
      lr_choice =
        [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
           0; 0 |] };
    { lr_name = "I4/3+thermal";
      lr_power = 0x1.0bd9895677c35p+9;
      lr_iterations = 10;
      lr_demoted = 33;
      lr_final_violation = 0x1.5960a6b685e9p+1;
      lr_choice =
        [| 10; 3; 0; 5; 10; 0; 0; 0; 10; 10; 8; 0; 4; 0; 2; 2; 6; 2; 4; 2; 2; 9;
           4; 7; 0; 1; 0; 3; 4; 2; 0; 5; 4; 0; 7; 7; 3; 0; 3; 7; 4; 2; 9; 3;
           0; 0; 7; 1; 3; 0; 3; 3; 3; 2; 1; 4; 7; 0; 3; 3; 0; 0; 0; 0; 5; 2;
           7; 0; 4; 0; 2; 9; 2; 0; 0; 4; 8; 8; 2; 1; 6; 4; 4; 0; 3; 7; 0; 3;
           2; 2; 0; 3; 6; 4; 8; 1; 0; 2; 0; 3; 5; 2; 7; 3; 4; 9; 6; 0; 2; 2;
           0; 3; 2; 5; 4; 3; 0; 3; 4; 2; 0; 4; 0; 1; 4; 0; 6; 7; 4; 4; 9; 7;
           0; 0 |] };
  ]

let test_lr_pinned () =
  let open Operon_benchgen in
  let third (spec : Gen.spec) =
    Gen.generate { spec with Gen.n_groups = Stdlib.max 1 (spec.Gen.n_groups / 3) }
  in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (name, design) ->
      let map =
        Operon_thermal.Thermal_map.synthetic ~hotspots:4 ~amplitude:30.0 ~decay:0.2
          ~die:design.Signal.die (Operon_util.Prng.create 7)
      in
      List.iter
        (fun jobs ->
          let _, ctx =
            Flow.prepare_with
              (Flow.Config.with_jobs jobs (Flow.Config.default params))
              design
          in
          let hot =
            Selection.with_thermal ctx (Selection.thermal_profile ctx map) ~weight:1.0
          in
          List.iter
            (fun (variant, ctx) ->
              let c = List.find (fun c -> c.lr_name = variant) lr_cases in
              List.iter
                (fun (mode, ctx) ->
                  let tag = Printf.sprintf "%s jobs=%d %s" variant jobs mode in
                  let r = Lr_select.select ctx in
                  Alcotest.(check (array int)) (tag ^ ": choice") c.lr_choice
                    r.Lr_select.choice;
                  Alcotest.(check int64) (tag ^ ": power bits") (bits c.lr_power)
                    (bits r.Lr_select.power);
                  Alcotest.(check int) (tag ^ ": iterations") c.lr_iterations
                    r.Lr_select.iterations;
                  Alcotest.(check int) (tag ^ ": demoted") c.lr_demoted r.Lr_select.demoted;
                  Alcotest.(check int64) (tag ^ ": final_violation bits")
                    (bits c.lr_final_violation) (bits r.Lr_select.final_violation))
                [ ("cached", ctx); ("direct", Selection.uncached ctx) ])
            [ (name, ctx); (name ^ "+thermal", hot) ])
        [ 1; 4 ])
    [ ("small", Cases.small ()); ("I1/3", third Cases.i1); ("I4/3", third Cases.i4) ]

let prop_engines_feasible_random =
  QCheck.Test.make ~name:"both engines feasible on random scenes" ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Operon_util.Prng.create seed in
      let n = 3 + Operon_util.Prng.int rng 5 in
      let nets =
        Array.init n (fun i ->
            let a = p (Operon_util.Prng.float rng 4.0) (Operon_util.Prng.float rng 4.0) in
            let b = p (Operon_util.Prng.float rng 4.0) (Operon_util.Prng.float rng 4.0) in
            let b = if Point.l2 a b < 0.1 then Point.add b (p 0.5 0.5) else b in
            simple_cands ~bits:(1 + Operon_util.Prng.int rng 31) i a b)
      in
      let ctx = Selection.make_ctx params nets in
      let ilp = Ilp_select.select ~budget_seconds:10.0 ctx in
      let lr = Lr_select.select ctx in
      Selection.feasible ctx ilp.Ilp_select.choice
      && Selection.feasible ctx lr.Lr_select.choice
      && ilp.Ilp_select.power <= Selection.power ctx (Selection.all_electrical ctx) +. 1e-6)

let () =
  Alcotest.run "selection"
    [ ( "ctx",
        [ Alcotest.test_case "structure" `Quick test_ctx_structure;
          Alcotest.test_case "parallel no neighbors" `Quick test_ctx_parallel_nets_no_neighbors;
          Alcotest.test_case "requires fallback" `Quick test_ctx_requires_fallback;
          Alcotest.test_case "path losses with coupling" `Quick test_path_losses_include_crossing;
          Alcotest.test_case "all-electrical feasible" `Quick test_all_electrical_feasible;
          Alcotest.test_case "greedy cheapest" `Quick test_greedy_picks_cheapest;
          Alcotest.test_case "polish" `Quick test_polish_feasible_and_no_worse ] );
      ( "ilp",
        [ Alcotest.test_case "resolves conflict" `Quick test_ilp_resolves_conflict;
          Alcotest.test_case "no conflict both optical" `Quick test_ilp_no_conflict_both_optical;
          Alcotest.test_case "not above lr" `Quick test_ilp_power_not_above_lr ] );
      ( "lr",
        [ Alcotest.test_case "feasible conflict" `Quick test_lr_feasible_conflict;
          Alcotest.test_case "improves over electrical" `Quick test_lr_improves_over_all_electrical;
          Alcotest.test_case "max iterations" `Quick test_lr_respects_max_iterations ] );
      ( "engines",
        [ Alcotest.test_case "star consistent" `Quick test_star_engines_consistent;
          Alcotest.test_case "core parity" `Quick test_core_parity;
          Alcotest.test_case "block descent pinned" `Quick test_block_descent_pinned;
          Alcotest.test_case "lr pinned" `Quick test_lr_pinned;
          QCheck_alcotest.to_alcotest prop_engines_feasible_random ] ) ]
