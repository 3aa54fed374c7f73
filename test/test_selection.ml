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

(* A frozen neighbour's path that one crossing would push over [l_max],
   and a block net whose cheapest candidate makes that crossing: the
   guard row of that path must be built and must bind. M runs from (0, 2)
   to (4, 2) at [l_max] less half a crossing; I, from (2.5, 1) to
   (2.5, 3), crosses it and H; H, from (0, 2.4) to (3, 2.4), crosses I
   and four short verticals V. Every net has an optical and an
   electrical candidate. By box centre the descent's blocks are
   [V V V V H M] and [I], so M is frozen optical while I's block is
   solved, from a start with I electrical. With M's guard row I must stay
   electrical. Were the row left out, I would go optical and M would
   break; the final [polish] would then demote M, the first violator, and
   return a feasible selection that differs from the pinned one. *)
let test_ilp_guard_row_binds () =
  let nets =
    [| simple_cands 0 (p 0.0 2.0) (p 4.0 2.0);
       simple_cands 1 (p 2.5 1.0) (p 2.5 3.0);
       simple_cands 2 (p 0.0 2.4) (p 3.0 2.4);
       simple_cands 3 (p 0.2 2.2) (p 0.2 2.6);
       simple_cands 4 (p 0.4 2.2) (p 0.4 2.6);
       simple_cands 5 (p 0.6 2.2) (p 0.6 2.6);
       simple_cands 6 (p 0.8 2.2) (p 0.8 2.6) |]
  in
  let ctx = Selection.make_ctx conflict_params nets in
  Alcotest.(check (array int)) "M crosses I only" [| 1 |] ctx.Selection.neighbors.(0);
  let cheaper i = Selection.objective ctx i 0 < Selection.objective ctx i 1 in
  Alcotest.(check bool) "I is cheaper optical" true (cheaper 1);
  let r =
    Ilp_select.select ~budget_seconds:1e6 ~max_component_vars:4
      ~initial:[| 0; 1; 0; 0; 0; 0; 0 |] ctx
  in
  Alcotest.(check bool) "descended" true (r.Ilp_select.timed_out > 0);
  Alcotest.(check bool) "guard row built" true (r.Ilp_select.guard_rows > 0);
  Alcotest.(check (array int)) "choice" [| 0; 1; 0; 0; 0; 0; 0 |] r.Ilp_select.choice

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
      lp = (288, 288, 3040, 5);
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

(* A random scene: 3 to 7 straight two-pin nets in a 4 x 4 box, each
   with an optical and an electrical candidate. With [ties], every third
   net lists its optical candidate twice, so that its two optical
   candidates tie on every objective. *)
let random_scene ?(ties = false) seed =
  let rng = Operon_util.Prng.create seed in
  let n = 3 + Operon_util.Prng.int rng 5 in
  Array.init n (fun i ->
      let a = p (Operon_util.Prng.float rng 4.0) (Operon_util.Prng.float rng 4.0) in
      let b = p (Operon_util.Prng.float rng 4.0) (Operon_util.Prng.float rng 4.0) in
      let b = if Point.l2 a b < 0.1 then Point.add b (p 0.5 0.5) else b in
      let cands = simple_cands ~bits:(1 + Operon_util.Prng.int rng 31) i a b in
      if ties && i mod 3 = 0 then List.hd cands :: cands else cands)

let prop_engines_feasible_random =
  QCheck.Test.make ~name:"both engines feasible on random scenes" ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let ctx = Selection.make_ctx params (random_scene seed) in
      let ilp = Ilp_select.select ~budget_seconds:10.0 ctx in
      let lr = Lr_select.select ctx in
      Selection.feasible ctx ilp.Ilp_select.choice
      && Selection.feasible ctx lr.Lr_select.choice
      && ilp.Ilp_select.power <= Selection.power ctx (Selection.all_electrical ctx) +. 1e-6)

(* The LR selector as it stood before re-selection read only live
   multipliers: every (net, neighbour, candidate) crossing entry in every
   iteration, one read per candidate, the final violation and repairs
   from fresh evaluations. Kept verbatim as the reference of the
   property below, but for the one reader it used that no longer exists:
   [add_weighted] is rebuilt from the raw counts of [m]'s row, read
   through the mirror slot, with the same floating-point operations. *)
module Dense_lr = struct
  open Operon_optical
  open Operon_util

  type result = {
    choice : int array;
    power : float;
    iterations : int;
    final_violation : float;
    demoted : int;
    elapsed : float;
  }

  let add_weighted xmat params ~i ~k ~j ~m ~n w acc idx =
    let km = if Xmatrix.enabled xmat then Xmatrix.mirror xmat ~i ~k else 0 in
    Array.iteri
      (fun q c ->
        if c > 0 then acc.(idx) <- acc.(idx) +. (w.(q) *. Loss.crossing_bundled params c))
      (Xmatrix.slot_counts xmat ~i:m ~k:km ~j:n ~m:i ~n:j)

  let select ?(max_iterations = 10) ?(budget_seconds = 0.0)
      ?(initial_multiplier_scale = 0.01) ?(step_scale = 0.05)
      ?(converge_ratio = 0.01) ?initial ctx =
    let t0 = Timer.now () in
    let budget = Timer.budget budget_seconds in
    let l_max = ctx.Selection.params.Params.l_max in
    let n = Array.length ctx.Selection.cands in
    let xmat = ctx.Selection.xmat in
    let thermal = ctx.Selection.thermal in
    (* One multiplier per (net, candidate, path) — the paths P(Hsol) of
       Formula (4). Initialised proportional to each net's electrical
       power, as Algorithm 1 line 1 prescribes. *)
    let lambda =
      Array.init n (fun i ->
          let pe = ctx.Selection.cands.(i).(ctx.Selection.elec_idx.(i)).Candidate.power in
          Array.map
            (fun (c : Candidate.t) ->
              Array.make (Array.length c.Candidate.paths) (initial_multiplier_scale *. pe))
            ctx.Selection.cands.(i))
    in
    (* Warm start (ECO): a sanitized previous selection replaces the greedy
       start when it is still feasible under this context; an infeasible or
       unmappable one falls back to the cold start, so warm starting can
       never degrade below the cold behaviour. *)
    let start =
      match Option.map (Selection.sanitize_initial ctx) initial with
      | Some (Some w) when Selection.feasible ctx w -> w
      | _ -> Selection.greedy ctx
    in
    let choice = ref start in
    (* Persistent incremental evaluator: across subgradient iterations only
       the nets whose selection actually flipped (plus their neighbours)
       get their path losses re-derived. *)
    let ev = Selection.Eval.create ctx !choice in
    let prev_power = ref (Selection.power ctx !choice) in
    let prev_violation = ref infinity in
    (* The subgradient iterates are not monotone; keep the best feasible
       selection seen along the way. *)
    let best_feasible = ref None in
    let consider feasible candidate =
      if feasible then begin
        let obj = Selection.total_objective ctx candidate in
        match !best_feasible with
        | Some (best_obj, _) when best_obj <= obj -> ()
        | _ -> best_feasible := Some (obj, Array.copy candidate)
      end
    in
    (* Re-selection scratch, sized to the largest net: [cross] holds the
       crossing loss of every path of every candidate of the net under
       re-selection, candidate [j]'s paths from [base.(i).(j)] on;
       [foreign.(j)] the multiplier-weighted loss candidate [j] puts on the
       neighbours' previously selected paths. *)
    let cands = ctx.Selection.cands and neighbors = ctx.Selection.neighbors in
    let bundled = ctx.Selection.bundled in
    let base =
      Array.map
        (fun (arr : Candidate.t array) ->
          let b = Array.make (Array.length arr + 1) 0 in
          Array.iteri
            (fun j (c : Candidate.t) -> b.(j + 1) <- b.(j) + Array.length c.Candidate.paths)
            arr;
          b)
        cands
    in
    let largest f = Array.fold_left (fun acc x -> Stdlib.max acc (f x)) 0 in
    let cross = Array.make (largest (fun b -> b.(Array.length b - 1)) base) 0.0 in
    let foreign = Array.make (largest Array.length cands) 0.0 in
    let iterations = ref 0 in
    let converged = ref false in
    while (not !converged) && !iterations < max_iterations && not (Timer.expired budget) do
      incr iterations;
      let prev = Array.copy !choice in
      (* Candidate re-selection with the relaxed weighted objective, the
         crossing terms linearized around [prev] (Eq. 5). Neighbours are
         the outer loop, and one read per (neighbour, candidate) serves
         all of the candidate's paths; every sum still runs over the
         neighbours in order from +0.0. *)
      let next = Array.make n 0 in
      for i = 0 to n - 1 do
        let cs = cands.(i) and off = base.(i) in
        let nc = Array.length cs in
        Array.fill cross 0 off.(nc) 0.0;
        Array.fill foreign 0 nc 0.0;
        let nbrs = neighbors.(i) in
        for k = 0 to Array.length nbrs - 1 do
          let m = nbrs.(k) in
          let sel = prev.(m) in
          (* Own paths against the neighbour's previous selection (the
             a'_mn * a_ij half of Eq. 5)... *)
          for j = 0 to nc - 1 do
            if off.(j + 1) > off.(j) then
              Xmatrix.add_losses xmat bundled ~i ~k ~j ~m ~n:sel cross off.(j)
          done;
          (* ...and the crossings picking (i, j) adds onto that selection's
             paths (the a_mn * a'_ij half). *)
          let w = lambda.(m).(sel) in
          if Array.length w > 0 then
            for j = 0 to nc - 1 do
              add_weighted xmat ctx.Selection.params ~i ~k ~j ~m ~n:sel w foreign j
            done
        done;
        let best = ref 0 and best_w = ref infinity in
        for j = 0 to nc - 1 do
          (* Multiplier-weighted loss of the candidate's own paths. *)
          let paths = cs.(j).Candidate.paths and mult = lambda.(i).(j) in
          let own = ref 0.0 in
          for p = 0 to Array.length paths - 1 do
            let intrinsic = paths.(p).Candidate.intrinsic_loss in
            let crossing = cross.(off.(j) + p) in
            let path_loss =
              match thermal with
              | None -> intrinsic +. crossing
              | Some t -> intrinsic +. crossing +. t.Selection.penalty.(i).(j).(p)
            in
            own := !own +. (mult.(p) *. path_loss)
          done;
          let w = Selection.objective ctx i j +. !own +. foreign.(j) in
          if w < !best_w then begin
            best_w := w;
            best := j
          end
        done;
        next.(i) <- !best
      done;
      choice := next;
      Array.iteri (fun i j -> Selection.Eval.set ev i j) next;
      (* Subgradient step on every multiplier. A path of the selected
         candidate sees its actual loss; a path of an unselected candidate
         has LHS = 0 in constraint (3c), so its subgradient is -l_max and
         its multiplier decays — without this, an inflated initial
         multiplier would repel a perfectly feasible candidate forever. *)
      let step = step_scale /. float_of_int !iterations in
      let total_violation = ref 0.0 in
      for i = 0 to n - 1 do
        let j = next.(i) in
        let losses = Selection.Eval.losses ev i in
        Array.iteri
          (fun j' paths ->
            Array.iteri
              (fun p mult ->
                let v = if j' = j then losses.(p) -. l_max else -.l_max in
                if v > 0.0 then total_violation := !total_violation +. v;
                paths.(p) <- Float.max 0.0 (mult +. (step *. v)))
              paths)
          lambda.(i)
      done;
      (* Track the best answer this iterate yields once its violations are
         repaired away (repair is a no-op on feasible iterates). *)
      if !total_violation <= 0.0 then consider (Selection.Eval.feasible ev) next
      else begin
        let repaired = Selection.polish ~rounds:0 ctx next in
        consider (Selection.feasible ctx repaired) repaired
      end;
      let power = Selection.total_objective ctx next in
      let power_stable =
        Float.abs (power -. !prev_power) <= converge_ratio *. Float.max power 1e-9
      in
      let violation_stable =
        Float.abs (!total_violation -. !prev_violation)
        <= converge_ratio *. Float.max !total_violation 1e-9
      in
      if power_stable && violation_stable then converged := true;
      prev_power := power;
      prev_violation := !total_violation
    done;
    let final_violation = Float.max 0.0 (Selection.worst_violation ctx !choice) in
    (* Repair only (rounds=0): any net still on a violated path falls back
       to electrical wires, as the paper's residual-net handling does. *)
    let repaired = Selection.polish ~rounds:0 ctx !choice in
    let demoted =
      let count = ref 0 in
      Array.iteri (fun i j -> if j <> !choice.(i) then incr count) repaired;
      !count
    in
    (* Return the better of the final repaired iterate and the best
       feasible iterate seen during the subgradient loop. *)
    let repaired =
      match !best_feasible with
      | Some (best_obj, best)
        when best_obj < Selection.total_objective ctx repaired -> best
      | _ -> repaired
    in
    { choice = repaired;
      power = Selection.power ctx repaired;
      iterations = !iterations;
      final_violation;
      demoted;
      elapsed = Timer.now () -. t0 }
end

(* Re-selection that skips every term whose multipliers are all zero is
   exact: on random scenes (some with tied candidates, some under a
   budget tight enough that crossings violate it) and on small (at its
   own budget and at a random tighter one), with every multiplier scale
   from none to large, several step sizes including none and a negative
   one, 1 to 10 iterations, with and without a thermal profile at a
   random weight and a random warm start, on the cached and the direct
   matrix, the result equals the reference's field for field, floats by
   their bits. *)
let small_ctx =
  lazy
    (let design = Operon_benchgen.Cases.small () in
     let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
     (ctx, design.Signal.die))

let prop_sparse_lr_exact =
  QCheck.Test.make ~name:"sparse LR = dense LR, bit for bit" ~count:1000
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Operon_util.Prng.create seed in
      let pick l = List.nth l (Operon_util.Prng.int rng (List.length l)) in
      let ctx, die =
        match Operon_util.Prng.int rng 5 with
        | 0 | 1 ->
            (* Small's candidates have several paths each; a tight budget
               violates some paths of a candidate and not others. *)
            let ctx, die = Lazy.force small_ctx in
            let own = ctx.Selection.params in
            let l_max = pick [ own.Params.l_max; 4.0 +. Operon_util.Prng.float rng 16.0 ] in
            ({ ctx with Selection.params = { own with Params.l_max } }, die)
        | scene ->
            let budget = if scene = 3 then conflict_params else params in
            ( Selection.make_ctx budget (random_scene ~ties:(scene = 4) seed),
              Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:5.0 ~ymax:5.0 )
      in
      let ctx =
        if Operon_util.Prng.int rng 2 = 0 then ctx
        else
          let map =
            Operon_thermal.Thermal_map.synthetic ~hotspots:3 ~amplitude:40.0 ~decay:0.2
              ~die (Operon_util.Prng.create (1 + seed))
          in
          Selection.with_thermal ctx (Selection.thermal_profile ctx map)
            ~weight:(pick [ 0.0; Operon_util.Prng.float rng 3.0 ])
      in
      let ctx = if Operon_util.Prng.int rng 2 = 0 then ctx else Selection.uncached ctx in
      let initial =
        if Operon_util.Prng.int rng 2 = 0 then None
        else
          Some
            (Array.map
               (fun cs -> Operon_util.Prng.int rng (Array.length cs + 1) - 1)
               ctx.Selection.cands)
      in
      let initial_multiplier_scale = pick [ 0.0; 1e-6; 0.01; 1.0 ] in
      let step_scale = pick [ 0.0; 0.01; 0.05; 0.5; -0.05 ] in
      let max_iterations = 1 + Operon_util.Prng.int rng 10 in
      let r =
        Lr_select.select ~max_iterations ~initial_multiplier_scale ~step_scale ?initial ctx
      in
      let d =
        Dense_lr.select ~max_iterations ~initial_multiplier_scale ~step_scale ?initial ctx
      in
      let bits = Int64.bits_of_float in
      r.Lr_select.choice = d.Dense_lr.choice
      && r.Lr_select.iterations = d.Dense_lr.iterations
      && r.Lr_select.demoted = d.Dense_lr.demoted
      && bits r.Lr_select.power = bits d.Dense_lr.power
      && bits r.Lr_select.final_violation = bits d.Dense_lr.final_violation)

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
          Alcotest.test_case "not above lr" `Quick test_ilp_power_not_above_lr;
          Alcotest.test_case "guard row binds" `Quick test_ilp_guard_row_binds ] );
      ( "lr",
        [ Alcotest.test_case "feasible conflict" `Quick test_lr_feasible_conflict;
          Alcotest.test_case "improves over electrical" `Quick test_lr_improves_over_all_electrical;
          Alcotest.test_case "max iterations" `Quick test_lr_respects_max_iterations ] );
      ( "engines",
        [ Alcotest.test_case "star consistent" `Quick test_star_engines_consistent;
          Alcotest.test_case "core parity" `Quick test_core_parity;
          Alcotest.test_case "block descent pinned" `Quick test_block_descent_pinned;
          Alcotest.test_case "lr pinned" `Quick test_lr_pinned;
          QCheck_alcotest.to_alcotest prop_engines_feasible_random;
          QCheck_alcotest.to_alcotest prop_sparse_lr_exact ] ) ]
