(* Tests for the crossing-matrix cache and the incremental evaluator:
   unit checks of Xmatrix against the raw geometry, property-style
   parity over Benchgen random designs (cached and uncached reads must
   be bit-identical through net_path_losses / worst_violation / the
   final LR and ILP choices, sequential and jobs=4), and the
   incremental-vs-full recompute equivalence of Selection.Eval. *)

open Operon_geom
open Operon_optical
open Operon_util
open Operon
open Operon_benchgen

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

(* ------------------------------------------------------------------ *)
(* Xmatrix unit tests                                                 *)
(* ------------------------------------------------------------------ *)

(* Every (i,j,m,n) over actual neighbour pairs: the cached per-path
   counts equal a from-scratch Segment.count_crossings. *)
let check_counts_against_geometry ctx =
  let xmat = ctx.Selection.xmat in
  Array.iteri
    (fun i ms ->
      Array.iter
        (fun m ->
          Array.iteri
            (fun j (c : Candidate.t) ->
              Array.iteri
                (fun n (other : Candidate.t) ->
                  let got = Xmatrix.path_counts xmat ~i ~j ~m ~n in
                  let want =
                    Array.map
                      (fun (path : Candidate.path) ->
                        Segment.count_crossings path.Candidate.segments
                          other.Candidate.opt_segments)
                      c.Candidate.paths
                  in
                  Alcotest.(check (array int))
                    (Printf.sprintf "counts (%d,%d)x(%d,%d)" i j m n)
                    want got)
                ctx.Selection.cands.(m))
            ctx.Selection.cands.(i))
        ms)
    ctx.Selection.neighbors

let test_counts_match_geometry () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  Alcotest.(check bool) "cache built" true (Xmatrix.enabled ctx.Selection.xmat);
  check_counts_against_geometry ctx

let test_loss_matches_candidate_formula () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  let xmat = ctx.Selection.xmat in
  Array.iteri
    (fun i ms ->
      Array.iter
        (fun m ->
          Array.iteri
            (fun j (c : Candidate.t) ->
              Array.iteri
                (fun n (other : Candidate.t) ->
                  Array.iteri
                    (fun pidx _ ->
                      Alcotest.(check (float 0.0))
                        "loss_on_path = Candidate.crossing_loss_on_path"
                        (Candidate.crossing_loss_on_path ctx.Selection.params c
                           pidx other)
                        (Xmatrix.loss_on_path xmat ctx.Selection.params ~i ~j
                           ~p:pidx ~m ~n))
                    c.Candidate.paths)
                ctx.Selection.cands.(m))
            ctx.Selection.cands.(i))
        ms)
    ctx.Selection.neighbors

let test_counters_and_modes () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  let xmat = ctx.Selection.xmat in
  let s0 = Xmatrix.stats xmat in
  Alcotest.(check bool) "enabled" true s0.Xmatrix.enabled;
  Alcotest.(check bool) "pairs precomputed" true (s0.Xmatrix.pairs > 0);
  Alcotest.(check int) "fresh hits" 0 s0.Xmatrix.hits;
  ignore (Xmatrix.path_counts xmat ~i:0 ~j:0 ~m:1 ~n:0);
  let s1 = Xmatrix.stats xmat in
  Alcotest.(check int) "one hit" 1 s1.Xmatrix.hits;
  Xmatrix.reset_counters xmat;
  let s2 = Xmatrix.stats xmat in
  Alcotest.(check int) "reset hits" 0 s2.Xmatrix.hits;
  Alcotest.(check int) "build stats survive reset" s0.Xmatrix.pairs s2.Xmatrix.pairs;
  let direct = (Selection.uncached ctx).Selection.xmat in
  Alcotest.(check bool) "direct disabled" false (Xmatrix.enabled direct);
  ignore (Xmatrix.count direct ~i:0 ~j:0 ~p:0 ~m:1 ~n:0);
  Alcotest.(check int) "direct queries are misses" 1 (Xmatrix.stats direct).Xmatrix.misses

(* Candidates of one net that label the same topology value share its
   edge crossing table; equal but physically distinct topologies (two
   [Topology.make] calls) get separate tables. Net 0 runs along y = 2
   with three labellings of one topology; net 1 (a vertical edge across
   net 0's first edge, then a diagonal across its second) labels two
   equal, physically distinct topologies. Every stored count must equal
   [Segment.count_crossings] on the path's segments, sequential and with
   four workers. *)
let shared_topology_cands () =
  let l = Array.map (fun o -> if o then Candidate.Optical else Candidate.Electrical) in
  let net id centers labellings =
    let hnet = hnet_of_centers ~id centers in
    let topo () =
      Operon_steiner.Topology.make ~positions:centers ~nterminals:3
        ~edges:[ (0, 1); (1, 2) ] ~root:0
    in
    let topos = [| topo (); topo () |] in
    List.map (fun (k, labels) -> Candidate.of_labels params hnet topos.(k) (l labels))
      labellings
    @ [ Candidate.electrical params hnet topos.(0) ]
  in
  [| net 0 [| p 0.0 2.0; p 2.0 2.0; p 4.0 2.0 |]
       [ (0, [| false; true; true |]); (0, [| false; true; false |]);
         (0, [| false; false; true |]) ];
     net 1 [| p 1.0 0.0; p 1.0 4.0; p 3.5 0.0 |]
       [ (0, [| false; true; true |]); (0, [| false; true; false |]);
         (1, [| false; false; true |]); (1, [| false; true; true |]) ] |]

let test_shared_topology_parity () =
  List.iter
    (fun jobs ->
      let exec = Executor.create ~jobs in
      let ctx = Selection.make_ctx ~exec params (shared_topology_cands ()) in
      Alcotest.(check (array int)) "nets are neighbours" [| 1 |] ctx.Selection.neighbors.(0);
      Alcotest.(check (array int)) "two crossings on the two-edge path" [| 1; 2 |]
        (Xmatrix.path_counts ctx.Selection.xmat ~i:0 ~j:0 ~m:1 ~n:0);
      check_counts_against_geometry ctx;
      let _, design_ctx =
        Flow.prepare_with (Flow.Config.with_jobs jobs (Flow.Config.default params))
          (Cases.tiny ~seed:5 ())
      in
      check_counts_against_geometry design_ctx)
    [ 1; 4 ]

(* Parallel build (jobs=4) produces exactly the sequential matrix. *)
let test_parallel_build_deterministic () =
  let design = Cases.small ~seed:7 () in
  let cfg = Flow.Config.default params in
  let _, seq_ctx = Flow.prepare_with cfg design in
  let _, par_ctx = Flow.prepare_with (Flow.Config.with_jobs 4 cfg) design in
  let choice = Selection.greedy seq_ctx in
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "net %d losses identical" i)
        true
        (Selection.net_path_losses seq_ctx choice i
        = Selection.net_path_losses par_ctx choice i))
    seq_ctx.Selection.cands;
  Alcotest.(check (float 0.0)) "worst_violation identical"
    (Selection.worst_violation seq_ctx choice)
    (Selection.worst_violation par_ctx choice)

(* ------------------------------------------------------------------ *)
(* Cached vs uncached parity on random designs                        *)
(* ------------------------------------------------------------------ *)

let check_losses_parity name ctx ctx_u choice =
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: net %d losses bit-identical" name i)
        true
        (Selection.net_path_losses ctx choice i
        = Selection.net_path_losses ctx_u choice i))
    ctx.Selection.cands;
  Alcotest.(check (float 0.0))
    (name ^ ": worst_violation bit-identical")
    (Selection.worst_violation ctx_u choice)
    (Selection.worst_violation ctx choice)

let check_design_parity ~ilp name design =
  let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let ctx_u = Selection.uncached ctx in
  check_counts_against_geometry ctx;
  List.iter
    (fun (cname, choice) -> check_losses_parity (name ^ "/" ^ cname) ctx ctx_u choice)
    [ ("greedy", Selection.greedy ctx);
      ("electrical", Selection.all_electrical ctx);
      ("polished", Selection.polish ctx (Selection.greedy ctx)) ];
  let lr = Lr_select.select ctx and lr_u = Lr_select.select ctx_u in
  Alcotest.(check (array int))
    (name ^ ": LR choice identical") lr_u.Lr_select.choice lr.Lr_select.choice;
  Alcotest.(check (float 0.0))
    (name ^ ": LR power identical") lr_u.Lr_select.power lr.Lr_select.power;
  if ilp then begin
    let r = Ilp_select.select ~budget_seconds:20.0 ctx in
    let r_u = Ilp_select.select ~budget_seconds:20.0 ctx_u in
    Alcotest.(check (array int))
      (name ^ ": ILP choice identical") r_u.Ilp_select.choice r.Ilp_select.choice;
    Alcotest.(check (float 0.0))
      (name ^ ": ILP power identical") r_u.Ilp_select.power r.Ilp_select.power
  end

let prop_random_design_parity =
  QCheck.Test.make ~name:"cached = uncached on random tiny designs" ~count:8
    QCheck.(int_range 1 10000)
    (fun seed ->
      check_design_parity ~ilp:true
        (Printf.sprintf "tiny/%d" seed)
        (Cases.tiny ~seed ());
      true)

(* [slot_counts] addressed by neighbour slot answers exactly what
   [path_counts] answers by neighbour id, cached and direct, and each
   call counts one hit (cached) or one miss (direct). *)
let check_slot_counts xmat (ctx : Selection.ctx) =
  let hits_misses () =
    let s = Xmatrix.stats xmat in
    (s.Xmatrix.hits, s.Xmatrix.misses)
  in
  let cached = Xmatrix.enabled xmat in
  let ok = ref true in
  Array.iteri
    (fun i ms ->
      Array.iteri
        (fun k m ->
          Array.iteri
            (fun j _ ->
              Array.iteri
                (fun n _ ->
                  let h0, m0 = hits_misses () in
                  let got = Xmatrix.slot_counts xmat ~i ~k ~j ~m ~n in
                  let h1, m1 = hits_misses () in
                  let counted =
                    if cached then (h1, m1) = (h0 + 1, m0) else (h1, m1) = (h0, m0 + 1)
                  in
                  if not (counted && got = Xmatrix.path_counts xmat ~i ~j ~m ~n) then
                    ok := false)
                ctx.Selection.cands.(m))
            ctx.Selection.cands.(i))
        ms)
    ctx.Selection.neighbors;
  !ok

let prop_slot_counts =
  QCheck.Test.make ~name:"slot_counts = path_counts (cached and direct)" ~count:8
    QCheck.(int_range 1 10000)
    (fun seed ->
      let _, ctx =
        Flow.prepare_with (Flow.Config.default params) (Cases.tiny ~seed ())
      in
      let direct = (Selection.uncached ctx).Selection.xmat in
      Xmatrix.enabled ctx.Selection.xmat
      && check_slot_counts ctx.Selection.xmat ctx
      && check_slot_counts direct ctx)

let test_small_design_parity () =
  check_design_parity ~ilp:false "small" (Cases.small ~seed:3 ())

(* Full-flow identity: cache on vs off, sequential vs jobs=4, LR and
   ILP — the acceptance criterion of the PR. *)
let test_flow_cache_identity () =
  let design = Cases.tiny ~seed:5 () in
  List.iter
    (fun mode ->
      let result jobs cache =
        Flow.synthesize
          (Flow.Config.make ~mode ~ilp_budget:20.0 ~jobs ~cache params)
          design
      in
      let reference = result 1 true in
      List.iter
        (fun (jobs, cache) ->
          let r = result jobs cache in
          let tag =
            Printf.sprintf "%s jobs=%d cache=%b"
              (match mode with Flow.Lr -> "lr" | Flow.Ilp -> "ilp")
              jobs cache
          in
          Alcotest.(check (array int)) (tag ^ ": choice") reference.Flow.choice
            r.Flow.choice;
          Alcotest.(check (float 0.0)) (tag ^ ": power") reference.Flow.power
            r.Flow.power)
        [ (1, false); (4, true); (4, false) ];
      Alcotest.(check bool)
        "cache stats enabled on default path" true
        reference.Flow.cache.Xmatrix.enabled)
    [ Flow.Lr; Flow.Ilp ]

(* ------------------------------------------------------------------ *)
(* Incremental evaluation                                             *)
(* ------------------------------------------------------------------ *)

(* After any flip sequence, the Eval agrees bit-for-bit with a full
   recompute of its current assignment. *)
let check_eval_matches_full ctx ev =
  let choice = Selection.Eval.choice ev in
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "eval losses of net %d" i)
        true
        (Selection.Eval.losses ev i = Selection.net_path_losses ctx choice i))
    ctx.Selection.cands;
  Alcotest.(check (float 0.0)) "eval worst_violation"
    (Selection.worst_violation ctx choice)
    (Selection.Eval.worst_violation ev);
  Alcotest.(check (float 0.0)) "eval power"
    (Selection.power ctx choice)
    (Selection.Eval.power ev)

let test_eval_incremental_equivalence () =
  let design = Cases.small ~seed:11 () in
  let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let ev = Selection.Eval.create ctx (Selection.greedy ctx) in
  check_eval_matches_full ctx ev;
  (* Walk every net through its fallback and back, checking equivalence
     after each flip. *)
  let n = Array.length ctx.Selection.cands in
  let rng = Prng.create 99 in
  for _ = 1 to 3 * n do
    let i = Prng.int rng n in
    let j = Prng.int rng (Array.length ctx.Selection.cands.(i)) in
    Selection.Eval.set ev i j;
    Alcotest.(check int) "get reflects set" j (Selection.Eval.get ev i)
  done;
  check_eval_matches_full ctx ev

let test_eval_recompute_locality () =
  let design = Cases.small ~seed:11 () in
  let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let n = Array.length ctx.Selection.cands in
  let ev = Selection.Eval.create ctx (Selection.greedy ctx) in
  ignore (Selection.Eval.worst_violation ev);
  let full = Selection.Eval.recomputes ev in
  Alcotest.(check int) "first evaluation touches every net" n full;
  (* Find a net with at least one neighbour and flip it: only the net
     and its neighbourhood may be re-derived. *)
  let i =
    let best = ref 0 in
    Array.iteri
      (fun k ms ->
        if Array.length ms > Array.length ctx.Selection.neighbors.(!best) then
          best := k)
      ctx.Selection.neighbors;
    !best
  in
  Selection.Eval.set ev i ctx.Selection.elec_idx.(i);
  ignore (Selection.Eval.worst_violation ev);
  let delta = Selection.Eval.recomputes ev - full in
  let bound = 1 + Array.length ctx.Selection.neighbors.(i) in
  Alcotest.(check bool)
    (Printf.sprintf "flip re-derives <= %d nets (got %d)" bound delta)
    true (delta <= bound)

let () =
  Alcotest.run "xmatrix"
    [ ( "unit",
        [ Alcotest.test_case "counts match geometry" `Quick
            test_counts_match_geometry;
          Alcotest.test_case "losses match candidate formula" `Quick
            test_loss_matches_candidate_formula;
          Alcotest.test_case "counters and modes" `Quick test_counters_and_modes;
          Alcotest.test_case "parallel build deterministic" `Quick
            test_parallel_build_deterministic;
          Alcotest.test_case "shared-topology tables (jobs 1/4)" `Quick
            test_shared_topology_parity ] );
      ( "parity",
        [ QCheck_alcotest.to_alcotest prop_random_design_parity;
          QCheck_alcotest.to_alcotest prop_slot_counts;
          Alcotest.test_case "small design" `Slow test_small_design_parity;
          Alcotest.test_case "flow cache identity (jobs 1/4)" `Quick
            test_flow_cache_identity ] );
      ( "incremental",
        [ Alcotest.test_case "eval = full recompute" `Quick
            test_eval_incremental_equivalence;
          Alcotest.test_case "eval recompute locality" `Quick
            test_eval_recompute_locality ] ) ]
