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
  (* [live.(i).(j)]: some multiplier of candidate (i, j) is non-zero.
     Re-selection reads a candidate's own crossing terms only when it is
     live, and a neighbour's foreign terms only when that neighbour's
     previous choice is live; the multiplier update refreshes it. *)
  let live = Array.map (Array.map (Array.exists (fun x -> x <> 0.0))) lambda in
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
       the outer loop; every sum still runs over the neighbours in order
       from +0.0. A term left out below has all its multipliers zero and
       finite losses, so it is ±0.0 and adding it would change no bit
       (DESIGN §23). *)
    let next = Array.make n 0 in
    for i = 0 to n - 1 do
      let cs = cands.(i) and off = base.(i) and lv = live.(i) in
      let nc = Array.length cs in
      Array.fill cross 0 off.(nc) 0.0;
      Array.fill foreign 0 nc 0.0;
      let nbrs = neighbors.(i) in
      for k = 0 to Array.length nbrs - 1 do
        let m = nbrs.(k) in
        let sel = prev.(m) in
        (* Live candidates' own paths against the neighbour's previous
           selection (the a'_mn * a_ij half of Eq. 5)... *)
        for j = 0 to nc - 1 do
          if lv.(j) then Xmatrix.add_losses xmat bundled ~i ~k ~j ~m ~n:sel cross off.(j)
        done;
        (* ...and, in one row read for every candidate, the crossings
           picking (i, j) adds onto that selection's paths (the
           a_mn * a'_ij half), when they carry any weight. *)
        if live.(m).(sel) then
          Xmatrix.add_weighted_row xmat bundled ~i ~k ~m ~n:sel lambda.(m).(sel) foreign
      done;
      let best = ref 0 and best_w = ref infinity in
      for j = 0 to nc - 1 do
        (* Multiplier-weighted loss of the candidate's own paths. *)
        let own = ref 0.0 in
        if lv.(j) then begin
          let paths = cs.(j).Candidate.paths and mult = lambda.(i).(j) in
          for p = 0 to Array.length paths - 1 do
            let intrinsic = paths.(p).Candidate.intrinsic_loss in
            let crossing = cross.(off.(j) + p) in
            let path_loss =
              match thermal with
              | None -> intrinsic +. crossing
              | Some t -> intrinsic +. crossing +. t.Selection.penalty.(i).(j).(p)
            in
            own := !own +. (mult.(p) *. path_loss)
          done
        end;
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
       multiplier would repel a perfectly feasible candidate forever.
       Liveness is refreshed from the updated multipliers. *)
    let step = step_scale /. float_of_int !iterations in
    let total_violation = ref 0.0 in
    for i = 0 to n - 1 do
      let j = next.(i) in
      let losses = Selection.Eval.losses ev i in
      let li = lambda.(i) and lv = live.(i) in
      for j' = 0 to Array.length li - 1 do
        let mult = li.(j') in
        let any = ref false in
        for p = 0 to Array.length mult - 1 do
          let v = if j' = j then losses.(p) -. l_max else -.l_max in
          if v > 0.0 then total_violation := !total_violation +. v;
          let x = Float.max 0.0 (mult.(p) +. (step *. v)) in
          mult.(p) <- x;
          if x <> 0.0 then any := true
        done;
        lv.(j') <- !any
      done
    done;
    (* Track the best answer this iterate yields once its violations are
       repaired away (repair is a no-op on feasible iterates). A violated
       iterate is repaired on [ev], which holds every net's losses after
       the step, and the demoted nets are then flipped back: [ev] sits at
       [next] again, and only their neighbourhoods are re-derived. *)
    if !total_violation <= 0.0 then consider (Selection.Eval.feasible ev) next
    else begin
      Selection.polish_eval ~rounds:0 ev;
      consider (Selection.Eval.feasible ev) (Selection.Eval.choice ev);
      Array.iteri (fun i j -> Selection.Eval.set ev i j) next
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
  (* [ev] sits at [!choice], and after any iteration it holds the
     losses of every net but the few the last flip back touched. Repair
     only (rounds=0), on [ev] itself, which is not read again: any net
     still on a violated path falls back to electrical wires, as the
     paper's residual-net handling does. *)
  let final_violation = Float.max 0.0 (Selection.Eval.worst_violation ev) in
  Selection.polish_eval ~rounds:0 ev;
  let repaired = Selection.Eval.choice ev in
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
