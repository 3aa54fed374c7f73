open Operon_geom
open Operon_optical
open Operon_thermal
open Operon_util

(* Thermal scenario state of a context: per-(net, candidate, path)
   detuning penalties precomputed against a static thermal map, the
   per-candidate worst-path penalty [tcost], and the objective weight
   trading power against thermal cost. The map is fixed per run and the
   penalty of a path never depends on the neighbours' choices, so one
   profile serves a whole Pareto weight ladder (and the crossing cache
   stays valid across it). *)
type thermal = {
  penalty : float array array array;
      (* [i][j][p]: detuning dB added to path p of candidate j of net i *)
  tcost : float array array;  (* [i][j] = max over p of penalty *)
  weight : float;  (* objective weight on tcost; >= 0 *)
}

type ctx = {
  params : Params.t;
  cands : Candidate.t array array;
  bboxes : Rect.t option array;
  neighbors : int array array;
  elec_idx : int array;
  xmat : Xmatrix.t;
  bundled : Xmatrix.bundled;
  thermal : thermal option;
}

let optical_bbox (cands : Candidate.t array) =
  let pts = ref [] in
  Array.iter
    (fun (c : Candidate.t) ->
      Array.iter
        (fun (s : Segment.t) ->
          pts := s.Segment.a :: s.Segment.b :: !pts)
        c.Candidate.opt_segments)
    cands;
  match !pts with [] -> None | l -> Some (Rect.of_points (Array.of_list l))

let make_ctx ?(exec = Executor.sequential) ?(cache = true) ?reuse params
    cand_lists =
  let cands = Array.map Array.of_list cand_lists in
  Array.iteri
    (fun i arr ->
      if Array.length arr = 0 then
        invalid_arg (Printf.sprintf "Selection.make_ctx: net %d has no candidates" i))
    cands;
  let elec_idx =
    Array.mapi
      (fun i arr ->
        let best = ref (-1) in
        Array.iteri
          (fun j (c : Candidate.t) ->
            if c.Candidate.pure_electrical
               && (!best = -1 || c.Candidate.power < arr.(!best).Candidate.power)
            then best := j)
          arr;
        if !best = -1 then
          invalid_arg
            (Printf.sprintf "Selection.make_ctx: net %d lacks an electrical fallback" i);
        !best)
      cands
  in
  let bboxes = Array.map optical_bbox cands in
  let n = Array.length cands in
  (* Each net's distinct optical edges, for refining the bbox filter:
     two nets are true neighbours only when some candidate pair actually
     crosses — overlapping boxes of long parallel corridors are common
     and coupling-free. Some candidate pair of [i] and [j] crosses exactly
     when some distinct edge of [i] crosses one of [j], so each edge pair
     whose bboxes meet is tested once. *)
  let edges = Array.map Xmatrix.optical_edges cands in
  let edge_boxes = Array.map Segment.boxes edges in
  let exists_crossing i j =
    let ei = edges.(i) and ej = edges.(j) in
    let bi = edge_boxes.(i) and bj = edge_boxes.(j) in
    let found = ref false and u = ref 0 in
    while (not !found) && !u < Array.length ei do
      let v = ref 0 in
      while (not !found) && !v < Array.length ej do
        if Segment.boxes_overlap bi !u bj !v && Segment.crosses_properly ei.(!u) ej.(!v)
        then found := true;
        incr v
      done;
      incr u
    done;
    !found
  in
  (* ECO reuse: [ok.(i)] certifies net [i]'s candidate list is carried
     over from [prev] unchanged. For a pair of carried-over nets the
     crossing geometry is identical, so the previous adjacency answers
     the (expensive) edge-crossing question exactly; any pair touching
     a recomputed net falls back to the geometry. *)
  let reuse =
    match reuse with
    | Some ((prev : ctx), ok)
      when Array.length ok = n && Array.length prev.cands = n ->
        Some (prev, ok)
    | _ -> None
  in
  let crossing_pair i j =
    match (bboxes.(i), bboxes.(j)) with
    | Some bi, Some bj ->
        Rect.overlaps bi bj && exists_crossing i j
    | _ -> false
  in
  let linked =
    match reuse with
    | None -> crossing_pair
    | Some (prev, ok) ->
        fun i j ->
          if ok.(i) && ok.(j) then Xmatrix.find_slot prev.neighbors.(i) j >= 0
          else crossing_pair i j
  in
  (* Enumerate candidate pairs through the spatial index over the
     optical subset instead of the O(n²) sweep. Only bbox-overlapping
     pairs can be linked: [crossing_pair] requires overlap outright, and
     a reused adjacency row only ever contains pairs whose (identical,
     certified by [ok]) geometry overlapped when the row was built — so
     restricting [linked] to the index's pairs loses nothing. *)
  let compact =
    let buf = Growbuf.create ~capacity:n () in
    for i = 0 to n - 1 do
      if bboxes.(i) <> None then Growbuf.push buf i
    done;
    Growbuf.to_array buf
  in
  let rects =
    Array.map
      (fun i ->
        match bboxes.(i) with Some r -> r | None -> assert false)
      compact
  in
  let pairs = Growbuf.create ~capacity:(4 * (n + 1)) () in
  let idx = Overlap.build rects in
  Overlap.iter_pairs idx (fun a b ->
      (* [compact] is ascending, so a < b implies i < j. *)
      let i = compact.(a) and j = compact.(b) in
      if linked i j then Growbuf.push pairs ((i * n) + j));
  (* Sorting the encoded pairs ascending makes the fill below emit every
     row ascending — smaller partners (from pairs where the row is the
     second coordinate, which sort first) before larger ones — the
     property the ECO reuse's [Xmatrix.find_slot] and the ECO diff rely
     on. *)
  Growbuf.sort pairs;
  let deg = Array.make n 0 in
  Growbuf.iter
    (fun v ->
      deg.(v / n) <- deg.(v / n) + 1;
      deg.(v mod n) <- deg.(v mod n) + 1)
    pairs;
  let neighbors = Array.init n (fun i -> Array.make deg.(i) 0) in
  let fill = Array.make n 0 in
  Growbuf.iter
    (fun v ->
      let i = v / n and j = v mod n in
      neighbors.(i).(fill.(i)) <- j;
      fill.(i) <- fill.(i) + 1;
      neighbors.(j).(fill.(j)) <- i;
      fill.(j) <- fill.(j) + 1)
    pairs;
  let xmat =
    if cache then
      let xreuse =
        Option.map
          (fun ((prev : ctx), ok) ->
            (prev.xmat, fun i m -> ok.(i) && ok.(m)))
          reuse
      in
      Xmatrix.build ~exec ?reuse:xreuse cands neighbors
    else Xmatrix.direct cands
  in
  { params;
    cands;
    bboxes;
    neighbors;
    elec_idx;
    xmat;
    bundled = Xmatrix.bundled params;
    thermal = None }

let uncached ctx = { ctx with xmat = Xmatrix.direct ctx.cands }

let thermal_profile ctx map =
  let t_ref = ctx.params.Params.t_ref in
  (* Zero-penalty trim: outside the map's thermal support every sample
     detunes by exactly 0.0 ([Thermal_map.support] extends boundary
     support cells to infinity, covering the out-of-die clamp), so nets
     far from the heated region skip sampling entirely and the sweep
     cost scales with the hotspot footprint, not the design. *)
  let support = Thermal_map.support ~t_ref map in
  let segment_dt seg =
    match support with
    | None -> 0.0
    | Some s ->
        if Rect.overlaps s (Segment.bbox seg) then
          Thermal_map.segment_detuning map ~t_ref seg
        else 0.0
  in
  let penalty =
    Array.map
      (fun arr ->
        Array.map
          (fun (c : Candidate.t) ->
            Array.map
              (fun (path : Candidate.path) ->
                let dts = Array.map segment_dt path.Candidate.segments in
                Loss.path_thermal ctx.params ~base:0.0 ~dts)
              c.Candidate.paths)
          arr)
      ctx.cands
  in
  let tcost =
    Array.map (Array.map (Array.fold_left Float.max 0.0)) penalty
  in
  { penalty; tcost; weight = 0.0 }

let with_thermal ctx profile ~weight =
  if not (Float.is_finite weight) || weight < 0.0 then
    invalid_arg "Selection.with_thermal: weight must be finite and non-negative";
  if Array.length profile.penalty <> Array.length ctx.cands then
    invalid_arg "Selection.with_thermal: profile shape mismatch";
  { ctx with thermal = Some { profile with weight } }

let selected ctx choice i = ctx.cands.(i).(choice.(i))

let power ctx choice =
  let acc = ref 0.0 in
  Array.iteri (fun i j -> acc := !acc +. ctx.cands.(i).(j).Candidate.power) choice;
  !acc

(* Selection objective of one candidate: physical power, plus the
   weighted worst-path thermal cost when the context carries a thermal
   scenario. The [None] arm is today's exact expression, so a context
   without thermal state optimizes bit-identically to the pre-thermal
   code. *)
let objective ctx i j =
  let c = ctx.cands.(i).(j) in
  match ctx.thermal with
  | None -> c.Candidate.power
  | Some t -> c.Candidate.power +. (t.weight *. t.tcost.(i).(j))

let total_objective ctx choice =
  let acc = ref 0.0 in
  Array.iteri (fun i j -> acc := !acc +. objective ctx i j) choice;
  !acc

(* Canonical per-net loss evaluation; everything else (full recompute,
   incremental Eval, signoff) derives its numbers from this one function
   so they are bit-identical by construction. Each path's crossing loss
   is summed from +0.0 over the neighbours in array order, one matrix
   read per neighbour serving every path. With a thermal scenario, each
   path additionally pays its precomputed detuning penalty — feasibility
   and margins then speak the temperature-aware loss; without one, the
   expression tree is exactly the historical one. *)
let net_path_losses ctx choice i =
  let j = choice.(i) in
  let paths = ctx.cands.(i).(j).Candidate.paths in
  let losses = Array.make (Array.length paths) 0.0 in
  if Array.length paths > 0 then
    Array.iteri
      (fun k m ->
        Xmatrix.add_losses ctx.xmat ctx.bundled ~i ~k ~j ~m ~n:choice.(m) losses 0)
      ctx.neighbors.(i);
  Array.iteri
    (fun p (path : Candidate.path) ->
      losses.(p) <-
        (match ctx.thermal with
        | None -> path.Candidate.intrinsic_loss +. losses.(p)
        | Some t -> path.Candidate.intrinsic_loss +. losses.(p) +. t.penalty.(i).(j).(p)))
    paths;
  losses

let worst_violation ctx choice =
  let l_max = ctx.params.Params.l_max in
  let worst = ref neg_infinity in
  Array.iteri
    (fun i _ ->
      Array.iter
        (fun loss -> if loss -. l_max > !worst then worst := loss -. l_max)
        (net_path_losses ctx choice i))
    ctx.cands;
  if !worst = neg_infinity then 0.0 else !worst

let feasible ctx choice = worst_violation ctx choice <= 1e-9

(* Worst path loss of a selection under this context's loss model
   (thermal-aware when the context carries a scenario); 0.0 for a
   selection with no optical paths at all. *)
let worst_path_loss ctx choice =
  let worst = ref 0.0 in
  Array.iteri
    (fun i _ ->
      Array.iter
        (fun loss -> if loss > !worst then worst := loss)
        (net_path_losses ctx choice i))
    ctx.cands;
  !worst

let thermal_margin ctx choice =
  ctx.params.Params.l_max -. worst_path_loss ctx choice

let all_electrical ctx = Array.copy ctx.elec_idx

let greedy ctx =
  Array.mapi
    (fun i arr ->
      let best = ref 0 in
      Array.iteri
        (fun j _ ->
          if objective ctx i j < objective ctx i !best then best := j)
        arr;
      !best)
    ctx.cands

let sanitize_initial ctx initial =
  let n = Array.length ctx.cands in
  if Array.length initial <> n then None
  else
    Some
      (Array.mapi
         (fun i j ->
           if j >= 0 && j < Array.length ctx.cands.(i) then j
           else ctx.elec_idx.(i))
         initial)

(* ------------------------------------------------------------------ *)
(* Incremental selection evaluation.                                  *)
(* ------------------------------------------------------------------ *)

module Eval = struct
  type eval = {
    ctx : ctx;
    choice : int array;
    losses : float array array;
    dirty : bool array;
    mutable recomputes : int;
  }

  type t = eval

  let create ctx choice0 =
    let n = Array.length ctx.cands in
    { ctx;
      choice = Array.copy choice0;
      losses = Array.make n [||];
      dirty = Array.make n true;
      recomputes = 0 }

  (* Invariant after [refresh t i]: [t.losses.(i)] equals
     [net_path_losses t.ctx t.choice i] — the canonical evaluation of the
     current assignment. Because crossing terms couple only neighbour
     pairs, flipping net [i] can change the loss arrays of [i] and of
     [ctx.neighbors.(i)] only; everyone else's cached array stays
     canonical untouched. *)
  let refresh t i =
    if t.dirty.(i) then begin
      t.losses.(i) <- net_path_losses t.ctx t.choice i;
      t.dirty.(i) <- false;
      t.recomputes <- t.recomputes + 1
    end

  let get t i = t.choice.(i)

  let choice t = Array.copy t.choice

  let set t i j =
    if t.choice.(i) <> j then begin
      t.choice.(i) <- j;
      t.dirty.(i) <- true;
      Array.iter (fun m -> t.dirty.(m) <- true) t.ctx.neighbors.(i)
    end

  let losses t i =
    refresh t i;
    t.losses.(i)

  let power t = power t.ctx t.choice

  let worst_violation t =
    let l_max = t.ctx.params.Params.l_max in
    let worst = ref neg_infinity in
    Array.iteri
      (fun i _ ->
        Array.iter
          (fun loss -> if loss -. l_max > !worst then worst := loss -. l_max)
          (losses t i))
      t.ctx.cands;
    if !worst = neg_infinity then 0.0 else !worst

  let feasible t = worst_violation t <= 1e-9

  (* Does net i currently sit on any violated path, either as the owner
     of the path or as a crosser of a neighbour's path? Checking only i
     and its neighbours keeps repair local. *)
  let net_ok t i =
    let l_max = t.ctx.params.Params.l_max in
    let check m =
      Array.for_all (fun loss -> loss <= l_max +. 1e-9) (losses t m)
    in
    check i && Array.for_all check t.ctx.neighbors.(i)

  let recomputes t = t.recomputes
end

let polish_eval ?(rounds = 3) ?only ev =
  let ctx = ev.Eval.ctx in
  let n = Array.length ctx.cands in
  (* [only] restricts both the repair scan and the improve loops to the
     given nets (the corridor-stitch fix-up pass); nets outside it are
     never flipped, though their losses still participate in the local
     feasibility checks. Absent, the scan is every net in order —
     exactly the historical behavior. *)
  let scan =
    match only with None -> Array.init n (fun i -> i) | Some ids -> ids
  in
  (* Repair: demote offending nets to their electrical fallback until the
     selection is feasible. Electrical candidates have no optical paths
     and no crossings, so this terminates at the all-electrical point. *)
  let guard = ref 0 in
  while (not (Eval.feasible ev)) && !guard <= n do
    incr guard;
    let fixed = ref false in
    Array.iter
      (fun i ->
        if (not !fixed) && Eval.get ev i <> ctx.elec_idx.(i) && not (Eval.net_ok ev i)
        then begin
          Eval.set ev i ctx.elec_idx.(i);
          fixed := true
        end)
      scan;
    if not !fixed then
      (* Violations exist but no single demotable net found: demote the
         first non-electrical net outright. *)
      (try
         Array.iter
           (fun i ->
             if Eval.get ev i <> ctx.elec_idx.(i) then begin
               Eval.set ev i ctx.elec_idx.(i);
               raise Exit
             end)
           scan
       with Exit -> ())
  done;
  (* Improve: per net, adopt the cheapest candidate that keeps the local
     neighbourhood (and hence the whole selection) feasible. Only the
     flipped net and its neighbours are re-evaluated per trial. *)
  for _ = 1 to rounds do
    Array.iter
      (fun i ->
        let old = Eval.get ev i in
        let best = ref old and best_obj = ref (objective ctx i old) in
        Array.iteri
          (fun j _ ->
            let obj = objective ctx i j in
            if j <> old && obj < !best_obj then begin
              Eval.set ev i j;
              if Eval.net_ok ev i then begin
                best := j;
                best_obj := obj
              end
            end)
          ctx.cands.(i);
        Eval.set ev i !best)
      scan
  done

let polish ?rounds ?only ctx choice0 =
  let ev = Eval.create ctx choice0 in
  polish_eval ?rounds ?only ev;
  Eval.choice ev
