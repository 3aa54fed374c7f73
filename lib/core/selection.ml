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

(* The pairs i < j of nets whose optical boxes overlap, filed under the
   upper net: net [j]'s partners below it are [below.(start.(j))] to
   [below.(start.(j + 1) - 1)], in no particular order, the order in
   which the spatial index over the nets with a box reports them. One
   pass counts the pairs and a second files them: no second array of
   pairs is needed to order them. *)
let overlap_files bboxes =
  let n = Array.length bboxes in
  let compact = Array.of_list (List.filter (fun i -> bboxes.(i) <> None) (List.init n Fun.id)) in
  let idx = Overlap.build (Array.map (fun i -> Option.get bboxes.(i)) compact) in
  (* [compact] is ascending, so a < b implies i < j. *)
  let start = Array.make (n + 1) 0 in
  Overlap.iter_pairs idx (fun _ b -> start.(compact.(b) + 1) <- start.(compact.(b) + 1) + 1);
  for j = 1 to n do
    start.(j) <- start.(j) + start.(j - 1)
  done;
  let below = Array.make start.(n) 0 and cursor = Array.sub start 0 n in
  Overlap.iter_pairs idx (fun a b ->
      let j = compact.(b) in
      below.(cursor.(j)) <- compact.(a);
      cursor.(j) <- cursor.(j) + 1);
  (start, below)

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
  (* Each net's live optical edges; the box around them is its optical
     bounding box. *)
  let edges = Array.map Xmatrix.edges cands in
  let bboxes = Array.map Xmatrix.bbox edges in
  let n = Array.length cands in
  (* ECO reuse: [ok.(i)] certifies net [i]'s candidate list is carried
     over from [prev] unchanged. For a pair of carried-over nets the
     crossing geometry is identical, so the previous adjacency says
     whether they link, and the previous matrix holds their rows; such a
     pair reads no geometry. A cached context over a direct [prev] has
     no rows to copy, so there the pair is listed like any other. *)
  let reuse =
    match reuse with
    | Some ((prev : ctx), ok)
      when Array.length ok = n && Array.length prev.cands = n ->
        Some (prev, ok)
    | _ -> None
  in
  let carried =
    match reuse with
    | Some (prev, ok) when (not cache) || Xmatrix.enabled prev.xmat ->
        fun i j -> if ok.(i) && ok.(j) then Some prev.neighbors.(i) else None
    | _ -> fun _ _ -> None
  in
  (* Two nets link when some candidate pair crosses: overlapping boxes of
     long parallel corridors are common and coupling-free. Some candidate
     pair of [i] and [j] crosses exactly when some live edge of [i]
     crosses one of [j], so each pair of overlapping nets is listed once
     and links when its list is not empty: one task per net [j] over its
     partners below it returns how many link, which overwrite the file
     from its front, and for a cached context their lists in the same
     order. A direct context only asks whether a pair links. *)
  let start, below = overlap_files bboxes in
  let linked =
    Executor.parallel_mapi exec
      (fun j _ ->
        let cross = Xmatrix.lister () in
        let count = ref 0 and lists = ref [] in
        let link i l =
          below.(start.(j) + !count) <- i;
          if cache then lists := l :: !lists;
          incr count
        in
        for x = start.(j) to start.(j + 1) - 1 do
          let i = below.(x) in
          match carried i j with
          | Some row -> if Xmatrix.find_slot row j >= 0 then link i [||]
          | None ->
              let l = cross ~first:(not cache) edges.(i) edges.(j) in
              if Array.length l > 0 then link i l
        done;
        (!count, Array.of_list (List.rev !lists)))
      cands
  in
  (* Ascending rows by counting. Visiting the nets [j] in ascending order
     appends each to the rows of its linked partners below it, and the
     pair's list to theirs, in ascending order; visiting the nets [i] in
     ascending order then writes each into the rows of its partners above
     it, ahead of those, in ascending order too. The ECO reuse's
     [Xmatrix.find_slot] and the ECO diff rely on ascending rows. *)
  let above = Array.make n 0 in
  Array.iteri
    (fun j (count, _) ->
      for x = start.(j) to start.(j) + count - 1 do
        above.(below.(x)) <- above.(below.(x)) + 1
      done)
    linked;
  let neighbors = Array.mapi (fun j (count, _) -> Array.make (count + above.(j)) 0) linked in
  let upper = Array.map (fun a -> Array.make (if cache then a else 0) [||]) above in
  let fill = Array.make n 0 in
  Array.iteri
    (fun j (count, lists) ->
      for x = 0 to count - 1 do
        let i = below.(start.(j) + x) in
        neighbors.(i).(Array.length neighbors.(i) - above.(i) + fill.(i)) <- j;
        if cache then upper.(i).(fill.(i)) <- lists.(x);
        fill.(i) <- fill.(i) + 1
      done)
    linked;
  Array.fill fill 0 n 0;
  Array.iteri
    (fun i row ->
      for k = Array.length row - above.(i) to Array.length row - 1 do
        neighbors.(row.(k)).(fill.(row.(k))) <- i;
        fill.(row.(k)) <- fill.(row.(k)) + 1
      done)
    neighbors;
  let xmat =
    if cache then
      let xreuse =
        Option.map
          (fun ((prev : ctx), ok) ->
            (prev.xmat, fun i m -> ok.(i) && ok.(m)))
          reuse
      in
      Xmatrix.build ~exec ?reuse:xreuse ~lists:(edges, upper) cands neighbors
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

let slice ctx ids =
  let rows a = Array.map (fun i -> a.(i)) ids in
  let local = Array.make (Array.length ctx.cands) (-1) in
  Array.iteri (fun k i -> local.(i) <- k) ids;
  (* [ids] ascending keeps every renumbered row ascending. *)
  let neighbors =
    Array.map
      (fun i ->
        Array.of_list
          (Array.fold_right
             (fun m acc -> if local.(m) >= 0 then local.(m) :: acc else acc)
             ctx.neighbors.(i) []))
      ids
  in
  let cands = rows ctx.cands in
  { ctx with
    cands;
    bboxes = rows ctx.bboxes;
    neighbors;
    elec_idx = rows ctx.elec_idx;
    xmat = Xmatrix.build cands neighbors;
    thermal =
      Option.map
        (fun th -> { th with penalty = rows th.penalty; tcost = rows th.tcost })
        ctx.thermal }

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
