open Operon_geom
open Operon_optical
open Operon_solver
open Operon_util

type result = {
  choice : int array;
  power : float;
  proven : bool;
  components : int;
  timed_out : int;
  nodes : int;
  lp_solves : int;
  pivots : int;
  refactorizations : int;
  blocks_solved : int;
  blocks_skipped : int;
  elapsed : float;
}

(* Per-[select] state over all nets, shared by every block program.
   [pos.(i)] is net [i]'s index in the current block (-1 outside it) and
   [seen.(m)] marks a frozen neighbour whose guard rows are already
   built; [solve_block] sets both for its block and clears them again
   before returning, so building a program costs no hash lookups.
   [coupling] is the buffer coupling weights are read into, grown on
   demand.

   [terms.(m)] caches the crossing terms of net [m] at [current.(m)]
   against every neighbour at its current candidate, [[||]] until read:
   the loss [Xmatrix.add_losses] adds for slot [k] and path [q] sits at
   [k * paths + q]. Terms start at -0.0, the exact additive identity
   ([x +. -0.0 = x] for every [x]), which a zero count leaves in place,
   so adding every term equals adding only the non-zero ones. A net's
   terms are dropped whenever it or a neighbour changes choice
   ([set_choice]); a guard constant therefore folds exactly the floats a
   fresh read of its frozen slots would add, in the same order. *)
type scratch = {
  pos : int array;
  seen : bool array;
  terms : float array array;
  mutable coupling : float array;
}

(* Every change to [current] after the start goes through here. *)
let set_choice sc neighbors current i j =
  if current.(i) <> j then begin
    current.(i) <- j;
    sc.terms.(i) <- [||];
    Array.iter (fun m -> sc.terms.(m) <- [||]) neighbors.(i)
  end

(* Solve the Formula (3) ILP for the nets of [block], with every net
   outside the block frozen at [current]. Frozen neighbours contribute
   constants to the block nets' path constraints, and the frozen nets'
   own paths become x-linear rows so a block move can never break them —
   the invariant "the global selection stays feasible" holds after every
   block. The program reads [current] only within two hops of the block.
   Returns whether optimality was proven, and the solver statistics. *)
let solve_block ?(max_cands_per_net = max_int) ?(max_pivots = max_int)
    ?(core = Solver.Sparse) ctx sc ~budget ~current block =
  let params = ctx.Selection.params in
  let l_max = params.Params.l_max in
  let cands = ctx.Selection.cands and neighbors = ctx.Selection.neighbors in
  let pos = sc.pos in
  Array.iteri (fun b i -> pos.(i) <- b) block;
  let in_block m = pos.(m) >= 0 in
  (* Crossing losses read once per neighbour slot and added path by path
     onto [sums], each path's terms in neighbour order. A candidate
     without optical paths reads nothing. *)
  let xmat = ctx.Selection.xmat and bundled = ctx.Selection.bundled in
  let add_losses sums ~i ~k ~j ~m ~n =
    if Array.length sums > 0 then Xmatrix.add_losses xmat bundled ~i ~k ~j ~m ~n sums 0
  in
  (* Admissible candidates per block net: the frozen-crossing-adjusted
     intrinsic loss must leave room under the budget. The current choice
     and the electrical fallback always qualify. To keep the linearized
     model dense-simplex-sized, only the cheapest few candidates per net
     enter the block program (the rest are dominated in practice). *)
  let thermal = ctx.Selection.thermal in
  let frozen_intrinsic i j =
    let c = cands.(i).(j) in
    let frozen = Array.make (Array.length c.Candidate.paths) 0.0 in
    Array.iteri
      (fun k m ->
        if not (in_block m) then add_losses frozen ~i ~k ~j ~m ~n:current.(m))
      neighbors.(i);
    Array.mapi
      (fun p (path : Candidate.path) ->
        match thermal with
        | None -> path.Candidate.intrinsic_loss +. frozen.(p)
        | Some t ->
            path.Candidate.intrinsic_loss +. frozen.(p)
            +. t.Selection.penalty.(i).(j).(p))
      c.Candidate.paths
  in
  let admissible =
    Array.map
      (fun i ->
        let js = ref [] in
        Array.iteri
          (fun j _ ->
            let adjusted = frozen_intrinsic i j in
            if Array.for_all (fun l -> l <= l_max +. 1e-9) adjusted
               || j = current.(i)
            then js := (j, adjusted) :: !js)
          cands.(i);
        let all = List.rev !js in
        let keep =
          List.sort
            (fun (a, _) (b, _) ->
              Float.compare (Selection.objective ctx i a)
                (Selection.objective ctx i b))
            all
          |> List.filteri (fun rank _ -> rank < max_cands_per_net)
        in
        let keep =
          if List.exists (fun (j, _) -> j = current.(i)) keep then keep
          else
            keep
            @ List.filter (fun (j, _) -> j = current.(i)) all
        in
        (i, keep))
      block
  in
  (* Variable layout: x variables per admissible candidate, then y.
     [x_var.(pos.(i)).(j)] is candidate (i, j)'s variable, -1 when the
     candidate is not admissible. *)
  let nx = ref 0 in
  let x_var =
    Array.map
      (fun (i, js) ->
        let vars = Array.make (Array.length cands.(i)) (-1) in
        List.iter
          (fun (j, _) ->
            vars.(j) <- !nx;
            incr nx)
          js;
        vars)
      admissible
  in
  let xv i j = x_var.(pos.(i)).(j) in
  let nadm = Array.map (fun (_, js) -> List.length js) admissible in
  let y_var = Hashtbl.create 64 in
  let ny = ref 0 in
  let y_of a b =
    let key = if a <= b then (a, b) else (b, a) in
    match Hashtbl.find_opt y_var key with
    | Some v -> v
    | None ->
        let v = !ny in
        Hashtbl.add y_var key v;
        incr ny;
        v
  in
  (* The block nets adjacent to a net, in slot order: [block_slots i]
     stores the [s]-th one's slot in [i]'s row at [slot_k.(s)] and the net
     at [slot_m.(s)], and returns their count. Each block net is looked up
     in [i]'s ascending row, so the cost follows the block's size rather
     than [i]'s degree. *)
  let sorted_block = Array.copy block in
  Array.sort Int.compare sorted_block;
  let slot_k = Array.make (Array.length block) 0 in
  let slot_m = Array.make (Array.length block) 0 in
  let block_slots i =
    let ns = ref 0 in
    Array.iter
      (fun m ->
        let k = Xmatrix.find_slot neighbors.(i) m in
        if k >= 0 then begin
          slot_k.(!ns) <- k;
          slot_m.(!ns) <- m;
          incr ns
        end)
      sorted_block;
    !ns
  in
  (* The coupling of candidate (i, j)'s [np] paths against every
     admissible candidate of the first [ns] block slots, read into
     [sc.coupling] (valid until the next call): one read per (net,
     candidate) pair in slot then candidate order, the [r]-th pair owning
     entries [r * np] to [r * np + np - 1]. Entries start at -0.0, which
     [Xmatrix.add_losses] keeps for a zero count and replaces by exactly
     the count's bundled loss otherwise (-0.0 +. x = x for every
     x >= +0.0), so a clear sign bit marks a non-zero count even where
     its loss is +0.0. *)
  let read_coupling ~i ~j ~np ns =
    let pairs = ref 0 in
    for s = 0 to ns - 1 do
      pairs := !pairs + nadm.(pos.(slot_m.(s)))
    done;
    let size = !pairs * np in
    if Array.length sc.coupling < size then
      sc.coupling <- Array.make (Stdlib.max size (2 * Array.length sc.coupling)) 0.0;
    let w = sc.coupling in
    Array.fill w 0 size (-0.0);
    if np > 0 then begin
      let off = ref 0 in
      for s = 0 to ns - 1 do
        let k = slot_k.(s) and m = slot_m.(s) in
        let vars = x_var.(pos.(m)) in
        for n = 0 to Array.length vars - 1 do
          if vars.(n) >= 0 then begin
            Xmatrix.add_losses xmat bundled ~i ~k ~j ~m ~n w !off;
            off := !off + np
          end
        done
      done
    end;
    w
  in
  (* Coupling terms of path [p], the last pair read first:
     [term m n loss] for every pair crossing [p]. *)
  let coupling w ~np ns p term =
    let terms = ref [] and off = ref p in
    for s = 0 to ns - 1 do
      let m = slot_m.(s) in
      let vars = x_var.(pos.(m)) in
      for n = 0 to Array.length vars - 1 do
        if vars.(n) >= 0 then begin
          let x = w.(!off) in
          if not (Float.sign_bit x) then terms := term m n x :: !terms;
          off := !off + np
        end
      done
    done;
    !terms
  in
  (* Path rows of block candidates: adjusted intrinsic * x + coupling to
     other block nets via y. *)
  let block_rows = ref [] in
  Array.iter
    (fun (i, js) ->
      let ns = block_slots i in
      List.iter
        (fun (j, adjusted) ->
          let np = Array.length adjusted in
          let w = read_coupling ~i ~j ~np ns in
          Array.iteri
            (fun p intrinsic ->
              let terms = coupling w ~np ns p (fun m n w -> (y_of (i, j) (m, n), w)) in
              if terms <> [] then block_rows := ((i, j), intrinsic, terms) :: !block_rows)
            adjusted)
        js)
    admissible;
  (* Guard rows for frozen neighbours' paths: their loss must stay within
     budget as block nets move. Each row's constant is the path's
     intrinsic loss (plus its thermal penalty) plus the crossings from all
     non-block neighbours of m, which are frozen too: m's cached terms,
     slot by slot, skipping block slots. *)
  let guard_terms m jm np =
    if Array.length sc.terms.(m) = 0 then begin
      let row = neighbors.(m) in
      let t = Array.make (Array.length row * np) (-0.0) in
      Array.iteri
        (fun k f -> Xmatrix.add_losses xmat bundled ~i:m ~k ~j:jm ~m:f ~n:current.(f) t (k * np))
        row;
      sc.terms.(m) <- t
    end;
    sc.terms.(m)
  in
  let frozen_rows = ref [] in
  let seen = sc.seen in
  let seen_list = ref [] in
  Array.iter
    (fun i ->
      Array.iter
        (fun m ->
          if (not (in_block m)) && not seen.(m) then begin
            seen.(m) <- true;
            seen_list := m :: !seen_list;
            let jm = current.(m) in
            let np = Array.length cands.(m).(jm).Candidate.paths in
            if np > 0 then begin
              let const =
                Array.mapi
                  (fun q (path : Candidate.path) ->
                    match thermal with
                    | None -> path.Candidate.intrinsic_loss
                    | Some t ->
                        path.Candidate.intrinsic_loss +. t.Selection.penalty.(m).(jm).(q))
                  cands.(m).(jm).Candidate.paths
              in
              let t = guard_terms m jm np in
              let row = neighbors.(m) in
              for k = 0 to Array.length row - 1 do
                if not (in_block row.(k)) then
                  for q = 0 to np - 1 do
                    const.(q) <- const.(q) +. t.((k * np) + q)
                  done
              done;
              let ns = block_slots m in
              let w = read_coupling ~i:m ~j:jm ~np ns in
              Array.iteri
                (fun q c ->
                  let terms = coupling w ~np ns q (fun k n w -> (xv k n, w)) in
                  if terms <> [] then frozen_rows := (c, terms) :: !frozen_rows)
                const
            end
          end)
        neighbors.(i))
    block;
  List.iter (fun m -> seen.(m) <- false) !seen_list;
  let total_vars = Stdlib.max 1 (!nx + !ny) in
  let yv idx = !nx + idx in
  (* Assemble the whole program as one immutable Problem: minimize the
     selected candidates' power; x binaries carry their [0,1] range as
     variable bounds (no synthetic bound rows), the y product variables
     stay continuous and non-negative. *)
  let obj =
    Array.to_list admissible
    |> List.concat_map (fun (i, js) ->
           List.map
             (fun (j, _) -> (xv i j, Selection.objective ctx i j))
             js)
  in
  let pick_rows =
    Array.to_list admissible
    |> List.map (fun (i, js) ->
           (List.map (fun (j, _) -> (xv i j, 1.0)) js, Problem.Eq, 1.0))
  in
  let path_rows =
    List.map
      (fun ((i, j), intrinsic, terms) ->
        ( (xv i j, intrinsic) :: List.map (fun (y, w) -> (yv y, w)) terms,
          Problem.Le, l_max ))
      !block_rows
  in
  let guard_rows =
    List.map
      (fun (const, terms) -> (terms, Problem.Le, l_max -. const))
      !frozen_rows
  in
  let link_rows = ref [] in
  Hashtbl.iter
    (fun ((i, j), (m, n)) y ->
      link_rows :=
        ([ (xv i j, 1.0); (xv m n, 1.0); (yv y, -1.0) ], Problem.Le, 1.0)
        :: !link_rows)
    y_var;
  let rows = pick_rows @ path_rows @ guard_rows @ !link_rows in
  let upper = List.init !nx (fun v -> (v, 1.0)) in
  let integer = List.init !nx (fun v -> v) in
  let problem = Problem.of_rows ~nvars:total_vars ~obj ~upper ~integer rows in
  (* Incumbent: the current (feasible) selection restricted to the block. *)
  let seed_values = Array.make total_vars 0.0 in
  Array.iter (fun i -> seed_values.(xv i current.(i)) <- 1.0) block;
  Hashtbl.iter
    (fun ((i, j), (m, n)) y ->
      if current.(i) = j && current.(m) = n then seed_values.(yv y) <- 1.0)
    y_var;
  let incumbent : Solver.solution option =
    if Problem.feasible problem seed_values then
      Some
        { Solver.objective = Problem.eval_objective problem seed_values;
          values = seed_values }
    else None
  in
  let res =
    Solver.solve
      ~opts:(Solver.opts ~core ~budget ~max_pivots ?incumbent ())
      problem
  in
  let stats = res.Solver.Result.stats in
  let adopt (sol : Solver.solution) =
    Array.iter
      (fun (i, js) ->
        let best = ref current.(i) and best_val = ref 0.5 in
        List.iter
          (fun (j, _) ->
            let v = sol.Solver.values.(xv i j) in
            if v > !best_val then begin
              best_val := v;
              best := j
            end)
          js;
        set_choice sc neighbors current i !best)
      admissible
  in
  let proven =
    match res.Solver.Result.status with
    | Solver.Optimal sol ->
        adopt sol;
        true
    | Solver.Feasible sol ->
        adopt sol;
        false
    | Solver.Infeasible | Solver.Unbounded | Solver.Unknown -> false
  in
  Array.iter (fun i -> pos.(i) <- -1) block;
  (proven, stats)

(* Split an oversized component into blocks of at most [max_block]
   consecutive nets in bounding-box-centre order ([Point.compare]: by x,
   then y), so each block is a narrow vertical strip of the component. *)
let blocks_of_component ctx comp ~max_block =
  let keyed =
    Array.map
      (fun i ->
        let center =
          match ctx.Selection.bboxes.(i) with
          | Some b -> Rect.center b
          | None -> Point.origin
        in
        (center, i))
      comp
  in
  Array.sort
    (fun (a, _) (b, _) -> Point.compare a b)
    keyed;
  let nets = Array.map snd keyed in
  let n = Array.length nets in
  let nblocks = (n + max_block - 1) / max_block in
  List.init nblocks (fun b ->
      let lo = b * max_block in
      let hi = Stdlib.min n (lo + max_block) in
      Array.sub nets lo (hi - lo))

let select ?(budget_seconds = 3000.0) ?(max_pivots = max_int)
    ?(max_component_vars = 150) ?(core = Solver.Sparse) ?initial ctx =
  let t0 = Timer.now () in
  (* Always-feasible starting point: repaired greedy — or, warm starting
     (ECO), a sanitized previous selection when it is still feasible
     under this context. Either way [current] is feasible, which the
     block solver's incumbent logic requires. *)
  let start =
    match Option.map (Selection.sanitize_initial ctx) initial with
    | Some (Some w) when Selection.feasible ctx w -> w
    | _ -> Selection.greedy ctx
  in
  let current = Selection.polish ctx start in
  let boxes =
    Array.map
      (function
        | Some b -> b
        | None -> Rect.make ~xmin:(-1e9) ~ymin:(-1e9) ~xmax:(-1e9) ~ymax:(-1e9))
      ctx.Selection.bboxes
  in
  let comps = Crossing.interaction_components boxes in
  (* The placeholder boxes all collide at (-1e9, -1e9): split that bucket
     back into singletons. *)
  let comps =
    Array.to_list comps
    |> List.concat_map (fun comp ->
           let real, fake =
             Array.to_list comp
             |> List.partition (fun i -> ctx.Selection.bboxes.(i) <> None)
           in
           let singles = List.map (fun i -> [| i |]) fake in
           match real with
           | [] -> singles
           | _ -> Array.of_list real :: singles)
    |> Array.of_list
  in
  let proven = ref true and timed_out = ref 0 in
  let nodes = ref 0 and lp_solves = ref 0 in
  let pivots = ref 0 and refactorizations = ref 0 in
  let absorb (s : Solver.stats) =
    nodes := !nodes + s.Solver.nodes;
    lp_solves := !lp_solves + s.Solver.lp_solves;
    pivots := !pivots + s.Solver.pivots;
    refactorizations := !refactorizations + s.Solver.refactorizations
  in
  let blocks_solved = ref 0 and blocks_skipped = ref 0 in
  let n = Array.length ctx.Selection.cands in
  let sc =
    { pos = Array.make n (-1); seen = Array.make n false; terms = Array.make n [||];
      coupling = [||] }
  in
  (* Descent bookkeeping: each net's block index in the component under
     descent, -1 elsewhere. *)
  let block_of = Array.make n (-1) in
  let remaining = ref (Array.length comps) in
  let overall = Timer.budget budget_seconds in
  Array.iter
    (fun comp ->
      let comp_budget_s =
        Float.max 0.05 (Timer.remaining overall /. float_of_int (Stdlib.max 1 !remaining))
      in
      decr remaining;
      if Array.length comp = 1 && Array.length ctx.Selection.neighbors.(comp.(0)) = 0
      then begin
        (* Isolated net: its intrinsic-feasible minimum is exact. *)
        let i = comp.(0) in
        let best = ref 0 in
        Array.iteri
          (fun j _ ->
            if Selection.objective ctx i j < Selection.objective ctx i !best
            then best := j)
          ctx.Selection.cands.(i);
        set_choice sc ctx.Selection.neighbors current i !best
      end
      else begin
        let var_estimate =
          Array.fold_left
            (fun acc i -> acc + Array.length ctx.Selection.cands.(i))
            0 comp
        in
        let budget = Timer.budget comp_budget_s in
        if var_estimate <= max_component_vars then begin
          let ok, stats = solve_block ~max_pivots ~core ctx sc ~budget ~current comp in
          absorb stats;
          if not ok then begin
            proven := false;
            incr timed_out
          end
        end
        else begin
          (* Oversized component: block-coordinate descent with exact
             block ILPs. The result is an incumbent, never a proof —
             reproducing the paper's time-limit rows. A block's program
             reads [current] only within two hops of its nets, so a block
             is solved again only when a net that close changed choice
             since its last solve, or that solve was not proven optimal:
             otherwise the same program and incumbent would return the
             same answer, which changes nothing. *)
          proven := false;
          incr timed_out;
          let max_block = 6 in
          let blocks = Array.of_list (blocks_of_component ctx comp ~max_block) in
          Array.iteri (fun b block -> Array.iter (fun i -> block_of.(i) <- b) block) blocks;
          let dirty = Array.make (Array.length blocks) true in
          let mark i = if block_of.(i) >= 0 then dirty.(block_of.(i)) <- true in
          let changed i =
            mark i;
            Array.iter
              (fun m ->
                mark m;
                Array.iter mark ctx.Selection.neighbors.(m))
              ctx.Selection.neighbors.(i)
          in
          let passes = 2 in
          let per_solve =
            comp_budget_s /. float_of_int (Stdlib.max 1 (passes * Array.length blocks))
          in
          for _ = 1 to passes do
            Array.iteri
              (fun b block ->
                if not dirty.(b) then incr blocks_skipped
                else if not (Timer.expired budget) then begin
                  dirty.(b) <- false;
                  let before = Array.map (fun i -> current.(i)) block in
                  let block_budget = Timer.budget per_solve in
                  let ok, stats =
                    solve_block ~max_cands_per_net:5 ~max_pivots ~core ctx sc
                      ~budget:block_budget ~current block
                  in
                  absorb stats;
                  incr blocks_solved;
                  if not ok then dirty.(b) <- true;
                  Array.iteri (fun x i -> if current.(i) <> before.(x) then changed i) block
                end)
              blocks
          done;
          Array.iter (fun i -> block_of.(i) <- -1) comp
        end
      end)
    comps;
  (* Safety net: never return an infeasible selection. *)
  let choice =
    if Selection.feasible ctx current then current else Selection.polish ctx current
  in
  { choice;
    power = Selection.power ctx choice;
    proven = !proven;
    components = Array.length comps;
    timed_out = !timed_out;
    nodes = !nodes;
    lp_solves = !lp_solves;
    pivots = !pivots;
    refactorizations = !refactorizations;
    blocks_solved = !blocks_solved;
    blocks_skipped = !blocks_skipped;
    elapsed = Timer.now () -. t0 }
