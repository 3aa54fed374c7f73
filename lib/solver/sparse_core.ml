(* Revised primal simplex on sparse columns with implicitly bounded
   variables.

   The problem arrives as Problem.t (CSC columns, per-variable bounds).
   [prepare] standardizes it once per solve tree: one slack column per
   row turns every relation into an equality

     A x + s = b      with   Le: s in [0, +inf)
                             Ge: s in (-inf, 0]
                             Eq: s fixed at [0, 0]

   so a basis is any m-subset of the n = nvars + m columns. The basis
   inverse is never formed: it is an LU factorization (left-looking,
   partial pivoting, sparse column storage) composed with a product-form
   eta file. Each pivot appends one eta; after [max_etas] updates — or
   on a numerically small pivot — the basis is refactorized from
   scratch and the basic values are recomputed to flush drift.

   Feasibility is reached by a composite (artificial-free) phase 1: the
   infeasibility cost g (+/-1 per out-of-bound basic variable, re-derived
   every iteration) is minimized until no basic variable violates its
   bounds. Because phase 1 starts from *any* basis, the same entry point
   serves cold starts (all-slack basis) and branch-and-bound warm starts
   from the parent node's basis after a bound tightening.

   Pricing is Dantzig (most negative reduced cost) with Bland's
   least-index rule as the anti-cycling fallback after a degeneracy
   streak, mirroring the dense core. Bound flips (a nonbasic variable
   jumping to its opposite finite bound without a basis change) count as
   pivots so the [max_pivots] fault-tolerance budget keeps its meaning. *)

type std = {
  m : int; (* rows *)
  nstruct : int; (* structural variables *)
  n : int; (* nstruct + m columns including slacks *)
  colp : int array; (* n + 1 *)
  rowi : int array;
  vals : float array;
  obj : float array; (* length n, slacks 0 *)
  base_lo : float array; (* length n: structural bounds + slack bounds *)
  base_up : float array;
  rhs : float array;
}

let prepare problem =
  let m = Problem.nrows problem in
  let nstruct = Problem.nvars problem in
  let n = nstruct + m in
  (* Count structural nonzeros. *)
  let nnz = ref 0 in
  for v = 0 to nstruct - 1 do
    Problem.iter_col problem v (fun _ _ -> incr nnz)
  done;
  let colp = Array.make (n + 1) 0 in
  let rowi = Array.make (!nnz + m) 0 in
  let vals = Array.make (!nnz + m) 0.0 in
  let k = ref 0 in
  for v = 0 to nstruct - 1 do
    colp.(v) <- !k;
    Problem.iter_col problem v (fun r c ->
        rowi.(!k) <- r;
        vals.(!k) <- c;
        incr k)
  done;
  for r = 0 to m - 1 do
    colp.(nstruct + r) <- !k;
    rowi.(!k) <- r;
    vals.(!k) <- 1.0;
    incr k
  done;
  colp.(n) <- !k;
  let obj = Array.make n 0.0 in
  let base_lo = Array.make n 0.0 in
  let base_up = Array.make n 0.0 in
  for v = 0 to nstruct - 1 do
    obj.(v) <- Problem.objective_coeff problem v;
    base_lo.(v) <- Problem.lower_bound problem v;
    base_up.(v) <- Problem.upper_bound problem v
  done;
  let rhs = Array.make m 0.0 in
  for r = 0 to m - 1 do
    rhs.(r) <- Problem.row_rhs problem r;
    let j = nstruct + r in
    match Problem.row_relation problem r with
    | Problem.Le ->
        base_lo.(j) <- 0.0;
        base_up.(j) <- infinity
    | Problem.Ge ->
        base_lo.(j) <- neg_infinity;
        base_up.(j) <- 0.0
    | Problem.Eq ->
        base_lo.(j) <- 0.0;
        base_up.(j) <- 0.0
  done;
  { m; nstruct; n; colp; rowi; vals; obj; base_lo; base_up; rhs }

(* --- basis state --- *)

let st_lower = 0
let st_upper = 1
let st_basic = 2
let st_free = 3

type basis = { basic : int array; (* m *) stat : int array (* n *) }

type result =
  | Optimal of float array (* structural values *)
  | Infeasible
  | Unbounded
  | Aborted

(* --- LU factorization of the basis (P B = L U) --- *)

exception Singular

type lu = {
  perm : int array; (* elimination position -> pivot row *)
  pos_of_row : int array; (* inverse of perm *)
  lcol : (int * float) array array; (* multipliers per position, raw rows *)
  ucol : (int * float) array array; (* strictly-upper entries (pos, val) *)
  udiag : float array;
}

(* Left-looking elimination that touches only the rows a column reaches.
   It performs the dense sweep's arithmetic exactly: that sweep clears a
   full work column per basis column, applies every earlier elimination
   whose pivot row is non-zero in position order, reads the strictly
   upper entries off the pivoted rows, and pivots on the largest |w|
   among the unpivoted rows (lowest row on ties). Here [w] is zero
   outside the rows the column has written ([touched], reset afterwards),
   and every test of that sweep skips a zero, so only touched rows are
   visited. Elimination k writes only rows that were unpivoted at step k,
   which hold a later position or none yet, so a min-heap of the touched
   rows' positions releases the eliminations in ascending order, each
   after every write to its pivot row. [perm], L, U and every
   [Singular] verdict are bit-identical to the dense sweep, and the
   all-slack identity basis costs O(m). *)
let factorize m get_col basic =
  let perm = Array.make m (-1) in
  let pos_of_row = Array.make m (-1) in
  let lcol = Array.make m [||] in
  let ucol = Array.make m [||] in
  let udiag = Array.make m 0.0 in
  let w = Array.make m 0.0 in
  let is_touched = Array.make m false in
  let touched = Array.make m 0 in
  let nt = ref 0 in
  let heap = Array.make m 0 in
  let nh = ref 0 in
  let push k =
    let i = ref !nh in
    incr nh;
    while !i > 0 && heap.((!i - 1) / 2) > k do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- k
  in
  let pop () =
    let top = heap.(0) in
    decr nh;
    let last = heap.(!nh) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !nh then sifting := false
      else begin
        let c = if l + 1 < !nh && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let touch r =
    if not is_touched.(r) then begin
      is_touched.(r) <- true;
      touched.(!nt) <- r;
      incr nt;
      if pos_of_row.(r) >= 0 then push pos_of_row.(r)
    end
  in
  let scatter r v =
    touch r;
    w.(r) <- w.(r) +. v
  in
  let upos = Array.make m 0 and uval = Array.make m 0.0 in
  for j = 0 to m - 1 do
    nt := 0;
    get_col basic.(j) scatter;
    (* Apply previous eliminations in order. *)
    let nu = ref 0 in
    while !nh > 0 do
      let k = pop () in
      let t = w.(perm.(k)) in
      if t <> 0.0 then begin
        let col = lcol.(k) in
        for e = 0 to Array.length col - 1 do
          let r, l = col.(e) in
          touch r;
          w.(r) <- w.(r) -. (l *. t)
        done;
        upos.(!nu) <- k;
        uval.(!nu) <- t;
        incr nu
      end
    done;
    if !nu > 0 then ucol.(j) <- Array.init !nu (fun e -> (upos.(e), uval.(e)));
    (* Partial pivoting among rows without a pivot yet. *)
    let p = ref (-1) and best = ref 0.0 in
    for e = 0 to !nt - 1 do
      let r = touched.(e) in
      if pos_of_row.(r) = -1 then begin
        let a = Float.abs w.(r) in
        if a > !best || (a = !best && r < !p) then begin
          best := a;
          p := r
        end
      end
    done;
    if !p = -1 || !best < 1e-11 then raise Singular;
    let p = !p in
    udiag.(j) <- w.(p);
    perm.(j) <- p;
    pos_of_row.(p) <- j;
    let nl = ref 0 in
    for e = 0 to !nt - 1 do
      let r = touched.(e) in
      if pos_of_row.(r) = -1 && w.(r) <> 0.0 then begin
        upos.(!nl) <- r;
        incr nl
      end
    done;
    if !nl > 0 then begin
      let rows = Array.sub upos 0 !nl in
      Array.sort Int.compare rows;
      lcol.(j) <- Array.map (fun r -> (r, w.(r) /. w.(p))) rows
    end;
    for e = 0 to !nt - 1 do
      let r = touched.(e) in
      w.(r) <- 0.0;
      is_touched.(r) <- false
    done
  done;
  { perm; pos_of_row; lcol; ucol; udiag }

(* Solve B x = v into [x], indexed by basis position. [v] is row-indexed
   and consumed. *)
let lu_ftran lu v x =
  let m = Array.length lu.perm in
  for k = 0 to m - 1 do
    let t = v.(lu.perm.(k)) in
    if t <> 0.0 then begin
      let col = lu.lcol.(k) in
      for e = 0 to Array.length col - 1 do
        let r, l = col.(e) in
        v.(r) <- v.(r) -. (l *. t)
      done
    end
  done;
  for k = 0 to m - 1 do
    x.(k) <- v.(lu.perm.(k))
  done;
  (* Back substitution in place: column j's strictly upper entries sit
     at positions below j, which are not solved yet. *)
  for j = m - 1 downto 0 do
    let xj = x.(j) /. lu.udiag.(j) in
    x.(j) <- xj;
    if xj <> 0.0 then begin
      let col = lu.ucol.(j) in
      for e = 0 to Array.length col - 1 do
        let k, u = col.(e) in
        x.(k) <- x.(k) -. (u *. xj)
      done
    end
  done

(* Solve B^T y = c into [y], which is row-indexed. [c] is indexed by
   basis position and consumed: both triangular solves run in place in
   it, U^T upward (reading solved positions below j) and L^T downward
   (reading solved positions above k, where the rows of [lcol.(k)] were
   pivoted). *)
let lu_btran lu c y =
  let m = Array.length lu.perm in
  for j = 0 to m - 1 do
    let s = ref c.(j) in
    let col = lu.ucol.(j) in
    for e = 0 to Array.length col - 1 do
      let k, u = col.(e) in
      s := !s -. (u *. c.(k))
    done;
    c.(j) <- !s /. lu.udiag.(j)
  done;
  for k = m - 1 downto 0 do
    let s = ref c.(k) in
    let col = lu.lcol.(k) in
    for e = 0 to Array.length col - 1 do
      let r, l = col.(e) in
      s := !s -. (l *. c.(lu.pos_of_row.(r)))
    done;
    c.(k) <- !s
  done;
  for k = 0 to m - 1 do
    y.(lu.perm.(k)) <- c.(k)
  done

(* --- product-form eta updates (B_new = B_old * E) --- *)

type eta = {
  e_pos : int;
  e_piv : float;
  e_ents : (int * float) array; (* positions <> e_pos *)
}

let eta_ftran e x =
  let xr = x.(e.e_pos) /. e.e_piv in
  x.(e.e_pos) <- xr;
  if xr <> 0.0 then
    for k = 0 to Array.length e.e_ents - 1 do
      let i, w = e.e_ents.(k) in
      x.(i) <- x.(i) -. (w *. xr)
    done

let eta_btran e y =
  let s = ref y.(e.e_pos) in
  for k = 0 to Array.length e.e_ents - 1 do
    let i, w = e.e_ents.(k) in
    s := !s -. (w *. y.(i))
  done;
  y.(e.e_pos) <- !s /. e.e_piv

(* --- tolerances --- *)

let feas_tol = 1e-7
let dj_eps = 1e-9
let step_eps = 1e-9
let pivot_tol = 1e-8 (* below this, refactorize before trusting the pivot *)
let max_etas = 64

let solve std ~lower ~upper ?start ~max_pivots ~pivots ~refactors () =
  let m = std.m and n = std.n and nstruct = std.nstruct in
  let lo = Array.copy std.base_lo and up = Array.copy std.base_up in
  Array.blit lower 0 lo 0 nstruct;
  Array.blit upper 0 up 0 nstruct;
  let iter_col j f =
    for k = std.colp.(j) to std.colp.(j + 1) - 1 do
      f std.rowi.(k) std.vals.(k)
    done
  in
  (* Default nonbasic status for the current bounds. *)
  let default_stat j =
    if Float.is_finite lo.(j) then st_lower
    else if Float.is_finite up.(j) then st_upper
    else st_free
  in
  if m = 0 then begin
    (* No rows: each variable sits at its cheapest bound. *)
    let x = Array.make nstruct 0.0 in
    let unbounded = ref false in
    for v = 0 to nstruct - 1 do
      let c = std.obj.(v) in
      if c > dj_eps then
        if Float.is_finite lo.(v) then x.(v) <- lo.(v) else unbounded := true
      else if c < -.dj_eps then
        if Float.is_finite up.(v) then x.(v) <- up.(v) else unbounded := true
      else x.(v) <- (if Float.is_finite lo.(v) then lo.(v)
                     else if Float.is_finite up.(v) then Float.min up.(v) 0.0
                     else 0.0)
    done;
    let st = Array.init n default_stat in
    let b = { basic = [||]; stat = st } in
    if !unbounded then (Unbounded, b) else (Optimal x, b)
  end
  else begin
    (* ---- basis setup: warm start when the snapshot is coherent ---- *)
    let cold () =
      let basic = Array.init m (fun r -> nstruct + r) in
      let stat = Array.init n default_stat in
      for r = 0 to m - 1 do
        stat.(nstruct + r) <- st_basic
      done;
      (basic, stat)
    in
    let basic, stat =
      match start with
      | Some b when Array.length b.basic = m && Array.length b.stat = n ->
          let basic = Array.copy b.basic and stat = Array.copy b.stat in
          let ok = ref true in
          let seen = Array.make n false in
          Array.iter
            (fun j ->
              if j < 0 || j >= n || seen.(j) then ok := false
              else begin
                seen.(j) <- true;
                if stat.(j) <> st_basic then ok := false
              end)
            basic;
          if !ok then begin
            (* Re-anchor nonbasic statuses to the (possibly tightened)
               bounds of this node. *)
            for j = 0 to n - 1 do
              if stat.(j) <> st_basic then
                if stat.(j) = st_lower && Float.is_finite lo.(j) then ()
                else if stat.(j) = st_upper && Float.is_finite up.(j) then ()
                else stat.(j) <- default_stat j
              else if not seen.(j) then stat.(j) <- default_stat j
            done;
            (basic, stat)
          end
          else cold ()
      | _ -> cold ()
    in
    let nb_value j =
      if stat.(j) = st_lower then lo.(j)
      else if stat.(j) = st_upper then up.(j)
      else 0.0
    in
    let refactorize () = factorize m iter_col basic in
    let lu = ref (try refactorize () with Singular ->
        (* A stale warm-start basis can be singular under the new bounds'
           numerics; restart cold (the slack basis is diagonal). *)
        let b, s = cold () in
        Array.blit b 0 basic 0 m;
        Array.blit s 0 stat 0 n;
        refactorize ())
    in
    (* The eta file, oldest first. *)
    let etas = Array.make max_etas { e_pos = 0; e_piv = 1.0; e_ents = [||] } in
    let neta = ref 0 in
    let ftran v x =
      lu_ftran !lu v x;
      for e = 0 to !neta - 1 do
        eta_ftran etas.(e) x
      done
    in
    let btran c y =
      for e = !neta - 1 downto 0 do
        eta_btran etas.(e) c
      done;
      lu_btran !lu c y
    in
    (* Per-solve scratch, so that an iteration allocates nothing but its
       eta: [cb] holds the pricing costs by basis position and [y] the
       duals by row; [v] holds an entering column by row and [w] its
       [ftran] image by position, which the ratio test and the new eta
       read. *)
    let cb = Array.make m 0.0 and y = Array.make m 0.0 in
    let v = Array.make m 0.0 and w = Array.make m 0.0 in
    let xb = Array.make m 0.0 in
    let recompute_xb () =
      Array.blit std.rhs 0 v 0 m;
      for j = 0 to n - 1 do
        if stat.(j) <> st_basic then begin
          let xj = nb_value j in
          if xj <> 0.0 then iter_col j (fun r a -> v.(r) <- v.(r) -. (a *. xj))
        end
      done;
      ftran v xb
    in
    recompute_xb ();
    let refresh () =
      (match (try Some (refactorize ()) with Singular -> None) with
       | Some f -> lu := f
       | None ->
           (* Should not happen for a basis we just pivoted into; restart
              cold rather than loop on a broken factorization. *)
           let b, s = cold () in
           Array.blit b 0 basic 0 m;
           Array.blit s 0 stat 0 n;
           lu := refactorize ());
      neta := 0;
      incr refactors;
      recompute_xb ()
    in
    let local_pivots = ref 0 in
    let degen_streak = ref 0 in
    let result = ref None in
    (* Hard iteration ceiling: Bland's rule rules out exact cycling, but
       tolerance interplay after a refactorization could still stall; a
       stall degrades to Aborted, never to a wrong answer. *)
    let max_iters = (100 * (n + m)) + 1000 in
    let iters = ref 0 in
    let exception Next in
    while !result = None do
      (try
         incr iters;
         if !iters > max_iters then begin
           result := Some Aborted;
           raise Next
         end;
         (* Phase detection: any basic variable out of bounds puts the
            iteration in (composite) phase 1. *)
         Array.fill cb 0 m 0.0;
         let any_infeas = ref false in
         for p = 0 to m - 1 do
           let j = basic.(p) in
           if xb.(p) < lo.(j) -. feas_tol then begin
             cb.(p) <- -1.0;
             any_infeas := true
           end
           else if xb.(p) > up.(j) +. feas_tol then begin
             cb.(p) <- 1.0;
             any_infeas := true
           end
         done;
         let phase1 = !any_infeas in
         if not phase1 then
           for p = 0 to m - 1 do
             cb.(p) <- std.obj.(basic.(p))
           done;
         btran cb y;
         (* ---- pricing ---- *)
         let use_bland = !degen_streak > 2 * (n + m) in
         let enter = ref (-1) and enter_d = ref 0.0 in
         let best_score = ref dj_eps in
         (for j = 0 to n - 1 do
            if !enter >= 0 && use_bland then ()
            else if stat.(j) <> st_basic
                    && (stat.(j) = st_free || up.(j) > lo.(j))
            then begin
              let d = ref (if phase1 then 0.0 else std.obj.(j)) in
              for k = std.colp.(j) to std.colp.(j + 1) - 1 do
                d := !d -. (y.(std.rowi.(k)) *. std.vals.(k))
              done;
              let d = !d in
              let eligible =
                (stat.(j) = st_lower && d < -.dj_eps)
                || (stat.(j) = st_upper && d > dj_eps)
                || (stat.(j) = st_free && Float.abs d > dj_eps)
              in
              if eligible then
                if use_bland then begin
                  enter := j;
                  enter_d := d
                end
                else if Float.abs d > !best_score then begin
                  best_score := Float.abs d;
                  enter := j;
                  enter_d := d
                end
            end
          done);
         if !enter = -1 then begin
           if phase1 then result := Some Infeasible
           else begin
             (* Optimal: materialize the full point and clamp round-off. *)
             let x = Array.make nstruct 0.0 in
             for v = 0 to nstruct - 1 do
               if stat.(v) <> st_basic then x.(v) <- nb_value v
             done;
             for p = 0 to m - 1 do
               if basic.(p) < nstruct then x.(basic.(p)) <- xb.(p)
             done;
             for v = 0 to nstruct - 1 do
               if x.(v) < lo.(v) then x.(v) <- lo.(v)
               else if x.(v) > up.(v) then x.(v) <- up.(v);
               if Float.abs x.(v) < 1e-11 then x.(v) <- 0.0
             done;
             result := Some (Optimal x)
           end;
           raise Next
         end;
         let q = !enter in
         let dirn =
           if stat.(q) = st_upper then -1.0
           else if stat.(q) = st_free && !enter_d > 0.0 then -1.0
           else 1.0
         in
         Array.fill v 0 m 0.0;
         for k = std.colp.(q) to std.colp.(q + 1) - 1 do
           let r = std.rowi.(k) in
           v.(r) <- v.(r) +. std.vals.(k)
         done;
         ftran v w;
         (* ---- ratio test ----
            The entering variable moves by t >= 0 in direction [dirn];
            basic position p changes at rate [-dirn * w.(p)]. In phase 1
            an infeasible basic variable blocks where it *reaches* the
            bound it violates (the point where its infeasibility cost
            flips), and a basic variable moving deeper past a violated
            bound does not block — total infeasibility still falls at
            rate |d|. *)
         let t_own =
           if stat.(q) = st_free then infinity else up.(q) -. lo.(q)
         in
         let best_t = ref t_own in
         let leave = ref (-1) in
         let leave_to_upper = ref false in
         let leave_w = ref 0.0 in
         for p = 0 to m - 1 do
           let alpha = dirn *. w.(p) in
           if Float.abs alpha > 1e-9 then begin
             let j = basic.(p) in
             let t, to_upper =
               if alpha > 0.0 then begin
                 (* x_B(p) decreases as t grows. *)
                 if phase1 && xb.(p) > up.(j) +. feas_tol then
                   (Float.max 0.0 ((xb.(p) -. up.(j)) /. alpha), true)
                 else if Float.is_finite lo.(j)
                         && not (phase1 && xb.(p) < lo.(j) -. feas_tol)
                 then (Float.max 0.0 ((xb.(p) -. lo.(j)) /. alpha), false)
                 else (infinity, false)
               end
               else begin
                 (* x_B(p) increases as t grows. *)
                 if phase1 && xb.(p) < lo.(j) -. feas_tol then
                   (Float.max 0.0 ((lo.(j) -. xb.(p)) /. -.alpha), false)
                 else if Float.is_finite up.(j)
                         && not (phase1 && xb.(p) > up.(j) +. feas_tol)
                 then (Float.max 0.0 ((up.(j) -. xb.(p)) /. -.alpha), true)
                 else (infinity, false)
               end
             in
             if t < !best_t -. step_eps then begin
               best_t := t;
               leave := p;
               leave_to_upper := to_upper;
               leave_w := Float.abs w.(p)
             end
             else if t <= !best_t +. step_eps && !leave >= 0 then begin
               (* Tie: Bland prefers the least leaving index; otherwise
                  the larger |w| pivot is numerically safer. *)
               if use_bland then begin
                 if basic.(p) < basic.(!leave) then begin
                   best_t := Float.min !best_t t;
                   leave := p;
                   leave_to_upper := to_upper;
                   leave_w := Float.abs w.(p)
                 end
               end
               else if Float.abs w.(p) > !leave_w then begin
                 best_t := Float.min !best_t t;
                 leave := p;
                 leave_to_upper := to_upper;
                 leave_w := Float.abs w.(p)
               end
             end
           end
         done;
         if Float.is_finite !best_t = false then begin
           (* No block in any row and no opposite bound: unbounded ray.
              In phase 1 this is numerically impossible (total
              infeasibility is bounded below); degrade rather than lie. *)
           result := Some (if phase1 then Aborted else Unbounded);
           raise Next
         end;
         if !local_pivots >= max_pivots then begin
           result := Some Aborted;
           raise Next
         end;
         let t = !best_t in
         if !leave = -1 then begin
           (* Bound flip: no basis change. *)
           for p = 0 to m - 1 do
             if w.(p) <> 0.0 then xb.(p) <- xb.(p) -. (t *. dirn *. w.(p))
           done;
           stat.(q) <- (if stat.(q) = st_lower then st_upper else st_lower);
           incr local_pivots;
           incr pivots;
           if t > step_eps then degen_streak := 0 else incr degen_streak
         end
         else begin
           let r = !leave in
           if Float.abs w.(r) < pivot_tol && !neta > 0 then begin
             (* Numerically fragile pivot on a stale eta file: rebuild
                the factorization and retry the iteration. *)
             refresh ();
             raise Next
           end;
           if Float.abs w.(r) < 1e-11 then begin
             result := Some Aborted;
             raise Next
           end;
           let entering_from = if stat.(q) = st_free then 0.0 else nb_value q in
           for p = 0 to m - 1 do
             if w.(p) <> 0.0 then xb.(p) <- xb.(p) -. (t *. dirn *. w.(p))
           done;
           let j_out = basic.(r) in
           stat.(j_out) <- (if !leave_to_upper then st_upper else st_lower);
           basic.(r) <- q;
           stat.(q) <- st_basic;
           xb.(r) <- entering_from +. (dirn *. t);
           (* Eta column is B^-1 A_q = w, independent of direction. *)
           let ents = ref [] in
           for p = m - 1 downto 0 do
             if p <> r && Float.abs w.(p) > 1e-12 then
               ents := (p, w.(p)) :: !ents
           done;
           etas.(!neta) <- { e_pos = r; e_piv = w.(r); e_ents = Array.of_list !ents };
           incr neta;
           incr local_pivots;
           incr pivots;
           if t > step_eps then degen_streak := 0 else incr degen_streak;
           if !neta >= max_etas then refresh ()
         end
       with Next -> ())
    done;
    (Option.get !result, { basic; stat })
  end
