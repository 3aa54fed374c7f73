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

let factorize m get_col basic =
  let perm = Array.make m (-1) in
  let pos_of_row = Array.make m (-1) in
  let lcol = Array.make m [||] in
  let ucol = Array.make m [||] in
  let udiag = Array.make m 0.0 in
  let w = Array.make m 0.0 in
  for j = 0 to m - 1 do
    Array.fill w 0 m 0.0;
    get_col basic.(j) (fun r v -> w.(r) <- w.(r) +. v);
    (* Apply previous eliminations in order. *)
    for k = 0 to j - 1 do
      let t = w.(perm.(k)) in
      if t <> 0.0 then
        Array.iter (fun (r, l) -> w.(r) <- w.(r) -. (l *. t)) lcol.(k)
    done;
    let ul = ref [] in
    for k = j - 1 downto 0 do
      let v = w.(perm.(k)) in
      if v <> 0.0 then ul := (k, v) :: !ul
    done;
    ucol.(j) <- Array.of_list !ul;
    (* Partial pivoting among rows without a pivot yet. *)
    let p = ref (-1) and best = ref 0.0 in
    for r = 0 to m - 1 do
      if pos_of_row.(r) = -1 then begin
        let a = Float.abs w.(r) in
        if a > !best then begin
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
    let ll = ref [] in
    for r = m - 1 downto 0 do
      if pos_of_row.(r) = -1 && w.(r) <> 0.0 then
        ll := (r, w.(r) /. w.(p)) :: !ll
    done;
    lcol.(j) <- Array.of_list !ll
  done;
  { perm; pos_of_row; lcol; ucol; udiag }

(* Solve B x = v. [v] is row-indexed and consumed; the result is indexed
   by basis position. *)
let lu_ftran lu v =
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
  let y = Array.make m 0.0 in
  for k = 0 to m - 1 do
    y.(k) <- v.(lu.perm.(k))
  done;
  let x = Array.make m 0.0 in
  for j = m - 1 downto 0 do
    let xj = y.(j) /. lu.udiag.(j) in
    x.(j) <- xj;
    if xj <> 0.0 then begin
      let col = lu.ucol.(j) in
      for e = 0 to Array.length col - 1 do
        let k, u = col.(e) in
        y.(k) <- y.(k) -. (u *. xj)
      done
    end
  done;
  x

(* Solve B^T y = c. [c] is indexed by basis position and consumed; the
   result is row-indexed. *)
let lu_btran lu c =
  let m = Array.length lu.perm in
  let w = Array.make m 0.0 in
  for j = 0 to m - 1 do
    let s = ref c.(j) in
    let col = lu.ucol.(j) in
    for e = 0 to Array.length col - 1 do
      let k, u = col.(e) in
      s := !s -. (u *. w.(k))
    done;
    w.(j) <- !s /. lu.udiag.(j)
  done;
  let t = Array.make m 0.0 in
  for k = m - 1 downto 0 do
    let s = ref w.(k) in
    let col = lu.lcol.(k) in
    for e = 0 to Array.length col - 1 do
      let r, l = col.(e) in
      s := !s -. (l *. t.(lu.pos_of_row.(r)))
    done;
    t.(k) <- !s
  done;
  let y = Array.make m 0.0 in
  for k = 0 to m - 1 do
    y.(lu.perm.(k)) <- t.(k)
  done;
  y

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
    let etas = ref [] in (* newest first *)
    let neta = ref 0 in
    let ftran v =
      let x = lu_ftran !lu v in
      List.iter (fun e -> eta_ftran e x) (List.rev !etas);
      x
    in
    let btran c =
      List.iter (fun e -> eta_btran e c) !etas;
      lu_btran !lu c
    in
    let xb = Array.make m 0.0 in
    let recompute_xb () =
      let v = Array.copy std.rhs in
      for j = 0 to n - 1 do
        if stat.(j) <> st_basic then begin
          let xj = nb_value j in
          if xj <> 0.0 then iter_col j (fun r a -> v.(r) <- v.(r) -. (a *. xj))
        end
      done;
      Array.blit (ftran v) 0 xb 0 m
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
      etas := [];
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
         let g = Array.make m 0.0 in
         let any_infeas = ref false in
         for p = 0 to m - 1 do
           let j = basic.(p) in
           if xb.(p) < lo.(j) -. feas_tol then begin
             g.(p) <- -1.0;
             any_infeas := true
           end
           else if xb.(p) > up.(j) +. feas_tol then begin
             g.(p) <- 1.0;
             any_infeas := true
           end
         done;
         let phase1 = !any_infeas in
         let cb =
           if phase1 then g
           else Array.init m (fun p -> std.obj.(basic.(p)))
         in
         let y = btran cb in
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
         let v = Array.make m 0.0 in
         iter_col q (fun r a -> v.(r) <- v.(r) +. a);
         let w = ftran v in
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
           etas :=
             { e_pos = r; e_piv = w.(r); e_ents = Array.of_list !ents }
             :: !etas;
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
