(* Tests for the unified solver: the Problem model, the sparse core's
   basis factorization against the dense sweep it replaced, both LP
   cores (sparse revised simplex and the dense tableau parity reference)
   on textbook programs, bounded variables without synthetic rows,
   branch-and-bound against exhaustive enumeration on random 0/1
   programs, and dense-vs-sparse parity on random LPs and ILPs. *)

open Operon_solver

let check_float = Alcotest.(check (float 1e-6))

let lp ?obj ?lower ?upper ?integer ~nvars rows =
  Solver.Problem.of_rows ~nvars ?obj ?lower ?upper ?integer rows

let solve ?(core = Solver.Sparse) ?budget ?max_pivots ?incumbent p =
  Solver.solve ~opts:(Solver.opts ~core ?budget ?max_pivots ?incumbent ()) p

let both name f =
  [ Alcotest.test_case (name ^ " (sparse)") `Quick (fun () -> f Solver.Sparse);
    Alcotest.test_case (name ^ " (dense)") `Quick (fun () -> f Solver.Dense) ]

let objective_of name r =
  match r.Solver.Result.status with
  | Solver.Optimal s -> s.Solver.objective
  | _ -> Alcotest.fail (name ^ ": expected optimal")

let values_of name r =
  match r.Solver.Result.status with
  | Solver.Optimal s -> s.Solver.values
  | _ -> Alcotest.fail (name ^ ": expected optimal")

(* --- problem model --- *)

let test_problem_model () =
  let p =
    lp ~nvars:3 ~obj:[ (0, 2.0) ]
      [ ([ (0, 1.0); (1, 1.0) ], Solver.Problem.Le, 4.0) ]
  in
  Alcotest.(check int) "nvars" 3 (Solver.Problem.nvars p);
  Alcotest.(check int) "nrows" 1 (Solver.Problem.nrows p);
  check_float "objective coeff" 2.0 (Solver.Problem.objective_coeff p 0);
  check_float "default lower" 0.0 (Solver.Problem.lower_bound p 1);
  Alcotest.(check bool) "default upper" true
    (Solver.Problem.upper_bound p 1 = infinity);
  check_float "eval" 2.0 (Solver.Problem.eval_objective p [| 1.0; 0.0; 0.0 |]);
  Alcotest.(check bool) "feasible" true
    (Solver.Problem.feasible p [| 1.0; 3.0; 0.0 |]);
  Alcotest.(check bool) "row violated" false
    (Solver.Problem.feasible p [| 3.0; 3.0; 0.0 |]);
  Alcotest.(check bool) "below lower bound" false
    (Solver.Problem.feasible p [| -1.0; 0.0; 0.0 |])

(* The list-based builder that [Problem.of_rows] replaced: per-variable
   entry lists, stably sorted by row and merged, validated column by
   column, then the right-hand sides. It is the reference for the direct
   CSC transpose: same entries, bounds, relations and right-hand sides
   bit for bit, and the same [Invalid_argument] message on malformed
   input. *)
module Reference = struct
  type column = {
    c_obj : float;
    c_lower : float;
    c_upper : float;
    c_integer : bool;
    c_entries : (int * float) list;
  }

  let column ?(obj = 0.0) ?(lower = 0.0) ?(upper = infinity) ?(integer = false)
      entries =
    if Float.is_nan obj || Float.is_nan lower || Float.is_nan upper then
      invalid_arg "Problem.of_rows: NaN objective or bound";
    if lower > upper then invalid_arg "Problem.of_rows: lower > upper";
    if integer && not (Float.is_finite lower && Float.is_finite upper) then
      invalid_arg "Problem.of_rows: integer variable needs finite bounds";
    List.iter
      (fun (_, c) ->
        if Float.is_nan c then invalid_arg "Problem.of_rows: NaN coefficient")
      entries;
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) entries in
    let merged =
      List.fold_left
        (fun acc (r, c) ->
          match acc with
          | (r', c') :: rest when r' = r -> (r', c' +. c) :: rest
          | _ -> (r, c) :: acc)
        [] sorted
      |> List.rev
    in
    { c_obj = obj; c_lower = lower; c_upper = upper; c_integer = integer;
      c_entries = merged }

  let of_rows ~nvars ?(obj = []) ?(lower = []) ?(upper = []) ?(integer = [])
      rows =
    if nvars <= 0 then invalid_arg "Problem.of_rows: need at least one variable";
    let objs = Array.make nvars 0.0 in
    let lowers = Array.make nvars 0.0 in
    let uppers = Array.make nvars infinity in
    let ints = Array.make nvars false in
    let check v =
      if v < 0 || v >= nvars then
        invalid_arg "Problem.of_rows: variable out of range"
    in
    List.iter (fun (v, c) -> check v; objs.(v) <- c) obj;
    List.iter (fun (v, b) -> check v; lowers.(v) <- b) lower;
    List.iter (fun (v, b) -> check v; uppers.(v) <- b) upper;
    List.iter (fun v -> check v; ints.(v) <- true) integer;
    let entries = Array.make nvars [] in
    List.iteri
      (fun r (coeffs, _, _) ->
        List.iter
          (fun (v, c) -> check v; entries.(v) <- (r, c) :: entries.(v))
          coeffs)
      rows;
    let cols =
      Array.init nvars (fun v ->
          column ~obj:objs.(v) ~lower:lowers.(v) ~upper:uppers.(v)
            ~integer:ints.(v) (List.rev entries.(v)))
    in
    let rows = Array.of_list (List.map (fun (_, rel, rhs) -> (rel, rhs)) rows) in
    Array.iter
      (fun (_, b) ->
        if Float.is_nan b then invalid_arg "Problem.of_rows: NaN right-hand side")
      rows;
    (cols, rows)
end

(* [p] read through the accessors and [iter_col] equals the reference
   bit for bit. *)
let same_as_reference ((cols, rows) : Reference.column array * _) p =
  let module P = Solver.Problem in
  let bits = Int64.bits_of_float in
  let same_float a b = Int64.equal (bits a) (bits b) in
  let entries v =
    let acc = ref [] in
    P.iter_col p v (fun r c -> acc := (r, c) :: !acc);
    List.rev !acc
  in
  P.nvars p = Array.length cols
  && P.nrows p = Array.length rows
  && Array.for_all Fun.id
       (Array.mapi
          (fun v (c : Reference.column) ->
            same_float (P.objective_coeff p v) c.Reference.c_obj
            && same_float (P.lower_bound p v) c.Reference.c_lower
            && same_float (P.upper_bound p v) c.Reference.c_upper
            && P.is_integer p v = c.Reference.c_integer
            && List.equal
                 (fun (r, a) (r', b) -> r = r' && same_float a b)
                 (entries v) c.Reference.c_entries)
          cols)
  && Array.for_all Fun.id
       (Array.mapi
          (fun r (rel, rhs) -> P.row_relation p r = rel && same_float (P.row_rhs p r) rhs)
          rows)

type problem_input = {
  nvars : int;
  obj : (int * float) list;
  lower : (int * float) list;
  upper : (int * float) list;
  integer : int list;
  rows : ((int * float) list * Solver.Problem.relation * float) list;
}

let build_with f (x : problem_input) =
  match f ~nvars:x.nvars ~obj:x.obj ~lower:x.lower ~upper:x.upper ~integer:x.integer x.rows with
  | r -> Ok r
  | exception Invalid_argument msg -> Error msg

let build_reference = build_with (fun ~nvars ~obj ~lower ~upper ~integer rows ->
    Reference.of_rows ~nvars ~obj ~lower ~upper ~integer rows)

let build_problem = build_with (fun ~nvars ~obj ~lower ~upper ~integer rows ->
    Solver.Problem.of_rows ~nvars ~obj ~lower ~upper ~integer rows)

(* Both builders accept [x] and agree, or both reject it with the same
   message. *)
let agrees_with_reference x =
  match (build_reference x, build_problem x) with
  | Ok r, Ok p -> same_as_reference r p
  | Error a, Error b -> a = b
  | _ -> false

let input ?(obj = []) ?(lower = []) ?(upper = []) ?(integer = []) ~nvars rows =
  { nvars; obj; lower; upper; integer; rows }

let malformed =
  let le = Solver.Problem.Le in
  [ ("var out of range", "Problem.of_rows: variable out of range",
     input ~nvars:2 [ ([ (5, 1.0) ], le, 1.0) ]);
    ("lower > upper", "Problem.of_rows: lower > upper",
     input ~nvars:1 ~lower:[ (0, 2.0) ] ~upper:[ (0, 1.0) ] []);
    ("integer needs finite bounds",
     "Problem.of_rows: integer variable needs finite bounds",
     input ~nvars:1 ~integer:[ 0 ] []);
    ("NaN coefficient", "Problem.of_rows: NaN coefficient",
     input ~nvars:2 [ ([ (1, 1.0); (0, Float.nan) ], le, 1.0) ]);
    ("NaN right-hand side", "Problem.of_rows: NaN right-hand side",
     input ~nvars:1 [ ([ (0, 1.0) ], le, Float.nan) ]) ]

let test_problem_invalid () =
  List.iter
    (fun (name, msg, x) ->
      Alcotest.(check (result reject string)) name (Error msg) (build_problem x);
      Alcotest.(check bool) (name ^ ": reference agrees") true (agrees_with_reference x))
    malformed

let test_problem_merges_duplicate_entries () =
  (* x + x <= 4 must behave as 2x <= 4. *)
  let x =
    input ~nvars:1 ~obj:[ (0, -1.0) ] ~upper:[ (0, 10.0) ]
      [ ([ (0, 1.0); (0, 1.0) ], Solver.Problem.Le, 4.0) ]
  in
  Alcotest.(check bool) "reference agrees" true (agrees_with_reference x);
  match build_problem x with
  | Ok p -> check_float "merged coeff" (-2.0) (objective_of "merged" (solve p))
  | Error msg -> Alcotest.fail msg

(* Random row sets over a few variables: repeated variables within a
   row, empty columns, all three relations, bound and integrality
   overrides, and up to two injected faults (NaN coefficient, NaN
   right-hand side, lower > upper, unbounded integer, out-of-range
   variable), so both which input is rejected and which check fires
   first are compared. Coefficients like 0.1/0.2/0.3 make the summation
   order of merged duplicates visible in the bits. *)
let problem_input_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun nvars ->
    let var = int_range 0 (nvars - 1) in
    let coeff = oneofl [ 0.1; 0.2; 0.3; -0.7; 1.0; 0.0; -0.0; 3.5; 1e-17 ] in
    let rel = oneofl Solver.Problem.[ Le; Ge; Eq ] in
    let row = triple (list_size (int_range 0 5) (pair var coeff)) rel (float_range (-5.0) 5.0) in
    list_size (int_range 0 6) row >>= fun rows ->
    list_size (int_range 0 3) (pair var coeff) >>= fun obj ->
    list_size (int_range 0 2) (pair var (oneofl [ 0.0; -1.0; 0.5; neg_infinity ]))
    >>= fun lower ->
    list_size (int_range 0 2) (pair var (oneofl [ 1.0; 2.0; 0.5; infinity ]))
    >>= fun upper ->
    list_size (int_range 0 3) var >>= fun integer ->
    (* Integer variables get finite bounds unless a fault removes them. *)
    let lower = lower @ List.map (fun v -> (v, 0.0)) integer in
    let upper = upper @ List.map (fun v -> (v, 1.0)) integer in
    let fault =
      oneof
        [ map2 (fun v at -> `Nan_coeff (v, at)) var nat;
          map (fun at -> `Nan_rhs at) nat;
          map (fun v -> `Lower_above_upper v) var;
          map (fun v -> `Unbounded_integer v) var;
          map (fun at -> `Out_of_range (nvars, at)) nat ]
    in
    list_size (int_range 0 2) fault >>= fun faults ->
    let x = { nvars; obj; lower; upper; integer; rows } in
    let on_row at f x =
      let rows = if x.rows = [] then [ ([], Solver.Problem.Le, 0.0) ] else x.rows in
      let at = at mod List.length rows in
      { x with rows = List.mapi (fun r row -> if r = at then f row else row) rows }
    in
    let inject x = function
      | `Nan_coeff (v, at) -> on_row at (fun (cs, rel, b) -> (cs @ [ (v, Float.nan) ], rel, b)) x
      | `Nan_rhs at -> on_row at (fun (cs, rel, _) -> (cs, rel, Float.nan)) x
      | `Lower_above_upper v ->
          { x with lower = x.lower @ [ (v, 3.0) ]; upper = x.upper @ [ (v, 1.0) ] }
      | `Unbounded_integer v ->
          { x with upper = x.upper @ [ (v, infinity) ]; integer = v :: x.integer }
      | `Out_of_range (v, at) -> on_row at (fun (cs, rel, b) -> ((v, 1.0) :: cs, rel, b)) x
    in
    return (List.fold_left inject x faults))

let print_problem_input x =
  let rel = function
    | Solver.Problem.Le -> "<=" | Solver.Problem.Ge -> ">=" | Solver.Problem.Eq -> "="
  in
  let entries l = String.concat " " (List.map (fun (v, c) -> Printf.sprintf "%d:%h" v c) l) in
  Printf.sprintf "nvars=%d obj=[%s] lower=[%s] upper=[%s] integer=[%s]\n%s" x.nvars
    (entries x.obj) (entries x.lower) (entries x.upper)
    (String.concat " " (List.map string_of_int x.integer))
    (String.concat "\n"
       (List.map
          (fun (cs, r, b) -> Printf.sprintf "%s %s %h" (entries cs) (rel r) b)
          x.rows))

let prop_of_rows_matches_reference =
  QCheck.Test.make ~name:"of_rows = list-based reference" ~count:1000
    (QCheck.make ~print:print_problem_input problem_input_gen)
    agrees_with_reference

(* --- basis factorization --- *)

(* The dense left-looking sweep that [Sparse_core.factorize] replaced,
   verbatim: the reference its sparse elimination must match bit for
   bit. *)
module Dense_lu = struct
  open Operon_solver.Sparse_core

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
end

(* Random sparse standardized problems and bases over their columns.
   Columns are built in order: fresh random columns, copies of an
   earlier column (duplicate basis columns are singular), and copies of
   an earlier column shifted by a few 1e-11 at one row, so that
   elimination leaves pivots on either side of the [1e-11] threshold.
   Entries draw from values whose sums and products round, which makes
   any change in the order of operations visible in the bits. A basis
   is the slack identity, the identity with some positions taken over
   by structural columns (as the simplex and branch-and-bound warm
   starts leave it), or any [m] distinct columns in any order. *)
type lu_case = { lu_m : int; lu_cols : (int * float) list list; lu_basis : int array }

let lu_case_gen =
  QCheck.Gen.(
    int_range 1 9 >>= fun m ->
    int_range 1 9 >>= fun nstruct ->
    let value =
      frequency
        [ (3, oneofl [ 1.0; -1.0; 0.5; 2.0 ]);
          (2, oneofl [ 0.1; 0.3; -0.7; 3.5 ]);
          (1, oneofl [ 1e-11; 1.5e-11; 9e-12; -2e-12 ]) ]
    in
    let row = int_range 0 (m - 1) in
    let fresh = list_size (int_range 0 m) (pair row value) in
    let rec columns k acc =
      if k = nstruct then return (List.rev acc)
      else
        (if acc = [] then fresh
         else
           frequency
             [ (4, fresh);
               (1, oneofl acc);
               ( 2,
                 oneofl acc >>= fun col ->
                 row >>= fun r ->
                 oneofl [ 1e-11; -1e-11; 1.0000001e-11; 9.999999e-12; 3e-11 ]
                 >|= fun d -> col @ [ (r, d) ] ) ])
        >>= fun col -> columns (k + 1) (col :: acc)
    in
    columns 0 [] >>= fun cols ->
    let n = nstruct + m in
    let identity = Array.init m (fun r -> nstruct + r) in
    frequency
      [ (1, return identity);
        ( 3,
          list_size (int_range 1 m) (pair (int_range 0 (nstruct - 1)) nat)
        >|= fun swaps ->
          (* Structural column [v] enters at the position of a row where
             it has an entry, as a simplex pivot on the slack basis
             would place it. *)
          let cols = Array.of_list cols in
          let basic = Array.copy identity in
          List.iter
            (fun (v, e) ->
              match cols.(v) with
              | [] -> ()
              | col ->
                  let r, _ = List.nth col (e mod List.length col) in
                  if not (Array.mem v basic) then basic.(r) <- v)
            swaps;
          basic );
        ( 2,
          shuffle_l (List.init n Fun.id) >|= fun order ->
          Array.sub (Array.of_list order) 0 m ) ]
    >|= fun basis -> { lu_m = m; lu_cols = cols; lu_basis = basis })

let print_lu_case c =
  Printf.sprintf "m=%d basis=[%s]\n%s" c.lu_m
    (String.concat " " (Array.to_list (Array.map string_of_int c.lu_basis)))
    (String.concat "\n"
       (List.mapi
          (fun v col ->
            Printf.sprintf "col %d: %s" v
              (String.concat " " (List.map (fun (r, x) -> Printf.sprintf "%d:%h" r x) col)))
          c.lu_cols))

(* Both factorizations of the basis, read through the columns
   [Sparse_core.prepare] builds from the problem (structural columns,
   then one slack per row). *)
let factorize_both c =
  let module S = Operon_solver.Sparse_core in
  let nvars = List.length c.lu_cols in
  let rows = Array.make c.lu_m [] in
  List.iteri (fun v col -> List.iter (fun (r, x) -> rows.(r) <- (v, x) :: rows.(r)) col) c.lu_cols;
  let problem =
    lp ~nvars
      (Array.to_list (Array.map (fun es -> (List.rev es, Solver.Problem.Le, 0.0)) rows))
  in
  let std = S.prepare problem in
  let get_col j f =
    for k = std.S.colp.(j) to std.S.colp.(j + 1) - 1 do
      f std.S.rowi.(k) std.S.vals.(k)
    done
  in
  let run factorize =
    match factorize c.lu_m get_col (Array.copy c.lu_basis) with
    | lu -> Some lu
    | exception S.Singular -> None
  in
  (run S.factorize, run Dense_lu.factorize)

let same_lu (a : Operon_solver.Sparse_core.lu) (b : Operon_solver.Sparse_core.lu) =
  let bits = Int64.bits_of_float in
  let same_entries x y =
    Array.length x = Array.length y
    && Array.for_all2 (fun (i, u) (j, w) -> i = j && Int64.equal (bits u) (bits w)) x y
  in
  a.perm = b.perm
  && a.pos_of_row = b.pos_of_row
  && Array.for_all2 same_entries a.lcol b.lcol
  && Array.for_all2 same_entries a.ucol b.ucol
  && Array.for_all2 (fun u w -> Int64.equal (bits u) (bits w)) a.udiag b.udiag

(* A pivot tie between a row the column scatters to (row 2) and a lower
   row that only fill reaches (row 1, touched after row 2): the dense
   sweep scans rows in order and keeps the first maximum, row 1. *)
let test_factorize_pivot_tie () =
  let c =
    { lu_m = 3;
      lu_cols = [ [ (0, 2.0); (1, 1.0) ]; [ (0, 2.0); (2, 1.0) ] ];
      lu_basis = [| 0; 1; 4 |] }
  in
  match factorize_both c with
  | Some a, Some b ->
      Alcotest.(check (array int)) "perm" [| 0; 1; 2 |] a.Operon_solver.Sparse_core.perm;
      Alcotest.(check bool) "same as the dense sweep" true (same_lu a b)
  | _ -> Alcotest.fail "expected a non-singular basis"

let prop_factorize_matches_dense =
  QCheck.Test.make ~name:"sparse factorize = dense sweep, bit for bit" ~count:3000
    (QCheck.make ~print:print_lu_case lu_case_gen)
    (fun c ->
      match factorize_both c with
      | Some a, Some b -> same_lu a b
      | None, None -> true
      | _ -> false)

(* --- lp cores --- *)

(* max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18  => minimize -(3x+5y), optimum
   x=2,y=6, objective -36. The classic Dantzig example. *)
let test_classic core =
  let p =
    lp ~nvars:2 ~obj:[ (0, -3.0); (1, -5.0) ]
      [ ([ (0, 1.0) ], Solver.Problem.Le, 4.0);
        ([ (1, 2.0) ], Solver.Problem.Le, 12.0);
        ([ (0, 3.0); (1, 2.0) ], Solver.Problem.Le, 18.0) ]
  in
  let r = solve ~core p in
  check_float "objective" (-36.0) (objective_of "classic" r);
  let x = values_of "classic" r in
  check_float "x" 2.0 x.(0);
  check_float "y" 6.0 x.(1)

let test_equality core =
  (* min x + 2y st x + y = 3, x <= 1 => x=1, y=2, obj 5 *)
  let p =
    lp ~nvars:2 ~obj:[ (0, 1.0); (1, 2.0) ]
      [ ([ (0, 1.0); (1, 1.0) ], Solver.Problem.Eq, 3.0);
        ([ (0, 1.0) ], Solver.Problem.Le, 1.0) ]
  in
  check_float "objective" 5.0 (objective_of "equality" (solve ~core p))

let test_ge_rows core =
  (* min 2x + 3y st x + y >= 4, x <= 3 => y >= 1; optimum x=3,y=1 obj 9 *)
  let p =
    lp ~nvars:2 ~obj:[ (0, 2.0); (1, 3.0) ]
      [ ([ (0, 1.0); (1, 1.0) ], Solver.Problem.Ge, 4.0);
        ([ (0, 1.0) ], Solver.Problem.Le, 3.0) ]
  in
  check_float "objective" 9.0 (objective_of "ge" (solve ~core p))

let test_infeasible core =
  let p =
    lp ~nvars:1
      [ ([ (0, 1.0) ], Solver.Problem.Ge, 5.0);
        ([ (0, 1.0) ], Solver.Problem.Le, 2.0) ]
  in
  Alcotest.(check bool) "infeasible" true
    ((solve ~core p).Solver.Result.status = Solver.Infeasible)

let test_unbounded core =
  let p =
    lp ~nvars:1 ~obj:[ (0, -1.0) ] [ ([ (0, 1.0) ], Solver.Problem.Ge, 0.0) ]
  in
  Alcotest.(check bool) "unbounded" true
    ((solve ~core p).Solver.Result.status = Solver.Unbounded)

let test_no_rows core =
  let p = lp ~nvars:2 ~obj:[ (0, 1.0) ] [] in
  check_float "zero" 0.0 (objective_of "no rows" (solve ~core p));
  let q = lp ~nvars:2 ~obj:[ (0, 1.0); (1, -1.0) ] [] in
  Alcotest.(check bool) "unbounded down" true
    ((solve ~core q).Solver.Result.status = Solver.Unbounded)

let test_negative_rhs core =
  (* min x st -x <= -2  (i.e. x >= 2) *)
  let p =
    lp ~nvars:1 ~obj:[ (0, 1.0) ] [ ([ (0, -1.0) ], Solver.Problem.Le, -2.0) ]
  in
  check_float "x=2" 2.0 (objective_of "negative rhs" (solve ~core p))

let test_degenerate core =
  (* Degenerate vertex should still terminate (anti-cycling). *)
  let p =
    lp ~nvars:2 ~obj:[ (0, -1.0); (1, -1.0) ]
      [ ([ (0, 1.0); (1, 1.0) ], Solver.Problem.Le, 1.0);
        ([ (0, 1.0) ], Solver.Problem.Le, 1.0);
        ([ (1, 1.0) ], Solver.Problem.Le, 1.0);
        ([ (0, 1.0); (1, -1.0) ], Solver.Problem.Le, 0.0) ]
  in
  check_float "objective" (-1.0) (objective_of "degenerate" (solve ~core p))

let test_variable_bounds core =
  (* Bounds live on the variables, not on rows: min -x - y with
     x in [0, 2.5], y in [1, 3], one coupling row x + y <= 5. *)
  let p =
    lp ~nvars:2 ~obj:[ (0, -1.0); (1, -1.0) ]
      ~lower:[ (1, 1.0) ]
      ~upper:[ (0, 2.5); (1, 3.0) ]
      [ ([ (0, 1.0); (1, 1.0) ], Solver.Problem.Le, 5.0) ]
  in
  let r = solve ~core p in
  check_float "objective" (-5.0) (objective_of "bounds" r);
  Alcotest.(check bool) "respects bounds" true
    (Solver.Problem.feasible p (values_of "bounds" r))

let test_fixed_variable core =
  (* lo = up pins the variable. *)
  let p =
    lp ~nvars:2 ~obj:[ (0, 1.0); (1, 1.0) ]
      ~lower:[ (0, 2.0) ] ~upper:[ (0, 2.0) ]
      [ ([ (0, 1.0); (1, 1.0) ], Solver.Problem.Ge, 3.0) ]
  in
  let r = solve ~core p in
  check_float "objective" 3.0 (objective_of "fixed" r);
  check_float "pinned" 2.0 (values_of "fixed" r).(0)

(* Sparse-only: the dense parity core rejects negative lower bounds. *)
let test_negative_lower_bound () =
  let p =
    lp ~nvars:1 ~obj:[ (0, 1.0) ] ~lower:[ (0, -4.0) ] ~upper:[ (0, 4.0) ] []
  in
  check_float "objective" (-4.0) (objective_of "neg lower" (solve p));
  Alcotest.check_raises "dense rejects"
    (Invalid_argument "Dense_core: requires finite non-negative lower bounds")
    (fun () -> ignore (solve ~core:Solver.Dense p))

let test_refactorization_counter () =
  (* Enough pivots in one LP solve to overflow the eta file (64) and
     force at least one basis refactorization. *)
  let n = 100 in
  let p =
    lp ~nvars:n
      ~obj:(List.init n (fun v -> (v, 1.0)))
      (List.init n (fun v -> ([ (v, 1.0) ], Solver.Problem.Ge, 1.0)))
  in
  let r = solve p in
  check_float "objective" (float_of_int n) (objective_of "refactor" r);
  Alcotest.(check bool) "pivoted enough" true
    (r.Solver.Result.stats.Solver.pivots >= n);
  Alcotest.(check bool) "refactorized" true
    (r.Solver.Result.stats.Solver.refactorizations >= 1)

let test_max_pivots_aborts () =
  (* A pure LP that needs pivots but may spend none returns Unknown. *)
  let p =
    lp ~nvars:2 ~obj:[ (0, -3.0); (1, -5.0) ]
      [ ([ (0, 1.0); (1, 1.0) ], Solver.Problem.Le, 4.0) ]
  in
  Alcotest.(check bool) "aborted" true
    ((solve ~max_pivots:0 p).Solver.Result.status = Solver.Unknown)

(* --- branch and bound --- *)

(* Knapsack-flavoured: min -(5a + 4b + 3c) st 2a + 3b + c <= 4, binary.
   Optimum a=1,c=1 -> -8 (b would exceed the budget). *)
let binaries n = (List.init n (fun v -> (v, 1.0)), List.init n Fun.id)

let test_knapsack core =
  let upper, integer = binaries 3 in
  let p =
    lp ~nvars:3 ~obj:[ (0, -5.0); (1, -4.0); (2, -3.0) ] ~upper ~integer
      [ ([ (0, 2.0); (1, 3.0); (2, 1.0) ], Solver.Problem.Le, 4.0) ]
  in
  let r = solve ~core p in
  check_float "objective" (-8.0) (objective_of "knapsack" r);
  let x = values_of "knapsack" r in
  check_float "a" 1.0 x.(0);
  check_float "b" 0.0 x.(1);
  check_float "c" 1.0 x.(2)

let test_integrality_gap core =
  (* LP relaxation would take fractional x=y=0.525; ILP must pick one. *)
  let upper, integer = binaries 2 in
  let p =
    lp ~nvars:2 ~obj:[ (0, -1.0); (1, -1.0) ] ~upper ~integer
      [ ([ (0, 2.0); (1, 2.0) ], Solver.Problem.Le, 2.1) ]
  in
  check_float "one selected" (-1.0) (objective_of "gap" (solve ~core p))

let test_ilp_infeasible core =
  let upper, integer = binaries 2 in
  let p =
    lp ~nvars:2 ~upper ~integer
      [ ([ (0, 1.0); (1, 1.0) ], Solver.Problem.Ge, 3.0) ]
  in
  Alcotest.(check bool) "no solution" true
    ((solve ~core p).Solver.Result.status = Solver.Infeasible)

let test_general_integer core =
  (* Non-binary integer range: min -x st 3x <= 10, x in [0,5] integer. *)
  let p =
    lp ~nvars:1 ~obj:[ (0, -1.0) ] ~upper:[ (0, 5.0) ] ~integer:[ 0 ]
      [ ([ (0, 3.0) ], Solver.Problem.Le, 10.0) ]
  in
  check_float "x=3" (-3.0) (objective_of "general integer" (solve ~core p))

let test_incumbent_respected core =
  let upper, integer = binaries 1 in
  let p = lp ~nvars:1 ~obj:[ (0, 1.0) ] ~upper ~integer [] in
  let incumbent = { Solver.objective = 0.0; values = [| 0.0 |] } in
  check_float "keeps 0" 0.0
    (objective_of "incumbent" (solve ~core ~incumbent p))

let test_budget_expiry core =
  (* An already-expired budget returns the incumbent, unproven. *)
  let upper, integer = binaries 2 in
  let p =
    lp ~nvars:2 ~obj:[ (0, -1.0); (1, -1.0) ] ~upper ~integer
      [ ([ (0, 1.0); (1, 1.0) ], Solver.Problem.Le, 1.0) ]
  in
  let budget = Operon_util.Timer.budget 1e-9 in
  Unix.sleepf 0.01;
  let incumbent = { Solver.objective = 0.0; values = [| 0.0; 0.0 |] } in
  match (solve ~core ~budget ~incumbent p).Solver.Result.status with
  | Solver.Feasible { objective; _ } -> check_float "incumbent" 0.0 objective
  | Solver.Optimal _ -> Alcotest.fail "should not have had time to prove"
  | _ -> Alcotest.fail "expected Feasible"

let test_stats_accumulate () =
  let upper, integer = binaries 3 in
  let p =
    lp ~nvars:3 ~obj:[ (0, -5.0); (1, -4.0); (2, -3.0) ] ~upper ~integer
      [ ([ (0, 2.0); (1, 3.0); (2, 1.0) ], Solver.Problem.Le, 4.0) ]
  in
  let r = solve p in
  let s = r.Solver.Result.stats in
  Alcotest.(check bool) "nodes > 0" true (s.Solver.nodes > 0);
  Alcotest.(check bool) "one lp per node" true (s.Solver.lp_solves = s.Solver.nodes);
  Alcotest.(check bool) "pivots > 0" true (s.Solver.pivots > 0);
  Alcotest.(check bool) "elapsed >= 0" true (s.Solver.elapsed >= 0.0)

(* --- randomized cross-checks --- *)

(* Exhaustive enumeration on random small 0/1 programs. *)
let brute_force nvars objective rows =
  let best = ref None in
  for mask = 0 to (1 lsl nvars) - 1 do
    let x =
      Array.init nvars (fun v -> if mask land (1 lsl v) <> 0 then 1.0 else 0.0)
    in
    let ok =
      List.for_all
        (fun (coeffs, rhs) ->
          List.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0.0 coeffs
          <= rhs +. 1e-9)
        rows
    in
    if ok then begin
      let obj =
        Array.fold_left ( +. ) 0.0
          (Array.mapi (fun v xv -> objective.(v) *. xv) x)
      in
      match !best with
      | Some b when b <= obj -> ()
      | _ -> best := Some obj
    end
  done;
  !best

let random_binary_gen =
  QCheck.Gen.(
    int_range 2 6 >>= fun nvars ->
    array_size (return nvars) (float_range (-5.0) 5.0) >>= fun objective ->
    list_size (int_range 0 4)
      (pair
         (list_size (int_range 1 nvars)
            (pair (int_range 0 (nvars - 1)) (float_range (-3.0) 3.0)))
         (float_range 0.0 5.0))
    >|= fun rows -> (nvars, objective, rows))

let binary_problem (nvars, objective, rows) =
  let upper, integer = binaries nvars in
  lp ~nvars
    ~obj:(Array.to_list (Array.mapi (fun v c -> (v, c)) objective))
    ~upper ~integer
    (List.map (fun (coeffs, rhs) -> (coeffs, Solver.Problem.Le, rhs)) rows)

let prop_ilp_matches_brute_force core =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "ilp matches brute force (%s)" (Solver.core_name core))
    ~count:150
    (QCheck.make
       ~print:(fun (n, _, rows) ->
         Printf.sprintf "n=%d rows=%d" n (List.length rows))
       random_binary_gen)
    (fun ((nvars, objective, rows) as case) ->
      let expected = brute_force nvars objective rows in
      match ((solve ~core (binary_problem case)).Solver.Result.status, expected)
      with
      | Solver.Optimal { objective = got; _ }, Some want ->
          Float.abs (got -. want) < 1e-5
      | Solver.Infeasible, None -> true
      | _ -> false)

let prop_relaxation_bounds_ilp =
  (* The continuous relaxation (same bounds, integrality dropped) is a
     valid lower bound for the 0/1 program. *)
  QCheck.Test.make ~name:"lp relaxation bounds ilp" ~count:100
    (QCheck.make ~print:(fun (n, _, _) -> string_of_int n) random_binary_gen)
    (fun (nvars, objective, rows) ->
      let obj = Array.to_list (Array.mapi (fun v c -> (v, c)) objective) in
      let upper, integer = binaries nvars in
      let rows =
        (List.init nvars (fun v -> (v, 1.0)), Solver.Problem.Ge, 1.0)
        :: List.map (fun (coeffs, rhs) -> (coeffs, Solver.Problem.Le, rhs)) rows
      in
      let relaxed = lp ~nvars ~obj ~upper rows in
      let integral = lp ~nvars ~obj ~upper ~integer rows in
      match
        ( (solve relaxed).Solver.Result.status,
          (solve integral).Solver.Result.status )
      with
      | Solver.Optimal { objective = cont; _ },
        Solver.Optimal { objective = ilp; _ } ->
          cont <= ilp +. 1e-6
      | _, Solver.Infeasible -> true
      | _ -> false)

(* Dense-vs-sparse parity: identical status and (where optimal) matching
   objective on random LPs and ILPs. The generators stay inside the
   dense core's domain (finite non-negative lower bounds). *)
let status_tag = function
  | Solver.Optimal _ -> "optimal"
  | Solver.Feasible _ -> "feasible"
  | Solver.Infeasible -> "infeasible"
  | Solver.Unbounded -> "unbounded"
  | Solver.Unknown -> "unknown"

let random_lp_gen =
  QCheck.Gen.(
    int_range 2 7 >>= fun nvars ->
    array_size (return nvars) (float_range (-4.0) 4.0) >>= fun objective ->
    array_size (return nvars)
      (oneof [ return infinity; float_range 0.5 6.0 ])
    >>= fun uppers ->
    list_size (int_range 1 5)
      (triple
         (list_size (int_range 1 nvars)
            (pair (int_range 0 (nvars - 1)) (float_range (-3.0) 3.0)))
         (oneofl [ `Le; `Ge; `Eq ])
         (float_range 0.0 5.0))
    >|= fun rows -> (nvars, objective, uppers, rows))

let parity_problem ?integer (nvars, objective, uppers, rows) =
  let upper =
    Array.to_list uppers
    |> List.mapi (fun v u -> (v, u))
    |> List.filter (fun (_, u) -> Float.is_finite u)
  in
  (* Integer variables need finite ranges: clamp them to [0, 3]. *)
  let upper, integer =
    match integer with
    | None -> (upper, [])
    | Some () ->
        let ints = List.init nvars Fun.id in
        ( List.map
            (fun (v, u) -> (v, Float.min 3.0 (Float.round u))) upper
          @ (List.filter
               (fun v -> not (Float.is_finite uppers.(v)))
               ints
            |> List.map (fun v -> (v, 3.0))),
          ints )
  in
  lp ~nvars
    ~obj:(Array.to_list (Array.mapi (fun v c -> (v, c)) objective))
    ~upper ~integer
    (List.map
       (fun (coeffs, rel, rhs) ->
         let rel =
           match rel with
           | `Le -> Solver.Problem.Le
           | `Ge -> Solver.Problem.Ge
           | `Eq -> Solver.Problem.Eq
         in
         (coeffs, rel, rhs))
       rows)

let parity_prop ?integer name =
  QCheck.Test.make ~name ~count:200
    (QCheck.make
       ~print:(fun (n, _, _, rows) ->
         Printf.sprintf "n=%d rows=%d" n (List.length rows))
       random_lp_gen)
    (fun case ->
      let p = parity_problem ?integer case in
      let s = (solve ~core:Solver.Sparse p).Solver.Result.status in
      let d = (solve ~core:Solver.Dense p).Solver.Result.status in
      String.equal (status_tag s) (status_tag d)
      &&
      match (s, d) with
      | Solver.Optimal a, Solver.Optimal b ->
          Float.abs (a.Solver.objective -. b.Solver.objective) < 1e-6
      | _ -> true)

let prop_parity_lp = parity_prop "dense/sparse parity on random LPs"

let prop_parity_ilp =
  parity_prop ~integer:() "dense/sparse parity on random ILPs"

let () =
  Alcotest.run "solver"
    ([ ( "problem",
         [ Alcotest.test_case "model" `Quick test_problem_model;
           Alcotest.test_case "invalid" `Quick test_problem_invalid;
           Alcotest.test_case "duplicate entries" `Quick
             test_problem_merges_duplicate_entries;
           QCheck_alcotest.to_alcotest prop_of_rows_matches_reference ] ) ]
    @ [ ( "lu",
          [ Alcotest.test_case "pivot tie" `Quick test_factorize_pivot_tie;
            QCheck_alcotest.to_alcotest prop_factorize_matches_dense ] ) ]
    @ [ ( "lp",
          both "classic" test_classic
          @ both "equality" test_equality
          @ both "ge rows" test_ge_rows
          @ both "infeasible" test_infeasible
          @ both "unbounded" test_unbounded
          @ both "no rows" test_no_rows
          @ both "negative rhs" test_negative_rhs
          @ both "degenerate" test_degenerate
          @ both "variable bounds" test_variable_bounds
          @ both "fixed variable" test_fixed_variable
          @ [ Alcotest.test_case "negative lower bound" `Quick
                test_negative_lower_bound;
              Alcotest.test_case "refactorization counter" `Quick
                test_refactorization_counter;
              Alcotest.test_case "max pivots aborts" `Quick
                test_max_pivots_aborts ] ) ]
    @ [ ( "ilp",
          both "knapsack" test_knapsack
          @ both "integrality gap" test_integrality_gap
          @ both "infeasible" test_ilp_infeasible
          @ both "general integer" test_general_integer
          @ both "incumbent" test_incumbent_respected
          @ both "budget expiry" test_budget_expiry
          @ [ Alcotest.test_case "stats accumulate" `Quick
                test_stats_accumulate;
              QCheck_alcotest.to_alcotest
                (prop_ilp_matches_brute_force Solver.Sparse);
              QCheck_alcotest.to_alcotest
                (prop_ilp_matches_brute_force Solver.Dense);
              QCheck_alcotest.to_alcotest prop_relaxation_bounds_ilp;
              QCheck_alcotest.to_alcotest prop_parity_lp;
              QCheck_alcotest.to_alcotest prop_parity_ilp ] ) ])
