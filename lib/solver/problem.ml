type relation = Le | Ge | Eq

type t = {
  nvars : int;
  nrows : int;
  obj : float array;
  lower : float array;
  upper : float array;
  integer : bool array;
  col_ptr : int array; (* nvars + 1 *)
  row_ind : int array;
  values : float array;
  rel : relation array;
  rhs : float array;
}

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
  (* Transpose straight into CSC: count each column's entries, then fill
     the columns visiting rows in order, so every column comes out in
     ascending row order with a row's repeated entries adjacent. *)
  let col_ptr = Array.make (nvars + 1) 0 in
  let nrows = ref 0 in
  let rec count = function
    | [] -> ()
    | (v, _) :: rest ->
        check v;
        col_ptr.(v + 1) <- col_ptr.(v + 1) + 1;
        count rest
  in
  List.iter
    (fun (coeffs, _, _) ->
      count coeffs;
      incr nrows)
    rows;
  let nrows = !nrows in
  for v = 0 to nvars - 1 do
    col_ptr.(v + 1) <- col_ptr.(v + 1) + col_ptr.(v)
  done;
  let raw = col_ptr.(nvars) in
  let row_ind = Array.make raw 0 in
  let values = Array.make raw 0.0 in
  let rel = Array.make nrows Le in
  let rhs = Array.make nrows 0.0 in
  let next = Array.sub col_ptr 0 nvars in
  let rec fill r = function
    | [] -> ()
    | (v, c) :: rest ->
        let k = next.(v) in
        row_ind.(k) <- r;
        values.(k) <- c;
        next.(v) <- k + 1;
        fill r rest
  in
  List.iteri
    (fun r (coeffs, relation, b) ->
      fill r coeffs;
      rel.(r) <- relation;
      rhs.(r) <- b)
    rows;
  (* Per-variable validation, in variable order. *)
  for v = 0 to nvars - 1 do
    if Float.is_nan objs.(v) || Float.is_nan lowers.(v) || Float.is_nan uppers.(v)
    then invalid_arg "Problem.of_rows: NaN objective or bound";
    if lowers.(v) > uppers.(v) then invalid_arg "Problem.of_rows: lower > upper";
    if ints.(v) && not (Float.is_finite lowers.(v) && Float.is_finite uppers.(v))
    then invalid_arg "Problem.of_rows: integer variable needs finite bounds";
    for k = col_ptr.(v) to col_ptr.(v + 1) - 1 do
      if Float.is_nan values.(k) then invalid_arg "Problem.of_rows: NaN coefficient"
    done
  done;
  (* Merge each column's repeated rows in place, summing in order of
     appearance. *)
  let nnz = ref 0 in
  for v = 0 to nvars - 1 do
    let first = col_ptr.(v) and last = col_ptr.(v + 1) - 1 in
    col_ptr.(v) <- !nnz;
    for k = first to last do
      if !nnz > col_ptr.(v) && row_ind.(!nnz - 1) = row_ind.(k) then
        values.(!nnz - 1) <- values.(!nnz - 1) +. values.(k)
      else begin
        row_ind.(!nnz) <- row_ind.(k);
        values.(!nnz) <- values.(k);
        incr nnz
      end
    done
  done;
  col_ptr.(nvars) <- !nnz;
  Array.iter
    (fun b ->
      if Float.is_nan b then invalid_arg "Problem.of_rows: NaN right-hand side")
    rhs;
  let trim a = if !nnz = raw then a else Array.sub a 0 !nnz in
  { nvars;
    nrows;
    obj = objs;
    lower = lowers;
    upper = uppers;
    integer = ints;
    col_ptr;
    row_ind = trim row_ind;
    values = trim values;
    rel;
    rhs }

let nvars t = t.nvars
let nrows t = t.nrows

let check_var t v =
  if v < 0 || v >= t.nvars then invalid_arg "Problem: variable out of range"

let check_row t r =
  if r < 0 || r >= t.nrows then invalid_arg "Problem: row out of range"

let objective_coeff t v = check_var t v; t.obj.(v)
let lower_bound t v = check_var t v; t.lower.(v)
let upper_bound t v = check_var t v; t.upper.(v)
let is_integer t v = check_var t v; t.integer.(v)

let integer_vars t =
  let acc = ref [] in
  for v = t.nvars - 1 downto 0 do
    if t.integer.(v) then acc := v :: !acc
  done;
  !acc

let row_relation t r = check_row t r; t.rel.(r)
let row_rhs t r = check_row t r; t.rhs.(r)

let iter_col t v f =
  check_var t v;
  for k = t.col_ptr.(v) to t.col_ptr.(v + 1) - 1 do
    f t.row_ind.(k) t.values.(k)
  done

let bounds_copy t = (Array.copy t.lower, Array.copy t.upper)

let rows_list t =
  (* Transpose CSC back to rows; within a row, walking variables in
     ascending order yields ascending variable order for free. *)
  let acc = Array.make t.nrows [] in
  for v = t.nvars - 1 downto 0 do
    for k = t.col_ptr.(v + 1) - 1 downto t.col_ptr.(v) do
      let r = t.row_ind.(k) in
      acc.(r) <- (v, t.values.(k)) :: acc.(r)
    done
  done;
  List.init t.nrows (fun r -> (acc.(r), t.rel.(r), t.rhs.(r)))

let eval_objective t x =
  let acc = ref 0.0 in
  for v = 0 to t.nvars - 1 do
    acc := !acc +. (t.obj.(v) *. x.(v))
  done;
  !acc

let feasible ?(eps = 1e-6) t x =
  Array.length x = t.nvars
  && (let ok = ref true in
      for v = 0 to t.nvars - 1 do
        if x.(v) < t.lower.(v) -. eps || x.(v) > t.upper.(v) +. eps then
          ok := false
      done;
      !ok)
  && (let lhs = Array.make t.nrows 0.0 in
      for v = 0 to t.nvars - 1 do
        if x.(v) <> 0.0 then
          for k = t.col_ptr.(v) to t.col_ptr.(v + 1) - 1 do
            lhs.(t.row_ind.(k)) <- lhs.(t.row_ind.(k)) +. (t.values.(k) *. x.(v))
          done
      done;
      let ok = ref true in
      for r = 0 to t.nrows - 1 do
        (match t.rel.(r) with
         | Le -> if lhs.(r) > t.rhs.(r) +. eps then ok := false
         | Ge -> if lhs.(r) < t.rhs.(r) -. eps then ok := false
         | Eq -> if Float.abs (lhs.(r) -. t.rhs.(r)) > eps then ok := false)
      done;
      !ok)
