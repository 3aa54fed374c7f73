type t = Sequential | Pool of int

let sequential = Sequential

let create ~jobs = if jobs <= 1 then Sequential else Pool jobs

let default_jobs () = Domain.recommended_domain_count ()

let jobs = function Sequential -> 1 | Pool j -> j

(* One cell per input index: workers write disjoint cells, so no two
   domains ever race on the same element. *)
type 'b cell = Empty | Value of 'b | Failed of exn * Printexc.raw_backtrace

let pool_cells njobs f xs =
  let n = Array.length xs in
  let cells = Array.make n Empty in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (cells.(i) <-
           (match f i xs.(i) with
            | y -> Value y
            | exception e -> Failed (e, Printexc.get_raw_backtrace ())));
        loop ()
      end
    in
    loop ()
  in
  let spawned = Array.init (Stdlib.min njobs n - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join spawned;
  cells

let pool_mapi njobs f xs =
  let cells = pool_cells njobs f xs in
  (* Deterministic propagation: the lowest-index failure wins, whatever
     domain happened to hit it. *)
  Array.iter
    (function
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Empty | Value _ -> ())
    cells;
  Array.map (function Value y -> y | Empty | Failed _ -> assert false) cells

let parallel_mapi exec f xs =
  match exec with
  | Pool j when j > 1 && Array.length xs > 1 -> pool_mapi j f xs
  | Sequential | Pool _ -> Array.mapi f xs

let parallel_map exec f xs = parallel_mapi exec (fun _ x -> f x) xs

let try_parallel_mapi exec f xs =
  let of_cell = function
    | Value y -> Ok y
    | Failed (e, bt) -> Error (e, bt)
    | Empty -> assert false
  in
  match exec with
  | Pool j when j > 1 && Array.length xs > 1 -> Array.map of_cell (pool_cells j f xs)
  | Sequential | Pool _ ->
      Array.mapi
        (fun i x ->
          match f i x with
          | y -> Ok y
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        xs
