type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy g = { state = g.state }

(* splitmix64 finalizer: the state advances by a fixed odd gamma and the
   output is a bijective scramble of the new state. *)
let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g =
  let seed = bits64 g in
  { state = seed }

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Reject the low-entropy modulo bias only when bound is large; for the
     bounds used in this project (< 2^30) masking the high bits suffices. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  r mod bound

let float g bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  bound *. (mantissa *. 0x1.0p-53)

let float_range g lo hi =
  if lo > hi then invalid_arg "Prng.float_range: lo > hi";
  lo +. float g (hi -. lo)

let bool g = Int64.logand (bits64 g) 1L = 1L

let gaussian g ~mu ~sigma =
  let rec draw () =
    let u1 = float g 1.0 in
    if u1 <= 1e-300 then draw ()
    else
      let u2 = float g 1.0 in
      mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
  in
  draw ()

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
