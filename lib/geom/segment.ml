type t = { a : Point.t; b : Point.t }

let eps_default = 1e-9

let make a b = { a; b }

let length s = Point.l2 s.a s.b

let length_l1 s = Point.l1 s.a s.b

let is_horizontal ?(eps = eps_default) s = Float.abs (s.a.Point.y -. s.b.Point.y) <= eps

let is_vertical ?(eps = eps_default) s = Float.abs (s.a.Point.x -. s.b.Point.x) <= eps

let bbox s = Rect.of_points [| s.a; s.b |]

let boxes segs =
  let out = Array.create_float (4 * Array.length segs) in
  Array.iteri
    (fun k s ->
      let ax = s.a.Point.x and ay = s.a.Point.y in
      let bx = s.b.Point.x and by = s.b.Point.y in
      out.(4 * k) <- (if bx < ax then bx else ax);
      out.((4 * k) + 1) <- (if by < ay then by else ay);
      out.((4 * k) + 2) <- (if bx > ax then bx else ax);
      out.((4 * k) + 3) <- (if by > ay then by else ay))
    segs;
  out

let[@inline] boxes_overlap (ba : float array) u (bb : float array) v =
  ba.(4 * u) <= bb.((4 * v) + 2)
  && bb.(4 * v) <= ba.((4 * u) + 2)
  && ba.((4 * u) + 1) <= bb.((4 * v) + 3)
  && bb.((4 * v) + 1) <= ba.((4 * u) + 3)

(* [Point.cross (Point.sub q p) (Point.sub r p)] spelled out on the float
   fields: the same IEEE operations in the same order, so every sign is
   bit-identical, but no intermediate point is allocated. *)
let orientation p q r =
  let v =
    ((q.Point.x -. p.Point.x) *. (r.Point.y -. p.Point.y))
    -. ((q.Point.y -. p.Point.y) *. (r.Point.x -. p.Point.x))
  in
  if v > eps_default then 1 else if v < -.eps_default then -1 else 0

let on_segment pt s =
  let open Point in
  Float.min s.a.x s.b.x -. eps_default <= pt.x
  && pt.x <= Float.max s.a.x s.b.x +. eps_default
  && Float.min s.a.y s.b.y -. eps_default <= pt.y
  && pt.y <= Float.max s.a.y s.b.y +. eps_default

let intersects s1 s2 =
  let o1 = orientation s1.a s1.b s2.a in
  let o2 = orientation s1.a s1.b s2.b in
  let o3 = orientation s2.a s2.b s1.a in
  let o4 = orientation s2.a s2.b s1.b in
  if o1 <> o2 && o3 <> o4 then true
  else
    (o1 = 0 && on_segment s2.a s1)
    || (o2 = 0 && on_segment s2.b s1)
    || (o3 = 0 && on_segment s1.a s2)
    || (o4 = 0 && on_segment s1.b s2)

let crosses_properly s1 s2 =
  (* Strict sign changes on both segments mean the crossing point is interior
     to both; any zero orientation is an endpoint touch or collinearity.
     The second pair is only evaluated when the first straddles. *)
  orientation s1.a s1.b s2.a * orientation s1.a s1.b s2.b < 0
  && orientation s2.a s2.b s1.a * orientation s2.a s2.b s1.b < 0

(* Whether the lines meet within both segments (parameters within eps of
   [0, 1]), computed on the float fields without allocating. *)
let has_intersection_point s1 s2 =
  let rx = s1.b.Point.x -. s1.a.Point.x and ry = s1.b.Point.y -. s1.a.Point.y in
  let sx = s2.b.Point.x -. s2.a.Point.x and sy = s2.b.Point.y -. s2.a.Point.y in
  let denom = (rx *. sy) -. (ry *. sx) in
  if Float.abs denom <= eps_default then false
  else
    let qx = s2.a.Point.x -. s1.a.Point.x and qy = s2.a.Point.y -. s1.a.Point.y in
    let t = ((qx *. sy) -. (qy *. sx)) /. denom in
    let u = ((qx *. ry) -. (qy *. rx)) /. denom in
    t >= -.eps_default && t <= 1.0 +. eps_default && u >= -.eps_default
    && u <= 1.0 +. eps_default

let intersection_point s1 s2 =
  if not (has_intersection_point s1 s2) then None
  else
    let open Point in
    let r = sub s1.b s1.a and s = sub s2.b s2.a in
    let t = cross (sub s2.a s1.a) s /. cross r s in
    Some (add s1.a (scale t r))

let count_crossings fam1 fam2 =
  let count = ref 0 in
  for i = 0 to Array.length fam1 - 1 do
    let s1 = fam1.(i) in
    for j = 0 to Array.length fam2 - 1 do
      if crosses_properly s1 fam2.(j) then incr count
    done
  done;
  !count

let exists_crossing fam1 fam2 =
  let n1 = Array.length fam1 and n2 = Array.length fam2 in
  let rec scan i j =
    if i >= n1 then false
    else if j >= n2 then scan (i + 1) 0
    else crosses_properly fam1.(i) fam2.(j) || scan i (j + 1)
  in
  scan 0 0

let count_self_crossings fam =
  let n = Array.length fam in
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if crosses_properly fam.(i) fam.(j) then incr count
    done
  done;
  !count

let distance_point p s =
  let open Point in
  let ab = sub s.b s.a in
  let len_sq = dot ab ab in
  if len_sq <= eps_default then l2 p s.a
  else
    let t = dot (sub p s.a) ab /. len_sq in
    let t = Float.max 0.0 (Float.min 1.0 t) in
    l2 p (add s.a (scale t ab))

let pp fmt s = Format.fprintf fmt "%a--%a" Point.pp s.a Point.pp s.b
