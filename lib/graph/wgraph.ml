type edge = { u : int; v : int; w : float }

type t = { adj : (int * float) list array }

let create n =
  if n < 0 then invalid_arg "Wgraph.create: negative size";
  { adj = Array.make n [] }

let vertex_count g = Array.length g.adj

let add_edge g u v w =
  let n = Array.length g.adj in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Wgraph.add_edge: vertex out of range";
  g.adj.(u) <- (v, w) :: g.adj.(u);
  if u <> v then g.adj.(v) <- (u, w) :: g.adj.(v)

let neighbors g u = g.adj.(u)

let edges g =
  let acc = ref [] in
  Array.iteri
    (fun u nbrs ->
      List.iter (fun (v, w) -> if u <= v then acc := { u; v; w } :: !acc) nbrs)
    g.adj;
  !acc

let complete_of_weights n f =
  let g = create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      add_edge g i j (f i j)
    done
  done;
  g
