type t = {
  n : int;
  heads : int array;
  mutable nexts : int array;
  mutable dsts : int array;
  mutable caps : int array;
  mutable costs : float array;
  mutable orig_caps : int array;
  mutable arcs : int;
}

let create n =
  if n <= 0 then invalid_arg "Mcmf.create: non-positive size";
  { n;
    heads = Array.make n (-1);
    nexts = Array.make 16 (-1);
    dsts = Array.make 16 0;
    caps = Array.make 16 0;
    costs = Array.make 16 0.0;
    orig_caps = Array.make 16 0;
    arcs = 0 }

let ensure_capacity t =
  if t.arcs + 2 > Array.length t.nexts then begin
    let cap = Array.length t.nexts * 2 in
    let grow_i a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.arcs; b in
    let nexts = Array.make cap (-1) in
    Array.blit t.nexts 0 nexts 0 t.arcs;
    let costs = Array.make cap 0.0 in
    Array.blit t.costs 0 costs 0 t.arcs;
    t.nexts <- nexts;
    t.dsts <- grow_i t.dsts;
    t.caps <- grow_i t.caps;
    t.orig_caps <- grow_i t.orig_caps;
    t.costs <- costs
  end

let push_arc t u v c cost =
  let idx = t.arcs in
  t.dsts.(idx) <- v;
  t.caps.(idx) <- c;
  t.orig_caps.(idx) <- c;
  t.costs.(idx) <- cost;
  t.nexts.(idx) <- t.heads.(u);
  t.heads.(u) <- idx;
  t.arcs <- idx + 1

let add_edge t ~src ~dst ~cap ~cost =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Mcmf.add_edge: vertex out of range";
  if cap < 0 then invalid_arg "Mcmf.add_edge: negative capacity";
  (* [not (cost >= 0.0)] also rejects NaN. *)
  if not (cost >= 0.0) then invalid_arg "Mcmf.add_edge: negative cost";
  ensure_capacity t;
  let handle = t.arcs in
  push_arc t src dst cap cost;
  push_arc t dst src 0 (-.cost);
  handle

let flow_on t handle =
  if handle < 0 || handle >= t.arcs then invalid_arg "Mcmf.flow_on: bad handle";
  t.orig_caps.(handle) - t.caps.(handle)

(* Lazy binary min-heap over (dist, vertex), ordered lexicographically —
   the same selection order as an array scan (minimum distance, lowest
   vertex on ties). Improvements push duplicates; stale entries are
   skipped on pop via the visited flag (a vertex's first pop always
   carries its final distance, since later improvements pushed strictly
   smaller keys). A caller reserves room, writes the key straight into
   [keys.(size)], then calls [heap_push] with the vertex: passing the
   float as an argument would box it without flambda. *)
type heap = {
  mutable keys : float array;
  mutable verts : int array;
  mutable size : int;
}

let heap_less h i j =
  let ki = h.keys.(i) and kj = h.keys.(j) in
  ki < kj || (ki = kj && h.verts.(i) < h.verts.(j))

let heap_swap h i j =
  let k = h.keys.(i) and v = h.verts.(i) in
  h.keys.(i) <- h.keys.(j);
  h.verts.(i) <- h.verts.(j);
  h.keys.(j) <- k;
  h.verts.(j) <- v

(* Make room for one more entry at index [h.size]. *)
let heap_reserve h =
  if h.size = Array.length h.keys then begin
    let cap = 2 * h.size in
    let keys = Array.make cap 0.0 and verts = Array.make cap 0 in
    Array.blit h.keys 0 keys 0 h.size;
    Array.blit h.verts 0 verts 0 h.size;
    h.keys <- keys;
    h.verts <- verts
  end

(* Sift up the entry whose key was just stored at [h.size]. *)
let heap_push h vertex =
  h.verts.(h.size) <- vertex;
  h.size <- h.size + 1;
  let i = ref (h.size - 1) in
  while !i > 0 && heap_less h !i ((!i - 1) / 2) do
    heap_swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let heap_pop h =
  let top = h.verts.(0) in
  h.size <- h.size - 1;
  h.keys.(0) <- h.keys.(h.size);
  h.verts.(0) <- h.verts.(h.size);
  let i = ref 0 in
  let stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < h.size && heap_less h l !m then m := l;
    if r < h.size && heap_less h r !m then m := r;
    if !m = !i then stop := true
    else begin
      heap_swap h !i !m;
      i := !m
    end
  done;
  top

let solve t ~source ~sink =
  if source = sink then invalid_arg "Mcmf.solve: source = sink";
  (* Costs are non-negative ({!add_edge}), so zero potentials are
     feasible to start with. *)
  let pot = Array.make t.n 0.0 in
  let dist = Array.make t.n infinity in
  let prev_arc = Array.make t.n (-1) in
  let visited = Array.make t.n false in
  let h = { keys = Array.make 256 0.0; verts = Array.make 256 0; size = 0 } in
  let total_flow = ref 0 and total_cost = ref 0.0 in
  let continue = ref true in
  while !continue do
    (* Dijkstra with reduced costs cost + pot(u) - pot(v) >= 0, stopped
       once the sink is settled: the path to it is final by then. *)
    Array.fill dist 0 t.n infinity;
    Array.fill prev_arc 0 t.n (-1);
    Array.fill visited 0 t.n false;
    dist.(source) <- 0.0;
    h.size <- 0;
    h.keys.(0) <- 0.0;
    heap_push h source;
    while h.size > 0 do
      let u = heap_pop h in
      if not visited.(u) then begin
        visited.(u) <- true;
        if u = sink then h.size <- 0
        else begin
          let a = ref t.heads.(u) in
          while !a <> -1 do
            let v = t.dsts.(!a) in
            if t.caps.(!a) > 0 && not visited.(v) then begin
              let reduced = t.costs.(!a) +. pot.(u) -. pot.(v) in
              let nd = dist.(u) +. (if reduced > 0.0 then reduced else 0.0) in
              if nd < dist.(v) -. 1e-15 then begin
                dist.(v) <- nd;
                prev_arc.(v) <- !a;
                heap_reserve h;
                h.keys.(h.size) <- nd;
                heap_push h v
              end
            end;
            a := t.nexts.(!a)
          done
        end
      end
    done;
    if not visited.(sink) then continue := false
    else begin
      (* Settled vertices move by their own distance, every other vertex
         by the sink's, which is no larger than any unsettled tentative
         distance: each residual arc keeps a non-negative reduced cost. *)
      let ds = dist.(sink) in
      for v = 0 to t.n - 1 do
        pot.(v) <- pot.(v) +. (if visited.(v) then dist.(v) else ds)
      done;
      (* Bottleneck along the shortest path. *)
      let bottleneck = ref max_int in
      let v = ref sink in
      while !v <> source do
        let a = prev_arc.(!v) in
        if t.caps.(a) < !bottleneck then bottleneck := t.caps.(a);
        v := t.dsts.(a lxor 1)
      done;
      let v = ref sink in
      while !v <> source do
        let a = prev_arc.(!v) in
        t.caps.(a) <- t.caps.(a) - !bottleneck;
        t.caps.(a lxor 1) <- t.caps.(a lxor 1) + !bottleneck;
        total_cost := !total_cost +. (t.costs.(a) *. float_of_int !bottleneck);
        v := t.dsts.(a lxor 1)
      done;
      total_flow := !total_flow + !bottleneck
    end
  done;
  (!total_flow, !total_cost)
