type t = {
  n : int;
  mutable heads : int array; (* head arc index per vertex, -1 = none *)
  mutable nexts : int array; (* next arc in the vertex's list *)
  mutable dsts : int array;
  mutable caps : int array; (* residual capacities *)
  mutable arcs : int; (* number of arcs (forward + residual) *)
  mutable orig_caps : int array; (* original capacity, for flow readback *)
}

let create n =
  if n <= 0 then invalid_arg "Maxflow.create: non-positive size";
  { n;
    heads = Array.make n (-1);
    nexts = Array.make 16 (-1);
    dsts = Array.make 16 0;
    caps = Array.make 16 0;
    orig_caps = Array.make 16 0;
    arcs = 0 }

let vertex_count t = t.n

let ensure_capacity t =
  if t.arcs + 2 > Array.length t.nexts then begin
    let cap = Array.length t.nexts * 2 in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.arcs;
      b
    in
    t.nexts <- grow t.nexts (-1);
    t.dsts <- grow t.dsts 0;
    t.caps <- grow t.caps 0;
    t.orig_caps <- grow t.orig_caps 0
  end

let push_arc t u v c =
  let idx = t.arcs in
  t.dsts.(idx) <- v;
  t.caps.(idx) <- c;
  t.orig_caps.(idx) <- c;
  t.nexts.(idx) <- t.heads.(u);
  t.heads.(u) <- idx;
  t.arcs <- idx + 1

let add_edge t ~src ~dst ~cap =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge: vertex out of range";
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  ensure_capacity t;
  let handle = t.arcs in
  push_arc t src dst cap;
  push_arc t dst src 0;
  handle

let flow_on t handle =
  if handle < 0 || handle >= t.arcs then invalid_arg "Maxflow.flow_on: bad handle";
  t.orig_caps.(handle) - t.caps.(handle)

let snapshot t = Array.sub t.caps 0 t.arcs

let restore t saved =
  if Array.length saved <> t.arcs then
    invalid_arg "Maxflow.restore: snapshot taken on a different arc count";
  Array.blit saved 0 t.caps 0 t.arcs

let cancel t handle units =
  if handle < 0 || handle >= t.arcs then invalid_arg "Maxflow.cancel: bad handle";
  if units < 0 || units > flow_on t handle then
    invalid_arg "Maxflow.cancel: units exceed the arc's flow";
  t.caps.(handle) <- t.caps.(handle) + units;
  t.caps.(handle lxor 1) <- t.caps.(handle lxor 1) - units

let disable t handle =
  if handle < 0 || handle >= t.arcs then invalid_arg "Maxflow.disable: bad handle";
  t.caps.(handle) <- 0;
  t.caps.(handle lxor 1) <- 0

let reachable t ~source =
  if source < 0 || source >= t.n then invalid_arg "Maxflow.reachable: vertex out of range";
  let seen = Array.make t.n false in
  let queue = Queue.create () in
  seen.(source) <- true;
  Queue.push source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let a = ref t.heads.(u) in
    while !a <> -1 do
      let v = t.dsts.(!a) in
      if t.caps.(!a) > 0 && not seen.(v) then begin
        seen.(v) <- true;
        Queue.push v queue
      end;
      a := t.nexts.(!a)
    done
  done;
  seen

(* Dinic: BFS level graph + DFS blocking flows. Both stop at the sink's
   level, which leaves every augmenting path, and so the flow, as a full
   level graph would give it. *)
let max_flow t ~source ~sink =
  if source = sink then invalid_arg "Maxflow.max_flow: source = sink";
  let level = Array.make t.n (-1) in
  let iter = Array.make t.n (-1) in
  let queue = Queue.create () in
  let bfs () =
    Array.fill level 0 t.n (-1);
    Queue.clear queue;
    level.(source) <- 0;
    Queue.push source queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      (* Levels leave the queue in ascending order: once they reach the
         sink's, no vertex left can lie on a shortest path to it. *)
      if level.(sink) <> -1 && level.(u) >= level.(sink) then Queue.clear queue
      else begin
        let a = ref t.heads.(u) in
        while !a <> -1 do
          let v = t.dsts.(!a) in
          if t.caps.(!a) > 0 && level.(v) = -1 then begin
            level.(v) <- level.(u) + 1;
            Queue.push v queue
          end;
          a := t.nexts.(!a)
        done
      end
    done;
    level.(sink) <> -1
  in
  let rec dfs u limit =
    if u = sink then limit
    else begin
      let pushed = ref 0 in
      while !pushed = 0 && iter.(u) <> -1 do
        let a = iter.(u) in
        let v = t.dsts.(a) in
        (* A vertex other than the sink at the sink's level or beyond
           cannot reach it along rising levels: skip it. *)
        if
          t.caps.(a) > 0
          && level.(v) = level.(u) + 1
          && (v = sink || level.(v) < level.(sink))
        then begin
          let got = dfs v (min limit t.caps.(a)) in
          if got > 0 then begin
            t.caps.(a) <- t.caps.(a) - got;
            (* Residual twin is the arc paired at construction: forward arcs
               are even indices, twins odd — a lxor 1 flips between them. *)
            t.caps.(a lxor 1) <- t.caps.(a lxor 1) + got;
            pushed := got
          end
          else iter.(u) <- t.nexts.(a)
        end
        else iter.(u) <- t.nexts.(a)
      done;
      !pushed
    end
  in
  let total = ref 0 in
  while bfs () do
    Array.blit t.heads 0 iter 0 t.n;
    let rec drain () =
      let got = dfs source max_int in
      if got > 0 then begin
        total := !total + got;
        drain ()
      end
    in
    drain ()
  done;
  !total
