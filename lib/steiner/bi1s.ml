open Operon_geom
open Operon_graph

let hanan_points pts =
  let module PSet = Set.Make (struct
    type t = Point.t

    let compare = Point.compare
  end) in
  let inputs = Array.fold_left (fun s p -> PSet.add p s) PSet.empty pts in
  let acc = ref PSet.empty in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          let cand = Point.make a.Point.x b.Point.y in
          if not (PSet.mem cand inputs) then acc := PSet.add cand !acc)
        pts)
    pts;
  Array.of_list (PSet.elements !acc)

let mst_length metric pts =
  let d = Topology.dist metric in
  let edges = Mst.prim_dense (Array.length pts) (fun i j -> d pts.(i) pts.(j)) in
  List.fold_left (fun acc (u, v) -> acc +. d pts.(u) pts.(v)) 0.0 edges

let mst_tree metric pts ~root =
  let n = Array.length pts in
  if n = 0 then invalid_arg "Bi1s.mst_tree: no terminals";
  if n = 1 then
    Topology.make ~positions:pts ~nterminals:1 ~edges:[] ~root:0
  else begin
    let d = Topology.dist metric in
    let edges = Mst.prim_dense n (fun i j -> d pts.(i) pts.(j)) in
    Topology.make ~positions:pts ~nterminals:n ~edges ~root
  end

(* Remove Steiner points of degree <= 2 from an MST edge set: degree-1
   points are dropped with their edge, degree-2 points are spliced (the
   triangle inequality guarantees no length increase in L1 or L2). Returns
   the surviving point set (terminals keep their indices) and edges. *)
let prune_steiner ~nterminals points edges =
  let n = Array.length points in
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  let alive = Array.make n true in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = nterminals to n - 1 do
      if alive.(v) then begin
        match adj.(v) with
        | [] -> alive.(v) <- false
        | [ u ] ->
            alive.(v) <- false;
            adj.(u) <- List.filter (fun w -> w <> v) adj.(u);
            adj.(v) <- [];
            changed := true
        | [ u; w ] ->
            alive.(v) <- false;
            adj.(u) <- w :: List.filter (fun x -> x <> v) adj.(u);
            adj.(w) <- u :: List.filter (fun x -> x <> v) adj.(w);
            adj.(v) <- [];
            changed := true
        | _ -> ()
      end
    done
  done;
  (* Compact indices: terminals first (all alive), then surviving Steiner. *)
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if alive.(v) then begin
      remap.(v) <- !next;
      incr next
    end
  done;
  let positions = Array.make !next Point.origin in
  for v = 0 to n - 1 do
    if alive.(v) then positions.(remap.(v)) <- points.(v)
  done;
  let out_edges = ref [] in
  Array.iteri
    (fun u nbrs ->
      List.iter (fun v -> if u < v then out_edges := (remap.(u), remap.(v)) :: !out_edges) nbrs)
    adj;
  (positions, !out_edges)

let build ?(max_rounds = 3) ?(max_candidates = 256) metric terminals ~root =
  let nterminals = Array.length terminals in
  if nterminals = 0 then invalid_arg "Bi1s.build: no terminals";
  if nterminals <= 2 then mst_tree metric terminals ~root
  else begin
    let steiner = ref [] in
    let current () = Array.append terminals (Array.of_list !steiner) in
    let improved = ref true in
    let rounds = ref 0 in
    while !improved && !rounds < max_rounds do
      improved := false;
      incr rounds;
      let pts = current () in
      let base_len = mst_length metric pts in
      let candidates = hanan_points pts in
      (* Cap the pool: keep candidates nearest the centroid, where Steiner
         points are most likely to help. *)
      let candidates =
        if Array.length candidates <= max_candidates then candidates
        else begin
          let c = Point.centroid pts in
          let keyed = Array.map (fun p -> (Point.l2_sq c p, p)) candidates in
          Array.sort (fun (a, _) (b, _) -> Float.compare a b) keyed;
          Array.map snd (Array.sub keyed 0 max_candidates)
        end
      in
      (* Batch: score every candidate against the round-start tree... *)
      let scored =
        Array.map
          (fun cand ->
            let gain = base_len -. mst_length metric (Array.append pts [| cand |]) in
            (gain, cand))
          candidates
      in
      Array.sort (fun (a, _) (b, _) -> Float.compare b a) scored;
      (* ...then accept greedily, re-verifying each gain against the point
         set as already extended this round. *)
      let eps = 1e-9 in
      Array.iter
        (fun (batch_gain, cand) ->
          if batch_gain > eps then begin
            let pts_now = current () in
            let len_now = mst_length metric pts_now in
            let len_with = mst_length metric (Array.append pts_now [| cand |]) in
            if len_now -. len_with > eps then begin
              steiner := cand :: !steiner;
              improved := true
            end
          end)
        scored
    done;
    let pts = current () in
    let d = Topology.dist metric in
    let mst_edges =
      Mst.prim_dense (Array.length pts) (fun i j -> d pts.(i) pts.(j))
    in
    let positions, edges = prune_steiner ~nterminals pts mst_edges in
    Topology.make ~positions ~nterminals ~edges ~root
  end

let subdivide topo ~max_len =
  if max_len <= 0.0 then invalid_arg "Bi1s.subdivide: non-positive max_len";
  let n = Topology.node_count topo in
  let positions = ref (Array.to_list (Topology.positions topo)) in
  let next = ref n in
  let edges = ref [] in
  List.iter
    (fun (p, v) ->
      let a = Topology.position topo p and b = Topology.position topo v in
      let len = Point.l2 a b in
      let pieces = int_of_float (Float.ceil (len /. max_len)) in
      if pieces <= 1 then edges := (p, v) :: !edges
      else begin
        let prev = ref p in
        for k = 1 to pieces - 1 do
          let t = float_of_int k /. float_of_int pieces in
          let m = Point.add a (Point.scale t (Point.sub b a)) in
          positions := !positions @ [ m ];
          edges := (!prev, !next) :: !edges;
          prev := !next;
          incr next
        done;
        edges := (!prev, v) :: !edges
      end)
    (Topology.edges topo);
  Topology.make
    ~positions:(Array.of_list !positions)
    ~nterminals:(Topology.terminal_count topo)
    ~edges:!edges ~root:(Topology.root topo)

let star terminals ~root =
  let n = Array.length terminals in
  let edges = ref [] in
  for v = 0 to n - 1 do
    if v <> root then edges := (root, v) :: !edges
  done;
  Topology.make ~positions:terminals ~nterminals:n ~edges:!edges ~root

let shape_key t =
  (* Cheap structural fingerprint for deduplication. *)
  let len = Topology.length Topology.L2 t in
  (Topology.node_count t, Float.round (len *. 1e6))

let baselines terminals ~root =
  let n = Array.length terminals in
  if n = 0 then invalid_arg "Bi1s.baselines: no terminals";
  if n = 1 then
    let t = mst_tree Topology.L2 terminals ~root in
    ([ t ], t)
  else begin
    let primary = build Topology.L2 terminals ~root in
    let rect = build Topology.L1 terminals ~root in
    let cands =
      [ primary;
        subdivide primary ~max_len:1.5;
        mst_tree Topology.L2 terminals ~root;
        rect ]
      @ (if n <= 6 then [ star terminals ~root ] else [])
    in
    let seen = Hashtbl.create 8 in
    ( List.filter
        (fun t ->
          let key = shape_key t in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        cands,
      rect )
  end
