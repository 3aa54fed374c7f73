open Operon_geom
open Operon_optical
open Operon_steiner
open Operon_util

type stats = {
  enabled : bool;
  pairs : int;
  entries : int;
  build_seconds : float;
  hits : int;
  misses : int;
}

(* Live counters; [stats] snapshots them. Coordinator-domain only. *)
type counters = { mutable hits : int; mutable misses : int }

type table = {
  (* rows.(i).(k).(j).(n) = per-path crossing counts of candidate (i, j)
     against candidate (neighbors.(i).(k), n); [None] rows are all-zero
     and resolve to the shared [zeros.(i).(j)] array. *)
  rows : int array option array array array array;
  pos : (int, int) Hashtbl.t array;  (* net i -> neighbour id -> slot k *)
  zeros : int array array array;  (* i -> j -> canonical all-zero counts *)
  pairs : int;
  entries : int;
  reused : int;  (* directed pairs whose row came from a previous table *)
  build_seconds : float;
}

type t = {
  cands : Candidate.t array array;
  table : table option;  (* [None] = direct (uncached) mode *)
  counters : counters;
}

let compute_counts cands i j m n =
  let c = cands.(i).(j) and other = cands.(m).(n) in
  Array.init (Array.length c.Candidate.paths) (fun p ->
      Segment.count_crossings c.Candidate.paths.(p).Candidate.segments
        other.Candidate.opt_segments)

(* Edge geometry of one net's candidates, shared by every pair the net
   takes part in. Candidates labelling the same topology value share one
   slot, so the crossing predicate is evaluated once per (edge, edge) of
   two slots rather than once per (segment, segment) of every candidate
   pair; equal but physically distinct topologies get separate slots and
   simply share nothing. Only a slot's live edges (optical in some of its
   candidates) take part, numbered from 0. *)
type shape = {
  slot : int array;  (* candidate -> topology slot *)
  segs : Segment.t array array;  (* slot -> live edge -> its segment *)
  opt_edges : int array array;  (* candidate -> its optical edges *)
  path_edges : int array array array;  (* candidate -> path -> its edges *)
}

let shape_of (cands : Candidate.t array) =
  let topos = ref [||] in
  let slot =
    Array.map
      (fun (c : Candidate.t) ->
        match Array.find_index (fun t -> t == c.Candidate.topo) !topos with
        | Some k -> k
        | None ->
            topos := Array.append !topos [| c.Candidate.topo |];
            Array.length !topos - 1)
      cands
  in
  let topos = !topos in
  let optical (c : Candidate.t) v =
    Topology.parent c.Candidate.topo v >= 0 && c.Candidate.labels.(v) = Candidate.Optical
  in
  (* live.(k).(v): number of node [v]'s edge among slot [k]'s live edges,
     or -1 when no candidate of the slot labels it optical *)
  let live = Array.map (fun topo -> Array.make (Topology.node_count topo) (-1)) topos in
  Array.iteri
    (fun j c ->
      Array.iteri (fun v _ -> if optical c v then live.(slot.(j)).(v) <- 0) live.(slot.(j)))
    cands;
  let segs =
    Array.mapi
      (fun k topo ->
        let edges = ref [] in
        Array.iteri
          (fun v used ->
            if used >= 0 then begin
              live.(k).(v) <- List.length !edges;
              edges := Topology.segment_of_edge topo v :: !edges
            end)
          live.(k);
        Array.of_list (List.rev !edges))
      topos
  in
  let opt_edges =
    Array.mapi
      (fun j c ->
        let index = live.(slot.(j)) in
        List.init (Array.length index) Fun.id
        |> List.filter_map (fun v -> if optical c v then Some index.(v) else None)
        |> Array.of_list)
      cands
  in
  let path_edges =
    Array.mapi
      (fun j (c : Candidate.t) ->
        let index = live.(slot.(j)) in
        Array.map
          (fun (path : Candidate.path) ->
            let rec up v acc =
              if v = path.Candidate.start_node then Array.of_list acc
              else up (Topology.parent c.Candidate.topo v) (index.(v) :: acc)
            in
            up path.Candidate.sink_node [])
          c.Candidate.paths)
      cands
  in
  { slot; segs; opt_edges; path_edges }

(* Crossings between the live edges of slot [a] of [si] (rows) and slot
   [b] of [sm] (columns), as a 0/1 byte matrix [width] columns wide;
   [None] when no pair crosses. *)
let edge_table si a sm b =
  let sa = si.segs.(a) and sb = sm.segs.(b) in
  let width = Array.length sb in
  let tbl = ref Bytes.empty in
  for u = 0 to Array.length sa - 1 do
    for v = 0 to width - 1 do
      if Segment.crosses_properly sa.(u) sb.(v) then begin
        if Bytes.length !tbl = 0 then tbl := Bytes.make (Array.length sa * width) '\000';
        Bytes.set !tbl ((u * width) + v) '\001'
      end
    done
  done;
  if Bytes.length !tbl = 0 then None else Some (!tbl, width)

(* Crossings between one path's edges and another candidate's optical
   edges, read off their slots' edge table. *)
let path_count tbl width edges opt =
  let c = ref 0 in
  for x = 0 to Array.length edges - 1 do
    let row = edges.(x) * width in
    for y = 0 to Array.length opt - 1 do
      c := !c + Char.code (Bytes.get tbl (row + opt.(y)))
    done
  done;
  !c

(* One directed pair (i, m): counts for every candidate pair, sparsified.
   Each count equals [Segment.count_crossings] of the path's segments
   against the other candidate's optical segments. *)
let build_pair shapes i m =
  let si = shapes.(i) and sm = shapes.(m) in
  let tables =
    Array.init (Array.length si.segs) (fun a ->
        Array.init (Array.length sm.segs) (fun b -> edge_table si a sm b))
  in
  Array.init (Array.length si.slot) (fun j ->
      let paths = si.path_edges.(j) in
      Array.init (Array.length sm.slot) (fun n ->
          let opt = sm.opt_edges.(n) in
          if Array.length paths = 0 || Array.length opt = 0 then None
          else
            match tables.(si.slot.(j)).(sm.slot.(n)) with
            | None -> None
            | Some (tbl, width) ->
                let counts = Array.map (fun edges -> path_count tbl width edges opt) paths in
                if Array.for_all (fun x -> x = 0) counts then None else Some counts))

let build ?(exec = Executor.sequential) ?reuse cands neighbors =
  let t0 = Timer.now () in
  (* ECO row sharing: a directed pair (i, m) whose two candidate arrays
     were carried over unchanged has bit-identical crossing geometry, so
     the previous table's row (an immutable array, safe to alias) is the
     row a fresh build would produce. Pairs absent from the previous
     adjacency — or involving any recomputed net — are built from the
     geometry as usual. *)
  let prev_row =
    match reuse with
    | Some ({ table = Some ptb; _ }, keep) ->
        fun i m ->
          if keep i m then
            match Hashtbl.find_opt ptb.pos.(i) m with
            | Some k -> Some ptb.rows.(i).(k)
            | None -> None
          else None
    | _ -> fun _ _ -> None
  in
  let tasks =
    Array.concat
      (Array.to_list
         (Array.mapi (fun i ms -> Array.map (fun m -> (i, m)) ms) neighbors))
  in
  let reused =
    Array.fold_left
      (fun acc (i, m) -> if Option.is_some (prev_row i m) then acc + 1 else acc)
      0 tasks
  in
  let shapes = Array.map shape_of cands in
  let built =
    Executor.parallel_map exec
      (fun (i, m) ->
        match prev_row i m with
        | Some row -> row
        | None -> build_pair shapes i m)
      tasks
  in
  let n = Array.length cands in
  let rows = Array.map (fun ms -> Array.make (Array.length ms) [||]) neighbors in
  let pos =
    Array.map
      (fun ms ->
        let h = Hashtbl.create (Stdlib.max 1 (Array.length ms)) in
        Array.iteri (fun k m -> Hashtbl.replace h m k) ms;
        h)
      neighbors
  in
  let entries = ref 0 in
  Array.iteri
    (fun t (i, m) ->
      let k = Hashtbl.find pos.(i) m in
      rows.(i).(k) <- built.(t);
      Array.iter
        (Array.iter (function Some _ -> incr entries | None -> ()))
        built.(t))
    tasks;
  let zeros =
    Array.init n (fun i ->
        Array.map
          (fun (c : Candidate.t) -> Array.make (Array.length c.Candidate.paths) 0)
          cands.(i))
  in
  { cands;
    table =
      Some
        { rows;
          pos;
          zeros;
          pairs = Array.length tasks;
          entries = !entries;
          reused;
          build_seconds = Timer.now () -. t0 };
    counters = { hits = 0; misses = 0 } }

let direct cands = { cands; table = None; counters = { hits = 0; misses = 0 } }

let enabled t = t.table <> None

let miss t i j m n =
  t.counters.misses <- t.counters.misses + 1;
  compute_counts t.cands i j m n

let slot_counts t ~i ~k ~j ~m ~n =
  match t.table with
  | Some tb -> (
      t.counters.hits <- t.counters.hits + 1;
      match tb.rows.(i).(k).(j).(n) with
      | Some counts -> counts
      | None -> tb.zeros.(i).(j))
  | None -> miss t i j m n

let path_counts t ~i ~j ~m ~n =
  match t.table with
  | Some tb -> (
      match Hashtbl.find_opt tb.pos.(i) m with
      | Some k -> slot_counts t ~i ~k ~j ~m ~n
      | None ->
          (* Not a neighbour pair: fall through to the geometry. *)
          miss t i j m n)
  | None -> miss t i j m n

let count t ~i ~j ~p ~m ~n =
  match t.table with
  | Some _ -> (path_counts t ~i ~j ~m ~n).(p)
  | None ->
      t.counters.misses <- t.counters.misses + 1;
      Segment.count_crossings
        t.cands.(i).(j).Candidate.paths.(p).Candidate.segments
        t.cands.(m).(n).Candidate.opt_segments

let loss_on_path t params ~i ~j ~p ~m ~n =
  Loss.crossing_bundled params (count t ~i ~j ~p ~m ~n)

let stats t =
  let pairs, entries, build_seconds =
    match t.table with
    | Some tb -> (tb.pairs, tb.entries, tb.build_seconds)
    | None -> (0, 0, 0.0)
  in
  { enabled = t.table <> None;
    pairs;
    entries;
    build_seconds;
    hits = t.counters.hits;
    misses = t.counters.misses }

let reused_rows t = match t.table with Some tb -> tb.reused | None -> 0

let reset_counters t =
  t.counters.hits <- 0;
  t.counters.misses <- 0
