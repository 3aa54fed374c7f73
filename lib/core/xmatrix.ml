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

(* Live counters; [stats] snapshots them. Owned by the one domain that
   reads the matrix. *)
type counters = { mutable hits : int; mutable misses : int }

type table = {
  (* rows.(i).(k): every candidate pair of net i against its k-th
     neighbour m = neighbors.(i).(k), in one array. The first
     [ni * nm] cells are a header (ni, nm the two candidate counts): cell
     [j * nm + n] holds the offset within the row of the per-path counts
     of candidate (i, j) against candidate (m, n), or 0 when every one of
     those counts is zero. The non-zero entries follow the header. *)
  rows : int array array array;
  mirror : int array array;  (* mirror.(i).(k): the slot of i in neighbors.(m) *)
  neighbors : int array array;  (* the ascending rows the table was built over *)
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

(* [Loss.crossing_bundled] of one parameter set, tabulated for the small
   counts that make up nearly every entry; larger counts call through. *)
type bundled = { params : Params.t; small : float array }

let bundled params = { params; small = Array.init 64 (Loss.crossing_bundled params) }

let[@inline] bundled_loss b c =
  if c < Array.length b.small then b.small.(c) else Loss.crossing_bundled b.params c

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

(* One directed pair (i, m) as its contiguous row (layout at [table]).
   For each candidate (m, n), each live edge of each of i's topology
   slots is counted once against n's optical edges; a path's count is
   then the sum over its edges, which equals [Segment.count_crossings]
   of the path's segments against n's optical segments. [scratch] holds
   the header and, in (n, j) order, the entries found so far; it is sized
   for the worst case, and the row is cut from it in one copy. *)
let build_pair shapes i m =
  let si = shapes.(i) and sm = shapes.(m) in
  let ni = Array.length si.slot and nm = Array.length sm.slot in
  let tables =
    Array.init (Array.length si.segs) (fun a ->
        Array.init (Array.length sm.segs) (fun b -> edge_table si a sm b))
  in
  let edge_counts = Array.map (fun segs -> Array.make (Array.length segs) 0) si.segs in
  let header = ni * nm in
  let total_paths = Array.fold_left (fun acc ps -> acc + Array.length ps) 0 si.path_edges in
  let scratch = Array.make (header + (total_paths * nm)) 0 in
  let used = ref header in
  for n = 0 to nm - 1 do
    let opt = sm.opt_edges.(n) and b = sm.slot.(n) in
    if Array.length opt > 0 then begin
      Array.iteri
        (fun a counts ->
          match tables.(a).(b) with
          | None -> ()
          | Some (tbl, width) ->
              for u = 0 to Array.length counts - 1 do
                let row = u * width and c = ref 0 in
                for y = 0 to Array.length opt - 1 do
                  c := !c + Char.code (Bytes.get tbl (row + opt.(y)))
                done;
                counts.(u) <- !c
              done)
        edge_counts;
      for j = 0 to ni - 1 do
        let a = si.slot.(j) and paths = si.path_edges.(j) in
        if Option.is_some tables.(a).(b) && Array.length paths > 0 then begin
          let counts = edge_counts.(a) and start = !used in
          let nonzero = ref false in
          Array.iteri
            (fun p edges ->
              let c = ref 0 in
              for x = 0 to Array.length edges - 1 do
                c := !c + counts.(edges.(x))
              done;
              if !c > 0 then nonzero := true;
              scratch.(start + p) <- !c)
            paths;
          if !nonzero then begin
            scratch.((j * nm) + n) <- start;
            used := start + Array.length paths
          end
        end
      done
    end
  done;
  Array.sub scratch 0 !used

(* Position of [m] in the ascending row [arr], if present. *)
let find_slot arr m =
  let lo = ref 0 and hi = ref (Array.length arr) and found = ref None in
  while Option.is_none !found && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = arr.(mid) in
    if v = m then found := Some mid else if v < m then lo := mid + 1 else hi := mid
  done;
  !found

let build ?(exec = Executor.sequential) ?reuse cands neighbors =
  let t0 = Timer.now () in
  (* Mirror slots. Visiting the nets in ascending order meets the
     partners of each row in ascending order too, so with symmetric
     ascending rows the slot of i in m's row is the number of m's
     partners visited before i. *)
  let malformed () =
    invalid_arg "Xmatrix.build: neighbour rows must be symmetric and ascending"
  in
  let cursor = Array.make (Array.length neighbors) 0 in
  let mirror =
    Array.mapi
      (fun i ms ->
        Array.map
          (fun m ->
            let km = cursor.(m) in
            if km >= Array.length neighbors.(m) || neighbors.(m).(km) <> i then
              malformed ();
            cursor.(m) <- km + 1;
            km)
          ms)
      neighbors
  in
  Array.iteri (fun m ms -> if cursor.(m) <> Array.length ms then malformed ()) neighbors;
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
            Option.map (fun k -> ptb.rows.(i).(k)) (find_slot ptb.neighbors.(i) m)
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
  (* Tasks run in (net, slot) order, so the rows fill in that order. *)
  let next = ref 0 and entries = ref 0 in
  let rows =
    Array.mapi
      (fun i ms ->
        Array.map
          (fun m ->
            let row = built.(!next) in
            incr next;
            for h = 0 to (Array.length cands.(i) * Array.length cands.(m)) - 1 do
              if row.(h) > 0 then incr entries
            done;
            row)
          ms)
      neighbors
  in
  { cands;
    table =
      Some
        { rows;
          mirror;
          neighbors;
          pairs = Array.length tasks;
          entries = !entries;
          reused;
          build_seconds = Timer.now () -. t0 };
    counters = { hits = 0; misses = 0 } }

let direct cands = { cands; table = None; counters = { hits = 0; misses = 0 } }

let enabled t = t.table <> None

let mirror t ~i ~k =
  match t.table with
  | Some tb -> tb.mirror.(i).(k)
  | None -> invalid_arg "Xmatrix.mirror: direct matrix"

(* The readers. A table read finds the entry's offset in the row header
   and counts one hit; a direct matrix counts the entry's crossings from
   the geometry and one miss. Zero counts add nothing: every sum they
   feed starts at (or above) +0.0 and only grows, where adding +0.0
   changes no bit. *)

let add_losses t b ~i ~k ~j ~m ~n acc off =
  let paths = t.cands.(i).(j).Candidate.paths in
  match t.table with
  | Some tb ->
      t.counters.hits <- t.counters.hits + 1;
      let row = tb.rows.(i).(k) in
      let e = row.((j * Array.length t.cands.(m)) + n) in
      if e > 0 then
        for p = 0 to Array.length paths - 1 do
          let c = row.(e + p) in
          if c > 0 then acc.(off + p) <- acc.(off + p) +. bundled_loss b c
        done
  | None ->
      t.counters.misses <- t.counters.misses + 1;
      let other = t.cands.(m).(n).Candidate.opt_segments in
      for p = 0 to Array.length paths - 1 do
        let c = Segment.count_crossings paths.(p).Candidate.segments other in
        if c > 0 then acc.(off + p) <- acc.(off + p) +. bundled_loss b c
      done

let add_weighted t b ~i ~k ~j ~m ~n w acc idx =
  let paths = t.cands.(m).(n).Candidate.paths in
  match t.table with
  | Some tb ->
      t.counters.hits <- t.counters.hits + 1;
      let row = tb.rows.(m).(tb.mirror.(i).(k)) in
      let e = row.((n * Array.length t.cands.(i)) + j) in
      if e > 0 then
        for q = 0 to Array.length paths - 1 do
          let c = row.(e + q) in
          if c > 0 then acc.(idx) <- acc.(idx) +. (w.(q) *. bundled_loss b c)
        done
  | None ->
      t.counters.misses <- t.counters.misses + 1;
      let other = t.cands.(i).(j).Candidate.opt_segments in
      for q = 0 to Array.length paths - 1 do
        let c = Segment.count_crossings paths.(q).Candidate.segments other in
        if c > 0 then acc.(idx) <- acc.(idx) +. (w.(q) *. bundled_loss b c)
      done

let slot_counts t ~i ~k ~j ~m ~n =
  let np = Array.length t.cands.(i).(j).Candidate.paths in
  match t.table with
  | Some tb ->
      t.counters.hits <- t.counters.hits + 1;
      let row = tb.rows.(i).(k) in
      let e = row.((j * Array.length t.cands.(m)) + n) in
      if e > 0 then Array.sub row e np else Array.make np 0
  | None ->
      t.counters.misses <- t.counters.misses + 1;
      compute_counts t.cands i j m n

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
