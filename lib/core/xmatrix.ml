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
   candidates) take part. They are numbered from 0 across the net, slot
   by slot: slot [k] holds the edges [first.(k)] to [first.(k + 1) - 1]. *)
type shape = {
  slot : int array;  (* candidate -> topology slot *)
  first : int array;  (* slot -> its first live edge; one past the last at the end *)
  segs : Segment.t array;  (* live edge -> its segment *)
  boxes : float array;  (* [Segment.boxes] of [segs] *)
  opt_edges : int array array;  (* candidate -> its optical edges *)
  path_edges : int array array array;  (* candidate -> path -> its edges *)
}

let is_optical (c : Candidate.t) v =
  Topology.parent c.Candidate.topo v >= 0 && c.Candidate.labels.(v) = Candidate.Optical

(* The topology slot of every candidate, per slot the number of each
   node's edge among the live edges (-1 when no candidate of the slot
   labels it optical), the slots' first edges and the live edges'
   segments. *)
let live_edges (cands : Candidate.t array) =
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
  let live = Array.map (fun topo -> Array.make (Topology.node_count topo) (-1)) topos in
  Array.iteri
    (fun j c ->
      Array.iteri (fun v _ -> if is_optical c v then live.(slot.(j)).(v) <- 0) live.(slot.(j)))
    cands;
  let first = Array.make (Array.length topos + 1) 0 in
  let edges = ref [] and count = ref 0 in
  Array.iteri
    (fun k topo ->
      first.(k) <- !count;
      Array.iteri
        (fun v used ->
          if used >= 0 then begin
            live.(k).(v) <- !count;
            incr count;
            edges := Topology.segment_of_edge topo v :: !edges
          end)
        live.(k))
    topos;
  first.(Array.length topos) <- !count;
  (slot, live, first, Array.of_list (List.rev !edges))

let optical_edges cands =
  let _, _, _, segs = live_edges cands in
  segs

let shape_of (cands : Candidate.t array) =
  let slot, live, first, segs = live_edges cands in
  let opt_edges =
    Array.mapi
      (fun j c ->
        let index = live.(slot.(j)) in
        List.init (Array.length index) Fun.id
        |> List.filter_map (fun v -> if is_optical c v then Some index.(v) else None)
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
  { slot; first; segs; boxes = Segment.boxes segs; opt_edges; path_edges }

(* The crossing edge pairs of an undirected neighbour pair (si, sm): every
   pair (u, v) of a live edge of [si] and a live edge of [sm] that cross
   properly, each tested once and only when their bboxes meet. A pair is
   stored as one int, [u] above bit [edge_bits] and [v] below it. *)
let edge_bits = 31

let crossings_of si sm =
  let buf = ref (Array.make 8 0) and len = ref 0 in
  for u = 0 to Array.length si.segs - 1 do
    for v = 0 to Array.length sm.segs - 1 do
      if
        Segment.boxes_overlap si.boxes u sm.boxes v
        && Segment.crosses_properly si.segs.(u) sm.segs.(v)
      then begin
        if !len = Array.length !buf then begin
          let grown = Array.make (2 * !len) 0 in
          Array.blit !buf 0 grown 0 !len;
          buf := grown
        end;
        !buf.(!len) <- (u lsl edge_bits) lor v;
        incr len
      end
    done
  done;
  Array.sub !buf 0 !len

(* The row of net [sx] against its neighbour [sy] (layout at [table]),
   assembled into [scratch] and cut from it in one copy. [x_first] says
   whether [sx] is the first net of the pair [cross] was listed for; the
   row of the second net reads the same list transposed, which is exact
   because [Segment.crosses_properly] is symmetric. For each candidate
   (y, n), its optical edges are marked in [mark], and each crossing adds
   one to the count of its x-edge in [counts] when its y-edge is marked.
   A path's count is then the sum over its edges, which equals
   [Segment.count_crossings] of the path's segments against n's optical
   segments. [hot.(a)] records whether any edge of slot [a] crosses n;
   candidates of a slot without any are skipped. Entries are appended in
   (n, j) order after the header. *)
let assemble cross ~x_first sx sy ~scratch ~counts ~mark ~hot =
  let nx = Array.length sx.slot and ny = Array.length sy.slot in
  let header = nx * ny in
  Array.fill scratch 0 header 0;
  let used = ref header in
  (* The x-edge and the y-edge of a stored crossing. *)
  let low = (1 lsl edge_bits) - 1 in
  let x_of c = if x_first then c lsr edge_bits else c land low in
  let y_of c = if x_first then c land low else c lsr edge_bits in
  for n = 0 to ny - 1 do
    let opt = sy.opt_edges.(n) in
    if Array.length opt > 0 then begin
      for y = 0 to Array.length opt - 1 do
        mark.(opt.(y)) <- 1
      done;
      for q = 0 to Array.length cross - 1 do
        let u = x_of cross.(q) in
        counts.(u) <- counts.(u) + mark.(y_of cross.(q))
      done;
      for a = 0 to Array.length sx.first - 2 do
        let any = ref false in
        for u = sx.first.(a) to sx.first.(a + 1) - 1 do
          if counts.(u) > 0 then any := true
        done;
        hot.(a) <- !any
      done;
      for j = 0 to nx - 1 do
        let a = sx.slot.(j) and paths = sx.path_edges.(j) in
        if hot.(a) && Array.length paths > 0 then begin
          let start = !used and nonzero = ref false in
          for p = 0 to Array.length paths - 1 do
            let edges = paths.(p) and total = ref 0 in
            for e = 0 to Array.length edges - 1 do
              total := !total + counts.(edges.(e))
            done;
            if !total > 0 then nonzero := true;
            scratch.(start + p) <- !total
          done;
          if !nonzero then begin
            scratch.((j * ny) + n) <- start;
            used := start + Array.length paths
          end
        end
      done;
      for q = 0 to Array.length cross - 1 do
        counts.(x_of cross.(q)) <- 0
      done;
      for y = 0 to Array.length opt - 1 do
        mark.(opt.(y)) <- 0
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
    invalid_arg
      "Xmatrix.build: neighbour rows must be symmetric, ascending and without self-pairs"
  in
  let cursor = Array.make (Array.length neighbors) 0 in
  let mirror =
    Array.mapi
      (fun i ms ->
        Array.map
          (fun m ->
            let km = cursor.(m) in
            if m = i || km >= Array.length neighbors.(m) || neighbors.(m).(km) <> i
            then malformed ();
            cursor.(m) <- km + 1;
            km)
          ms)
      neighbors
  in
  Array.iteri (fun m ms -> if cursor.(m) <> Array.length ms then malformed ()) neighbors;
  (* ECO row sharing: a pair (i, m) whose two candidate arrays were
     carried over unchanged has bit-identical crossing geometry, so the
     previous table's rows (immutable arrays, safe to alias) are the rows
     a fresh build would produce. [keep] is symmetric, so a kept pair
     reuses both of its rows; pairs absent from the previous adjacency,
     or involving any recomputed net, are built from the geometry as
     usual. *)
  let prev_row =
    match reuse with
    | Some ({ table = Some ptb; _ }, keep) ->
        fun i m ->
          if keep i m then
            Option.map (fun k -> ptb.rows.(i).(k)) (find_slot ptb.neighbors.(i) m)
          else None
    | _ -> fun _ _ -> None
  in
  (* The undirected pairs (i, m), i < m, numbered in (net, slot) order.
     Rows are ascending, so [i]'s partners above it fill its row from slot
     [lower.(i)] on, and slot [k] of that suffix is pair
     [pair_base.(i) + k - lower.(i)]. *)
  let n = Array.length neighbors in
  let lower =
    Array.mapi (fun i ms -> Array.fold_left (fun c m -> if m < i then c + 1 else c) 0 ms) neighbors
  in
  let pair_base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    pair_base.(i + 1) <- pair_base.(i) + Array.length neighbors.(i) - lower.(i)
  done;
  let pair_net = Array.make pair_base.(n) 0 in
  for i = 0 to n - 1 do
    Array.fill pair_net pair_base.(i) (pair_base.(i + 1) - pair_base.(i)) i
  done;
  let pair_of i k =
    let m = neighbors.(i).(k) in
    if m > i then pair_base.(i) + k - lower.(i)
    else pair_base.(m) + mirror.(i).(k) - lower.(m)
  in
  let shapes = Array.map shape_of cands in
  (* One task per undirected pair: its crossing edge pairs, each tested
     once. A carried-over pair needs none. *)
  let crossings =
    Executor.parallel_mapi exec
      (fun p i ->
        let m = neighbors.(i).(lower.(i) + p - pair_base.(i)) in
        if Option.is_some (prev_row i m) then [||] else crossings_of shapes.(i) shapes.(m))
      pair_net
  in
  (* One task per net: its rows in slot order, both directions of a pair
     reading the pair's one crossing list. Building a net's rows together
     keeps them together in memory, in the order the selection engines
     walk them; building both rows of a pair in one task scattered them
     and slowed the ILP's reads. The scratch arrays belong to the task,
     sized for its largest row. *)
  let rows =
    Executor.parallel_mapi exec
      (fun i ms ->
        let si = shapes.(i) in
        let paths = Array.fold_left (fun acc ps -> acc + Array.length ps) 0 si.path_edges in
        let widest f = Array.fold_left (fun acc m -> Int.max acc (f shapes.(m))) 0 ms in
        let scratch =
          Array.make ((Array.length si.slot + paths) * widest (fun s -> Array.length s.slot)) 0
        in
        let counts = Array.make (Array.length si.segs) 0 in
        let mark = Array.make (widest (fun s -> Array.length s.segs)) 0 in
        let hot = Array.make (Array.length si.first) false in
        Array.mapi
          (fun k m ->
            match prev_row i m with
            | Some row -> row
            | None ->
                assemble crossings.(pair_of i k) ~x_first:(i < m) si shapes.(m) ~scratch
                  ~counts ~mark ~hot)
          ms)
      neighbors
  in
  let entries = ref 0 and reused = ref 0 in
  Array.iteri
    (fun i ms ->
      Array.iteri
        (fun k m ->
          let row = rows.(i).(k) in
          if Option.is_some (prev_row i m) then incr reused;
          for h = 0 to (Array.length cands.(i) * Array.length cands.(m)) - 1 do
            if row.(h) > 0 then incr entries
          done)
        ms)
    neighbors;
  { cands;
    table =
      Some
        { rows;
          mirror;
          neighbors;
          pairs = 2 * pair_base.(n);
          entries = !entries;
          reused = !reused;
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
