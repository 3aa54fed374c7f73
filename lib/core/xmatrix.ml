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

(* The rows of one net, packed into one byte block. Row [k] (net i
   against its k-th neighbour m = neighbors.(i).(k)) starts at byte
   [start.(k)] of [bytes]; rows follow each other in slot order and
   [start.(deg)] is the block's length. A row is a header of [ni * nm]
   cells (ni, nm the two candidate counts), [ow] bytes each, then its
   counts, [cw] bytes each. Header cell [j * nm + n] holds 0 when every
   count of candidate (i, j) against candidate (m, n) is zero, and
   otherwise 1 + the index among the row's counts of that entry's first
   count; the entry has one count per optical path of (i, j). Values are
   unsigned little-endian, and [ow] and [cw] are the narrowest of 1, 2, 4
   and 8 bytes that hold the net's largest header value and count. *)
type block = { bytes : Bytes.t; start : int array; ow : int; cw : int }

type table = {
  blocks : block array;  (* blocks.(i): every row of net i *)
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

(* Fixed-width unsigned little-endian values in a block. A setter keeps
   the low [8 * w] bits of its value; [width v] bytes keep all of them. *)
let width v =
  if v < 0x100 then 1 else if v < 0x10000 then 2 else if v < 0x1_0000_0000 then 4 else 8

let[@inline] get32 b pos = Bytes.get_uint16_le b pos lor (Bytes.get_uint16_le b (pos + 2) lsl 16)

let[@inline] get b w pos =
  if w = 1 then Bytes.get_uint8 b pos
  else if w = 2 then Bytes.get_uint16_le b pos
  else if w = 4 then get32 b pos
  else get32 b pos lor (get32 b (pos + 4) lsl 32)

let set32 b pos v =
  Bytes.set_uint16_le b pos v;
  Bytes.set_uint16_le b (pos + 2) (v lsr 16)

let set b w pos v =
  if w = 1 then Bytes.set_uint8 b pos v
  else if w = 2 then Bytes.set_uint16_le b pos v
  else if w = 4 then set32 b pos v
  else begin
    set32 b pos v;
    set32 b (pos + 4) (v lsr 32)
  end

(* The byte at which the counts of the entry with header value [e] start,
   in the row of [header] cells at byte [row] of [blk]. *)
let[@inline] counts_at blk row header e = row + (header * blk.ow) + ((e - 1) * blk.cw)

(* What a net's rows hold so far: entries with a non-zero count, the
   largest header value and the largest count. *)
type tally = { mutable entries : int; mutable top : int; mutable peak : int }

(* The row of net [sx] against its neighbour [sy] (layout at [block]),
   assembled into [scratch] as one int per cell; returns the number of
   cells used. [x_first] says whether [sx] is the first net of the pair
   [cross] was listed for; the row of the second net reads the same list
   transposed, which is exact because [Segment.crosses_properly] is
   symmetric. For each candidate (y, n), its optical edges are marked in
   [mark], and each crossing adds one to the count of its x-edge in
   [counts] when its y-edge is marked. A path's count is then the sum over
   its edges, which equals [Segment.count_crossings] of the path's
   segments against n's optical segments. [hot.(a)] records whether any
   edge of slot [a] crosses n; candidates of a slot without any are
   skipped. Entries are appended in (n, j) order after the header, and
   each one is added to [tally]. *)
let assemble cross ~x_first sx sy ~scratch ~counts ~mark ~hot ~tally =
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
          let start = !used and peak = ref 0 in
          for p = 0 to Array.length paths - 1 do
            let edges = paths.(p) and total = ref 0 in
            for e = 0 to Array.length edges - 1 do
              total := !total + counts.(edges.(e))
            done;
            if !total > !peak then peak := !total;
            scratch.(start + p) <- !total
          done;
          if !peak > 0 then begin
            let v = start - header + 1 in
            scratch.((j * ny) + n) <- v;
            used := start + Array.length paths;
            tally.entries <- tally.entries + 1;
            tally.top <- Int.max tally.top v;
            tally.peak <- Int.max tally.peak !peak
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
  !used

(* Row [k] of [blk], a row of [header] cells, decoded into [scratch] like
   a fresh assembly (ECO reuse), its entries added to [tally]; returns the
   number of cells. *)
let decode blk k ~header ~scratch ~tally =
  let row = blk.start.(k) in
  let data = counts_at blk row header 1 in
  let len = (blk.start.(k + 1) - data) / blk.cw in
  for h = 0 to header - 1 do
    let v = get blk.bytes blk.ow (row + (h * blk.ow)) in
    scratch.(h) <- v;
    if v > 0 then begin
      tally.entries <- tally.entries + 1;
      tally.top <- Int.max tally.top v
    end
  done;
  for c = 0 to len - 1 do
    let v = get blk.bytes blk.cw (data + (c * blk.cw)) in
    scratch.(header + c) <- v;
    tally.peak <- Int.max tally.peak v
  done;
  header + len

(* A net's block under construction: rows [0, k) written into [buf] at
   widths [ow] and [cw], [start.(k)] bytes used; row [r] has [headers.(r)]
   header cells. *)
type writer = {
  mutable buf : Bytes.t;
  mutable ow : int;
  mutable cw : int;
  start : int array;
  headers : int array;
}

(* Re-encode rows [0, k) at the wider widths [ow] and [cw]. Header values
   are count indices, so no value changes, only its width. *)
let widen wr k ~ow ~cw =
  let cells r = (wr.start.(r + 1) - wr.start.(r) - (wr.headers.(r) * wr.ow)) / wr.cw in
  let size = ref 0 in
  for r = 0 to k - 1 do
    size := !size + (wr.headers.(r) * ow) + (cells r * cw)
  done;
  let dst = Bytes.create (Int.max (2 * !size) (Bytes.length wr.buf)) in
  let pos = ref 0 in
  for r = 0 to k - 1 do
    let src = wr.start.(r) and header = wr.headers.(r) and len = cells r in
    for h = 0 to header - 1 do
      set dst ow (!pos + (h * ow)) (get wr.buf wr.ow (src + (h * wr.ow)))
    done;
    let from = src + (header * wr.ow) and into = !pos + (header * ow) in
    for c = 0 to len - 1 do
      set dst cw (into + (c * cw)) (get wr.buf wr.cw (from + (c * wr.cw)))
    done;
    wr.start.(r) <- !pos;
    pos := into + (len * cw)
  done;
  wr.start.(k) <- !pos;
  wr.buf <- dst;
  wr.ow <- ow;
  wr.cw <- cw

(* Append row [k], [used] cells of [scratch] of which [headers.(k)] are
   header cells, widening the block first when [tally] outgrew it. *)
let put wr k scratch used tally =
  let ow = Int.max wr.ow (width tally.top) and cw = Int.max wr.cw (width tally.peak) in
  if ow <> wr.ow || cw <> wr.cw then widen wr k ~ow ~cw;
  let header = wr.headers.(k) and pos = wr.start.(k) in
  let into = pos + (header * ow) in
  let fin = into + ((used - header) * cw) in
  if fin > Bytes.length wr.buf then begin
    let grown = Bytes.create (Int.max fin (2 * Bytes.length wr.buf)) in
    Bytes.blit wr.buf 0 grown 0 pos;
    wr.buf <- grown
  end;
  for h = 0 to header - 1 do
    set wr.buf ow (pos + (h * ow)) scratch.(h)
  done;
  for c = header to used - 1 do
    set wr.buf cw (into + ((c - header) * cw)) scratch.(c)
  done;
  wr.start.(k + 1) <- fin

(* The slot of [m] in the ascending neighbour row [row], or -1. *)
let find_slot row m =
  let lo = ref 0 and hi = ref (Array.length row) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if row.(mid) < m then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length row && row.(!lo) = m then !lo else -1

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
     previous table's rows are the rows a fresh build would produce.
     [keep] is symmetric, so a kept pair reuses both of its rows; pairs
     absent from the previous adjacency, or involving any recomputed net,
     are built from the geometry as usual. *)
  let prev_row =
    match reuse with
    | Some ({ table = Some ptb; _ }, keep) ->
        fun i m ->
          let k = if keep i m then find_slot ptb.neighbors.(i) m else -1 in
          if k >= 0 then Some (ptb.blocks.(i), k) else None
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
  (* One task per net: its block, both directions of a pair reading the
     pair's one crossing list. Each row is assembled into the task's int
     scratch, sized for its largest row, and written into the block at
     the widths the net's values so far need; a value too wide for them
     re-encodes the rows already written. The block is cut from the
     task's buffer in one copy. A net's rows sit together, in the order
     the selection engines walk them. *)
  let built =
    Executor.parallel_mapi exec
      (fun i ms ->
        let si = shapes.(i) in
        let ni = Array.length si.slot in
        let paths = Array.fold_left (fun acc ps -> acc + Array.length ps) 0 si.path_edges in
        let widest f = Array.fold_left (fun acc m -> Int.max acc (f shapes.(m))) 0 ms in
        let scratch = Array.make ((ni + paths) * widest (fun s -> Array.length s.slot)) 0 in
        let counts = Array.make (Array.length si.segs) 0 in
        let mark = Array.make (widest (fun s -> Array.length s.segs)) 0 in
        let hot = Array.make (Array.length si.first) false in
        let headers = Array.map (fun m -> ni * Array.length cands.(m)) ms in
        let wr =
          { buf = Bytes.create (Int.max 16 (2 * Array.fold_left ( + ) 0 headers));
            ow = 1;
            cw = 1;
            start = Array.make (Array.length ms + 1) 0;
            headers }
        in
        let tally = { entries = 0; top = 0; peak = 0 } and reused = ref 0 in
        Array.iteri
          (fun k m ->
            let used =
              match prev_row i m with
              | Some (blk, pk) ->
                  incr reused;
                  decode blk pk ~header:headers.(k) ~scratch ~tally
              | None ->
                  assemble crossings.(pair_of i k) ~x_first:(i < m) si shapes.(m) ~scratch
                    ~counts ~mark ~hot ~tally
            in
            put wr k scratch used tally)
          ms;
        let size = wr.start.(Array.length ms) in
        let bytes = if size = Bytes.length wr.buf then wr.buf else Bytes.sub wr.buf 0 size in
        ({ bytes; start = wr.start; ow = wr.ow; cw = wr.cw }, tally.entries, !reused))
      neighbors
  in
  { cands;
    table =
      Some
        { blocks = Array.map (fun (blk, _, _) -> blk) built;
          mirror;
          neighbors;
          pairs = 2 * pair_base.(n);
          entries = Array.fold_left (fun acc (_, e, _) -> acc + e) 0 built;
          reused = Array.fold_left (fun acc (_, _, r) -> acc + r) 0 built;
          build_seconds = Timer.now () -. t0 };
    counters = { hits = 0; misses = 0 } }

let direct cands = { cands; table = None; counters = { hits = 0; misses = 0 } }

let enabled t = t.table <> None

let mirror t ~i ~k =
  match t.table with
  | Some tb -> tb.mirror.(i).(k)
  | None -> invalid_arg "Xmatrix.mirror: direct matrix"

(* The readers. A table read finds an entry's header cell in its row and
   counts one hit; a direct matrix counts the entry's crossings from the
   geometry and one miss. The row reader makes such a read for every
   candidate of [i] in a single call, counting one hit or miss per
   header cell. Zero counts add nothing: every sum they feed starts at
   (or above) +0.0 and only grows, where adding +0.0 changes no bit. *)

let add_losses t b ~i ~k ~j ~m ~n acc off =
  let paths = t.cands.(i).(j).Candidate.paths in
  match t.table with
  | Some tb ->
      t.counters.hits <- t.counters.hits + 1;
      let blk = tb.blocks.(i) in
      let nm = Array.length t.cands.(m) and row = blk.start.(k) in
      let e = get blk.bytes blk.ow (row + (((j * nm) + n) * blk.ow)) in
      if e > 0 then begin
        let at = counts_at blk row (Array.length t.cands.(i) * nm) e in
        for p = 0 to Array.length paths - 1 do
          let c = get blk.bytes blk.cw (at + (p * blk.cw)) in
          if c > 0 then acc.(off + p) <- acc.(off + p) +. bundled_loss b c
        done
      end
  | None ->
      t.counters.misses <- t.counters.misses + 1;
      let other = t.cands.(m).(n).Candidate.opt_segments in
      for p = 0 to Array.length paths - 1 do
        let c = Segment.count_crossings paths.(p).Candidate.segments other in
        if c > 0 then acc.(off + p) <- acc.(off + p) +. bundled_loss b c
      done

(* Row [(m, i)] holds candidate (m, n)'s entries against every candidate
   of [i] in one run of header cells, [n * ni] to [n * ni + ni - 1]. *)
let add_weighted_row t b ~i ~k ~m ~n w acc =
  let ci = t.cands.(i) in
  let ni = Array.length ci and paths = t.cands.(m).(n).Candidate.paths in
  match t.table with
  | Some tb ->
      t.counters.hits <- t.counters.hits + ni;
      let blk = tb.blocks.(m) in
      let ow = blk.ow and cw = blk.cw and row = blk.start.(tb.mirror.(i).(k)) in
      let h = row + (n * ni * ow) and header = Array.length t.cands.(m) * ni in
      for j = 0 to ni - 1 do
        let e = get blk.bytes ow (h + (j * ow)) in
        if e > 0 then begin
          let at = counts_at blk row header e in
          for q = 0 to Array.length paths - 1 do
            let c = get blk.bytes cw (at + (q * cw)) in
            if c > 0 then acc.(j) <- acc.(j) +. (w.(q) *. bundled_loss b c)
          done
        end
      done
  | None ->
      t.counters.misses <- t.counters.misses + ni;
      for j = 0 to ni - 1 do
        let other = ci.(j).Candidate.opt_segments in
        for q = 0 to Array.length paths - 1 do
          let c = Segment.count_crossings paths.(q).Candidate.segments other in
          if c > 0 then acc.(j) <- acc.(j) +. (w.(q) *. bundled_loss b c)
        done
      done

let slot_counts t ~i ~k ~j ~m ~n =
  let np = Array.length t.cands.(i).(j).Candidate.paths in
  match t.table with
  | Some tb ->
      t.counters.hits <- t.counters.hits + 1;
      let blk = tb.blocks.(i) in
      let nm = Array.length t.cands.(m) and row = blk.start.(k) in
      let e = get blk.bytes blk.ow (row + (((j * nm) + n) * blk.ow)) in
      let counts = Array.make np 0 in
      if e > 0 then begin
        let at = counts_at blk row (Array.length t.cands.(i) * nm) e in
        for p = 0 to np - 1 do
          counts.(p) <- get blk.bytes blk.cw (at + (p * blk.cw))
        done
      end;
      counts
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
