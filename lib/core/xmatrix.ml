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
   [start.(deg)] is the block's length. A row holds one mask per optical
   path of i, candidate by candidate (path [p] of candidate [j] is mask
   [base.(j) + p]), then one mask per candidate of m, all of one width.
   The masks are over the pair's crossing list: bit [c] of a path's mask
   is set when the path runs over crossing [c]'s i-edge, bit [c] of a
   candidate's mask when the candidate labels crossing [c]'s m-edge
   optical. The row's width follows from its length (see [width]). *)
type block = { bytes : Bytes.t; start : int array; base : int array }

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
   counts that make up nearly every entry; larger counts call through.
   The table holds every count of a single-word mask (at most 32), which
   the readers look up directly. *)
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
   takes part in. Candidates labelling the same topology value share its
   edges, so the crossing predicate is evaluated once per (edge, edge) of
   two topologies rather than once per (segment, segment) of every
   candidate pair; equal but physically distinct topologies get separate
   edges and simply share nothing. Only live edges (optical in some
   candidate of their topology) take part, numbered from 0 across the
   net, slot by slot. *)
type edges = {
  segs : Segment.t array;  (* live edge -> its segment *)
  boxes : float array;  (* [Segment.boxes] of [segs] *)
  hull : float array;  (* the box around every live edge, in the same layout *)
}

let is_optical (c : Candidate.t) v =
  Topology.parent c.Candidate.topo v >= 0 && c.Candidate.labels.(v) = Candidate.Optical

(* The topology slot of every candidate, the slots' topologies, and per
   slot the number of each node's edge among the live edges (-1 when no
   candidate of the slot labels it optical). The inverse indexes compute
   these integers again rather than every net keeping them, which would
   raise the peak heap of a design-wide context. *)
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
  let count = ref 0 in
  Array.iter
    (fun row ->
      Array.iteri
        (fun v used ->
          if used >= 0 then begin
            row.(v) <- !count;
            incr count
          end)
        row)
    live;
  (slot, topos, live)

let edges cands =
  let _, topos, live = live_edges cands in
  let segs = ref [] in
  Array.iteri
    (fun k topo ->
      Array.iteri
        (fun v e -> if e >= 0 then segs := Topology.segment_of_edge topo v :: !segs)
        live.(k))
    topos;
  let segs = Array.of_list (List.rev !segs) in
  let boxes = Segment.boxes segs in
  let hull = [| infinity; infinity; neg_infinity; neg_infinity |] in
  for u = 0 to Array.length segs - 1 do
    hull.(0) <- Float.min hull.(0) boxes.(4 * u);
    hull.(1) <- Float.min hull.(1) boxes.((4 * u) + 1);
    hull.(2) <- Float.max hull.(2) boxes.((4 * u) + 2);
    hull.(3) <- Float.max hull.(3) boxes.((4 * u) + 3)
  done;
  { segs; boxes; hull }

let bbox e =
  if Array.length e.segs = 0 then None
  else Some (Rect.make ~xmin:e.hull.(0) ~ymin:e.hull.(1) ~xmax:e.hull.(2) ~ymax:e.hull.(3))

(* Which masks a crossing of a live edge sets, and which candidate pairs
   of a row it makes entries: the optical paths that run over the edge,
   numbered candidate by candidate from [base.(j)], each path's
   candidate, and the candidates that label the edge optical, as a list
   and as a bitmask of [cwords] words (candidate [n] is bit [n mod 63]
   of word [n / 63]). *)
type shape = {
  base : int array;  (* candidate -> its first path; the path count at the end *)
  path_cand : int array;  (* path -> its candidate *)
  edge_paths : int array array;  (* live edge -> the paths over it *)
  edge_cands : int array array;  (* live edge -> the candidates labelling it optical *)
  cwords : int;
  opt_mask : int array;  (* words [u * cwords ..]: [edge_cands.(u)] as a bitmask *)
}

let shape_of (cands : Candidate.t array) e =
  let slot, _, live = live_edges cands and live_count = Array.length e.segs in
  let base = Array.make (Array.length cands + 1) 0 in
  Array.iteri
    (fun j (c : Candidate.t) -> base.(j + 1) <- base.(j) + Array.length c.Candidate.paths)
    cands;
  let path_cand = Array.make base.(Array.length cands) 0 in
  Array.iteri (fun j _ -> Array.fill path_cand base.(j) (base.(j + 1) - base.(j)) j) cands;
  let cwords = (Array.length cands + 62) / 63 in
  let opt_mask = Array.make (live_count * cwords) 0 in
  let edge_paths = Array.make live_count [] and edge_cands = Array.make live_count [] in
  Array.iteri
    (fun j (c : Candidate.t) ->
      let index = live.(slot.(j)) in
      Array.iteri
        (fun v u ->
          if is_optical c v then begin
            edge_cands.(u) <- j :: edge_cands.(u);
            let s = (u * cwords) + (j / 63) in
            opt_mask.(s) <- opt_mask.(s) lor (1 lsl (j mod 63))
          end)
        index;
      Array.iteri
        (fun p (path : Candidate.path) ->
          let rec up v =
            if v <> path.Candidate.start_node then begin
              edge_paths.(index.(v)) <- (base.(j) + p) :: edge_paths.(index.(v));
              up (Topology.parent c.Candidate.topo v)
            end
          in
          up path.Candidate.sink_node)
        c.Candidate.paths)
    cands;
  { base;
    path_cand;
    edge_paths = Array.map Array.of_list edge_paths;
    edge_cands = Array.map Array.of_list edge_cands;
    cwords;
    opt_mask }

(* The crossing edge pairs of two nets: every pair (u, v) of a live edge
   of [a] and a live edge of [b] that cross properly, in (u, v) order. An
   edge can only cross the other net where it meets that net's hull (the
   test is closed, as [Segment.boxes_overlap] is), so only such edges are
   tested, each pair once and only when their boxes meet. With [~first]
   the listing stops at the first crossing. A pair is stored as one int,
   [u] above bit [edge_bits] and [v] below it. A lister keeps its scratch
   between calls, so it belongs to one domain. *)
let edge_bits = 31

let lister () =
  let near = ref [||] and found = ref (Array.make 8 0) in
  fun ~first a b ->
    let nb = Array.length b.segs in
    if Array.length !near < nb then near := Array.make nb 0;
    let near = !near and count = ref 0 in
    for v = 0 to nb - 1 do
      if Segment.boxes_overlap b.boxes v a.hull 0 then begin
        near.(!count) <- v;
        incr count
      end
    done;
    let len = ref 0 in
    (try
       for u = 0 to Array.length a.segs - 1 do
         if Segment.boxes_overlap a.boxes u b.hull 0 then
           for x = 0 to !count - 1 do
             let v = near.(x) in
             if
               Segment.boxes_overlap a.boxes u b.boxes v
               && Segment.crosses_properly a.segs.(u) b.segs.(v)
             then begin
               if !len = Array.length !found then found := Array.append !found !found;
               !found.(!len) <- (u lsl edge_bits) lor v;
               incr len;
               if first then raise Exit
             end
           done
       done
     with Exit -> ());
    Array.sub !found 0 !len

(* Masks. A mask over [k] crossings is one word of 1, 2 or 4 bytes up to
   32 crossings and otherwise one 8-byte word per 63 crossings, with bit
   [c] in word [c / 63] at bit [c mod 63], so that every word is an
   OCaml int. Words are native-endian: a block is only ever read by the
   process that wrote it. *)
let mask_bytes k =
  if k <= 8 then 1 else if k <= 16 then 2 else if k <= 32 then 4 else 8 * ((k + 62) / 63)

(* The words of a mask of [w] bytes, each of [Int.min w 8] bytes. *)
let[@inline] words w = (w + 7) / 8

(* The mask width of a row of [len] bytes holding [masks] masks; a row
   of 1, 2 or 4-byte masks needs no division. *)
let[@inline] width ~len ~masks =
  if len = masks then 1
  else if len = 2 * masks then 2
  else if len = 4 * masks then 4
  else len / masks

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* The mask word of [w] bytes (1, 2, 4 or 8) at byte [pos] of [b]. *)
let[@inline] word b w pos =
  if w = 1 then Bytes.get_uint8 b pos
  else if w = 2 then Bytes.get_uint16_ne b pos
  else if w = 4 then Int32.to_int (get32 b pos) land 0xffff_ffff
  else Int64.to_int (get64 b pos)

let set_word b w pos v =
  if w = 1 then Bytes.set_uint8 b pos v
  else if w = 2 then Bytes.set_uint16_ne b pos v
  else if w = 4 then set32 b pos (Int32.of_int v)
  else set64 b pos (Int64.of_int v)

(* The set bits of a mask word: looked up for a word below 256, the
   common case, else counted in parallel over all 63 bits (SWAR; [odd]
   has every even-numbered bit set, bit 62 included). *)
let byte_bits =
  String.init 256 (fun x ->
      Char.chr (List.fold_left (fun n b -> n + ((x lsr b) land 1)) 0 [ 0; 1; 2; 3; 4; 5; 6; 7 ]))

let odd = 0x1555_5555_5555_5555 lor (1 lsl 62)

let[@inline] popcount x =
  if x land -256 = 0 then Char.code byte_bits.[x]
  else begin
    let x = x - ((x lsr 1) land odd) in
    let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
    let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
    (x * 0x0101_0101_0101_0101) lsr 56
  end

(* The crossings two masks of [w] bytes, at bytes [a] and [c] of [b],
   have in common. *)
let common b w a c =
  let ww = Int.min w 8 and n = ref 0 in
  for x = 0 to words w - 1 do
    n := !n + popcount (word b ww (a + (8 * x)) land word b ww (c + (8 * x)))
  done;
  !n

(* Row [(i, m)] of [cross], the pair's crossing list, into [b] at byte
   [row] with masks of [w] bytes; returns the row's entries. [x_first]
   says whether [si] is the first net of the pair [cross] was listed
   for; the row of the second net reads the same list transposed, which
   is exact because [Segment.crosses_properly] is symmetric. Each
   crossing sets its bit in the masks the two inverse indexes name, and
   ORs the candidates of [m] labelling its m-edge optical into the set of
   the candidate of every path over its i-edge: an entry is a candidate
   in such a set. The masks are gathered in [scratch], one int
   per mask word, and the sets in [acc], [sm.cwords] ints per candidate
   of [i]; both are left zeroed. *)
let fill b ~row ~w cross ~x_first si sm ~scratch ~acc =
  let words = words w and ww = Int.min w 8 and cw = sm.cwords in
  let low = (1 lsl edge_bits) - 1 and paths = si.base.(Array.length si.base - 1) in
  for c = 0 to Array.length cross - 1 do
    let u = if x_first then cross.(c) lsr edge_bits else cross.(c) land low in
    let v = if x_first then cross.(c) land low else cross.(c) lsr edge_bits in
    let at = c / 63 and bit = 1 lsl (c mod 63) in
    let ps = si.edge_paths.(u) and ns = sm.edge_cands.(v) in
    for x = 0 to Array.length ps - 1 do
      let s = (ps.(x) * words) + at in
      scratch.(s) <- scratch.(s) lor bit;
      for y = 0 to cw - 1 do
        let s = (si.path_cand.(ps.(x)) * cw) + y in
        acc.(s) <- acc.(s) lor sm.opt_mask.((v * cw) + y)
      done
    done;
    for x = 0 to Array.length ns - 1 do
      let s = ((paths + ns.(x)) * words) + at in
      scratch.(s) <- scratch.(s) lor bit
    done
  done;
  for mask = 0 to paths + Array.length sm.base - 2 do
    for x = 0 to words - 1 do
      let s = (mask * words) + x in
      if scratch.(s) <> 0 then begin
        set_word b ww (row + (mask * w) + (8 * x)) scratch.(s);
        scratch.(s) <- 0
      end
    done
  done;
  let entries = ref 0 in
  for s = 0 to ((Array.length si.base - 1) * cw) - 1 do
    entries := !entries + popcount acc.(s);
    acc.(s) <- 0
  done;
  !entries

(* The entries of the row at byte [row] of [b], masks of [w] bytes: the
   candidate pairs (j, n) where some path mask of (i, j) meets n's
   mask. *)
let row_entries b ~row ~w ~base ~nm =
  let ni = Array.length base - 1 in
  let cands = row + (base.(ni) * w) and entries = ref 0 in
  for j = 0 to ni - 1 do
    for n = 0 to nm - 1 do
      let p = ref base.(j) in
      while !p < base.(j + 1) && common b w (row + (!p * w)) (cands + (n * w)) = 0 do
        incr p
      done;
      if !p < base.(j + 1) then incr entries
    done
  done;
  !entries

(* The slot of [m] in the ascending neighbour row [row], or -1. *)
let find_slot row m =
  let lo = ref 0 and hi = ref (Array.length row) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if row.(mid) < m then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length row && row.(!lo) = m then !lo else -1

let build ?(exec = Executor.sequential) ?reuse ?lists cands neighbors =
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
  (* Each undirected pair (i, m), i < m, has one crossing list:
     [upper.(i).(k - lower.(i))] for the slot [k] of [m] in [i]'s row,
     whose partners above [i] fill it from slot [lower.(i)] on. Handed
     over by [lists], or listed here, one task per net; a carried-over
     pair needs none. *)
  let lower =
    Array.mapi (fun i ms -> Array.fold_left (fun c m -> if m < i then c + 1 else c) 0 ms) neighbors
  in
  let edges, upper =
    match lists with
    | Some lists -> lists
    | None ->
        let edges = Array.map edges cands in
        ( edges,
          Executor.parallel_mapi exec
            (fun i ms ->
              let cross = lister () in
              Array.map
                (fun m ->
                  if Option.is_some (prev_row i m) then [||]
                  else cross ~first:false edges.(i) edges.(m))
                (Array.sub ms lower.(i) (Array.length ms - lower.(i))))
            neighbors )
  in
  let crossings i k =
    let m = neighbors.(i).(k) in
    if m > i then upper.(i).(k - lower.(i)) else upper.(m).(mirror.(i).(k) - lower.(m))
  in
  let shapes = Array.map2 shape_of cands edges in
  (* One task per net: its block, both directions of a pair reading the
     pair's one crossing list. A row's size follows from its crossing
     count and the two nets' path and candidate counts, so the block is
     allocated once at its final size; a kept row is a byte copy of the
     previous table's, whose entries are counted from its masks. A net's
     rows sit together, in the order the selection engines walk them. *)
  let built =
    Executor.parallel_mapi exec
      (fun i ms ->
        let si = shapes.(i) in
        let paths = si.base.(Array.length si.base - 1) and ni = Array.length cands.(i) in
        let kept = Array.map (prev_row i) ms in
        let start = Array.make (Array.length ms + 1) 0 in
        let cells = ref 0 and sets = ref 0 in
        Array.iteri
          (fun k m ->
            let masks = paths + Array.length cands.(m) in
            let len =
              match kept.(k) with
              | Some (blk, pk) -> blk.start.(pk + 1) - blk.start.(pk)
              | None -> masks * mask_bytes (Array.length (crossings i k))
            in
            cells := Int.max !cells (masks * words (width ~len ~masks));
            sets := Int.max !sets (ni * shapes.(m).cwords);
            start.(k + 1) <- start.(k) + len)
          ms;
        let bytes = Bytes.make start.(Array.length ms) '\000' in
        let scratch = Array.make !cells 0 and acc = Array.make !sets 0 in
        let entries = ref 0 and reused = ref 0 in
        Array.iteri
          (fun k m ->
            let row = start.(k) and nm = Array.length cands.(m) in
            let w = width ~len:(start.(k + 1) - row) ~masks:(paths + nm) in
            entries :=
              !entries
              +
              match kept.(k) with
              | Some (blk, pk) ->
                  incr reused;
                  Bytes.blit blk.bytes blk.start.(pk) bytes row (start.(k + 1) - row);
                  row_entries bytes ~row ~w ~base:si.base ~nm
              | None ->
                  fill bytes ~row ~w (crossings i k) ~x_first:(i < m) si shapes.(m) ~scratch
                    ~acc)
          ms;
        ({ bytes; start; base = si.base }, !entries, !reused))
      neighbors
  in
  { cands;
    table =
      Some
        { blocks = Array.map (fun (blk, _, _) -> blk) built;
          mirror;
          neighbors;
          pairs = Array.fold_left (fun acc ms -> acc + Array.length ms) 0 neighbors;
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

(* The readers. A table read of entry (j, n) in row (i, m) counts one
   hit: the count of path [p] of (i, j) against (m, n) is the popcount
   of the AND of their two masks. A direct matrix counts the entry's
   crossings from the geometry and one miss. The row reader makes such a
   read for every candidate of [i] in a single call, counting one hit or
   miss per candidate. Zero counts add nothing: every sum they feed
   starts at (or above) +0.0 and only grows, where adding +0.0 changes
   no bit. *)

let add_losses t b ~i ~k ~j ~m ~n acc off =
  match t.table with
  | Some tb ->
      t.counters.hits <- t.counters.hits + 1;
      let blk = tb.blocks.(i) in
      let bytes = blk.bytes and base = blk.base and row = blk.start.(k) in
      let paths = base.(Array.length base - 1) in
      let w = width ~len:(blk.start.(k + 1) - row) ~masks:(paths + Array.length t.cands.(m)) in
      let at = row + (base.(j) * w) and c = row + ((paths + n) * w) in
      if w <= 4 then begin
        let cm = word bytes w c in
        if cm <> 0 then
          for p = 0 to base.(j + 1) - base.(j) - 1 do
            let x = word bytes w (at + (p * w)) land cm in
            if x <> 0 then acc.(off + p) <- acc.(off + p) +. b.small.(popcount x)
          done
      end
      else
        for p = 0 to base.(j + 1) - base.(j) - 1 do
          let x = common bytes w (at + (p * w)) c in
          if x > 0 then acc.(off + p) <- acc.(off + p) +. bundled_loss b x
        done
  | None ->
      t.counters.misses <- t.counters.misses + 1;
      let paths = t.cands.(i).(j).Candidate.paths in
      let other = t.cands.(m).(n).Candidate.opt_segments in
      for p = 0 to Array.length paths - 1 do
        let c = Segment.count_crossings paths.(p).Candidate.segments other in
        if c > 0 then acc.(off + p) <- acc.(off + p) +. bundled_loss b c
      done

(* Row [(m, i)] holds the masks of (m, n)'s paths and, side by side, of
   every candidate of [i]. Paths are the outer loop; each [acc.(j)]
   still receives its terms in path order. *)
let add_weighted_row t b ~i ~k ~m ~n w acc =
  let ci = t.cands.(i) in
  let ni = Array.length ci in
  match t.table with
  | Some tb ->
      t.counters.hits <- t.counters.hits + ni;
      let blk = tb.blocks.(m) in
      let km = tb.mirror.(i).(k) in
      let bytes = blk.bytes and base = blk.base and row = blk.start.(km) in
      let paths = base.(Array.length base - 1) in
      let wd = width ~len:(blk.start.(km + 1) - row) ~masks:(paths + ni) in
      let at = row + (base.(n) * wd) and cs = row + (paths * wd) in
      if wd <= 4 then
        for q = 0 to base.(n + 1) - base.(n) - 1 do
          let pm = word bytes wd (at + (q * wd)) in
          if pm <> 0 then begin
            let wq = w.(q) in
            for j = 0 to ni - 1 do
              let x = pm land word bytes wd (cs + (j * wd)) in
              if x <> 0 then acc.(j) <- acc.(j) +. (wq *. b.small.(popcount x))
            done
          end
        done
      else
        for q = 0 to base.(n + 1) - base.(n) - 1 do
          let wq = w.(q) in
          for j = 0 to ni - 1 do
            let x = common bytes wd (at + (q * wd)) (cs + (j * wd)) in
            if x > 0 then acc.(j) <- acc.(j) +. (wq *. bundled_loss b x)
          done
        done
  | None ->
      t.counters.misses <- t.counters.misses + ni;
      let paths = t.cands.(m).(n).Candidate.paths in
      for j = 0 to ni - 1 do
        let other = ci.(j).Candidate.opt_segments in
        for q = 0 to Array.length paths - 1 do
          let c = Segment.count_crossings paths.(q).Candidate.segments other in
          if c > 0 then acc.(j) <- acc.(j) +. (w.(q) *. bundled_loss b c)
        done
      done

let slot_counts t ~i ~k ~j ~m ~n =
  match t.table with
  | Some tb ->
      t.counters.hits <- t.counters.hits + 1;
      let blk = tb.blocks.(i) in
      let base = blk.base and row = blk.start.(k) in
      let paths = base.(Array.length base - 1) in
      let w = width ~len:(blk.start.(k + 1) - row) ~masks:(paths + Array.length t.cands.(m)) in
      Array.init
        (base.(j + 1) - base.(j))
        (fun p -> common blk.bytes w (row + ((base.(j) + p) * w)) (row + ((paths + n) * w)))
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
