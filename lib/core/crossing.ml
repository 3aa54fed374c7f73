open Operon_geom
open Operon_graph
open Operon_util

(* Entries live in flat arrays, entry [e] being the [e]-th input pair:
   its net, its segment, its bbox ([Segment.boxes] layout) and the first
   cell (column, row) of its bbox cell range. The buckets are one packed
   array: bucket [b] (row-major over cells x cells) holds the entry
   numbers [members.(start.(b))] to [members.(start.(b + 1) - 1)], in
   ascending order. [sat] is the summed-area table of the bucket sizes,
   (cells + 1) x (cells + 1), so the number of entries a walk over any
   cell rectangle visits is known in O(1) before walking it. *)
type index = {
  die : Rect.t;
  cells : int;
  nets : int array;
  segs : Segment.t array;
  boxes : float array;
  ci : int array;
  cj : int array;
  start : int array;
  members : int array;
  sat : int array;
}

let cell_range ~die ~cells xmin ymin xmax ymax =
  let w = Rect.width die and h = Rect.height die in
  let clamp v = Stdlib.max 0 (Stdlib.min (cells - 1) v) in
  let fx x = if w <= 0.0 then 0 else clamp (int_of_float ((x -. die.Rect.xmin) /. w *. float_of_int cells)) in
  let fy y = if h <= 0.0 then 0 else clamp (int_of_float ((y -. die.Rect.ymin) /. h *. float_of_int cells)) in
  (fx xmin, fy ymin, fx xmax, fy ymax)

let build_index ~die ?(cells = 32) segments =
  let n = Array.length segments in
  let nets = Array.map fst segments and segs = Array.map snd segments in
  let boxes = Segment.boxes segs in
  let range e =
    cell_range ~die ~cells boxes.(4 * e) boxes.((4 * e) + 1) boxes.((4 * e) + 2)
      boxes.((4 * e) + 3)
  in
  let ci = Array.make n 0 and cj = Array.make n 0 in
  (* Size every bucket first, then fill it: no intermediate lists. *)
  let fill = Array.make ((cells * cells) + 1) 0 in
  let each_bucket f =
    for e = 0 to n - 1 do
      let i0, j0, i1, j1 = range e in
      ci.(e) <- i0;
      cj.(e) <- j0;
      for j = j0 to j1 do
        for i = i0 to i1 do
          f e ((j * cells) + i)
        done
      done
    done
  in
  each_bucket (fun _ b -> fill.(b + 1) <- fill.(b + 1) + 1);
  let sat = Array.make ((cells + 1) * (cells + 1)) 0 in
  let w = cells + 1 in
  for j = 0 to cells - 1 do
    for i = 0 to cells - 1 do
      sat.(((j + 1) * w) + i + 1) <-
        fill.((j * cells) + i + 1)
        + sat.((j * w) + i + 1)
        + sat.(((j + 1) * w) + i)
        - sat.((j * w) + i)
    done
  done;
  for b = 1 to cells * cells do
    fill.(b) <- fill.(b) + fill.(b - 1)
  done;
  let start = Array.copy fill in
  let members = Array.make start.(cells * cells) 0 in
  each_bucket (fun e b ->
      members.(fill.(b)) <- e;
      fill.(b) <- fill.(b) + 1);
  { die; cells; nets; segs; boxes; ci; cj; start; members; sat }

(* The query's cell range, and whether walking its buckets visits fewer
   entries than one pass over all of them. An entry spanning several
   cells of the range is visited once per cell, which the summed-area
   table counts too. A long query over a dense index covers so much of
   the grid that the pass wins; a short one touches a handful of
   buckets. [qbox] is the query's bbox in [Segment.boxes] layout. *)
let plan idx qbox =
  let ((i0, j0, i1, j1) as range) =
    cell_range ~die:idx.die ~cells:idx.cells qbox.(0) qbox.(1) qbox.(2) qbox.(3)
  in
  let w = idx.cells + 1 and s = idx.sat in
  let visits =
    s.(((j1 + 1) * w) + i1 + 1) - s.((j0 * w) + i1 + 1) - s.(((j1 + 1) * w) + i0)
    + s.((j0 * w) + i0)
  in
  (range, visits < Array.length idx.segs)

let walks idx query = snd (plan idx (Segment.boxes [| query |]))

(* The counted event: a proper crossing with an intersection point,
   between the query (bbox [qbox]) and entry [e] of another net. *)
let counts idx e ~exclude_net qbox query =
  Segment.boxes_overlap idx.boxes e qbox 0
  && idx.nets.(e) <> exclude_net
  && Segment.crosses_properly idx.segs.(e) query
  && Segment.has_intersection_point idx.segs.(e) query

let count_crossings idx ~exclude_net query =
  let qbox = Segment.boxes [| query |] in
  let count = ref 0 in
  match plan idx qbox with
  | (i0, j0, i1, j1), true ->
      (* An entry and the query share every bucket in the overlap of their
         bbox ranges. Only the first of those, (max ci i0, max cj j0),
         tests the pair, so each pair is tested exactly once, as in the
         pass. *)
      for j = j0 to j1 do
        for i = i0 to i1 do
          let b = (j * idx.cells) + i in
          for x = idx.start.(b) to idx.start.(b + 1) - 1 do
            let e = idx.members.(x) in
            if
              Int.max idx.ci.(e) i0 = i
              && Int.max idx.cj.(e) j0 = j
              && counts idx e ~exclude_net qbox query
            then incr count
          done
        done
      done;
      !count
  | _, false ->
      for e = 0 to Array.length idx.segs - 1 do
        if counts idx e ~exclude_net qbox query then incr count
      done;
      !count

let estimator idx ~net seg = count_crossings idx ~exclude_net:net seg

let interaction_components bboxes =
  let n = Array.length bboxes in
  let dsu = Dsu.create n in
  (* Union via the spatial index instead of the O(n²) sweep. Duplicate
     groups are cliques, so chaining their members and adding one edge
     per overlapping distinct-rect pair yields exactly the connectivity
     of the all-pairs sweep. *)
  let idx = Overlap.build bboxes in
  Overlap.iter_groups idx (fun g ->
      for k = 1 to Array.length g - 1 do
        ignore (Dsu.union dsu g.(0) g.(k))
      done);
  Overlap.iter_group_pairs idx (fun ga gb -> ignore (Dsu.union dsu ga.(0) gb.(0)));
  let groups = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    let r = Dsu.find dsu i in
    let existing = try Hashtbl.find groups r with Not_found -> [] in
    Hashtbl.replace groups r (i :: existing)
  done;
  Hashtbl.fold (fun _ members acc -> Array.of_list members :: acc) groups []
  |> List.sort (fun a b -> compare a.(0) b.(0))
  |> Array.of_list

let interacting_pairs bboxes =
  let n = Array.length bboxes in
  if n = 0 then []
  else begin
    (* Enumerate via the spatial index into a preallocated growable
       buffer of (i * n + j) encodings, then sort — the index reports
       pairs in grid order, and the historical contract is ascending
       lexicographic. *)
    let idx = Overlap.build bboxes in
    let buf = Growbuf.create ~capacity:(4 * n) () in
    Overlap.iter_pairs idx (fun i j -> Growbuf.push buf ((i * n) + j));
    Growbuf.sort buf;
    List.init (Growbuf.length buf) (fun k ->
        let v = Growbuf.get buf k in
        (v / n, v mod n))
  end
