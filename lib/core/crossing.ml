open Operon_geom
open Operon_graph

(* Entries live in flat arrays, entry [e] being the [e]-th input pair:
   its net, its segment and its bbox ([Segment.boxes] layout). The
   buckets are one packed array over the cells, row-major: bucket [b]
   lists every entry whose bbox cell range contains cell [b], in four
   groups, each ascending — entries whose range starts in the cell's
   column but not its row, in both, in its row but not its column, and
   in neither. Group [g] of bucket [b] is [members.(start.((4 * b) + g))]
   to [members.(start.((4 * b) + g + 1) - 1)]. *)
type index = {
  die : Rect.t;
  cells : int;
  nets : int array;
  segs : Segment.t array;
  boxes : float array;
  start : int array;
  members : int array;
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
  (* Size every group first, then fill it: no intermediate lists. *)
  let fill = Array.make ((4 * cells * cells) + 1) 0 in
  let each_slot f =
    for e = 0 to n - 1 do
      let i0, j0, i1, j1 =
        cell_range ~die ~cells boxes.(4 * e) boxes.((4 * e) + 1)
          boxes.((4 * e) + 2) boxes.((4 * e) + 3)
      in
      for j = j0 to j1 do
        for i = i0 to i1 do
          let g =
            if i = i0 then if j = j0 then 1 else 0 else if j = j0 then 2 else 3
          in
          f e ((4 * ((j * cells) + i)) + g)
        done
      done
    done
  in
  each_slot (fun _ s -> fill.(s + 1) <- fill.(s + 1) + 1);
  for s = 1 to 4 * cells * cells do
    fill.(s) <- fill.(s) + fill.(s - 1)
  done;
  let start = Array.copy fill in
  let members = Array.make start.(4 * cells * cells) 0 in
  each_slot (fun e s ->
      members.(fill.(s)) <- e;
      fill.(s) <- fill.(s) + 1);
  { die; cells; nets; segs; boxes; start; members }

(* The counted event: a proper crossing with an intersection point,
   between the query (bbox [qbox]) and entry [e] of another net. *)
let counts idx e ~exclude_net qbox query =
  Segment.boxes_overlap idx.boxes e qbox 0
  && idx.nets.(e) <> exclude_net
  && Segment.crosses_properly idx.segs.(e) query
  && Segment.has_intersection_point idx.segs.(e) query

(* An entry and the query share every cell in the overlap of their cell
   ranges, and the query reads the entry only in the first of them: the
   column is the later of the two ranges' first columns, the row the
   later of their first rows. Past the query's first column a cell reads
   only the entries whose range starts in that column, past its first
   row only those starting in that row, so the groups a cell reads are
   contiguous: all four in the query's first cell, the first two along
   its first row, the middle two along its first column, and the second
   alone elsewhere. Each pair is tested once, and each entry read at most
   once per query. *)
let count_crossings idx ~exclude_net query =
  let qbox = Segment.boxes [| query |] in
  let i0, j0, i1, j1 =
    cell_range ~die:idx.die ~cells:idx.cells qbox.(0) qbox.(1) qbox.(2) qbox.(3)
  in
  let count = ref 0 in
  for j = j0 to j1 do
    for i = i0 to i1 do
      let s = 4 * ((j * idx.cells) + i) in
      let lo = if j = j0 then s else s + 1
      and hi = if i > i0 then s + 2 else if j = j0 then s + 4 else s + 3 in
      for x = idx.start.(lo) to idx.start.(hi) - 1 do
        if counts idx idx.members.(x) ~exclude_net qbox query then incr count
      done
    done
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
