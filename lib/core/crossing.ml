open Operon_geom
open Operon_graph
open Operon_util

type entry = {
  net : int;
  seg : Segment.t;
  ci : int;
  cj : int;  (* first cell (column, row) of the segment's bbox range *)
}

type index = {
  die : Rect.t;
  cells : int;
  entries : entry array;  (* every indexed segment, in input order *)
  buckets : entry array array;
      (* cells x cells, row-major. Empty in a flat index, which answers
         queries by linear scan over [entries]: a bucket visit is a few
         integer checks per entry, but a long diagonal query still walks
         every bucket of its bbox rectangle, and for a small index that
         walk costs more than testing every entry once. *)
}

let flat_threshold = 256

let cell_range idx (r : Rect.t) =
  let die = idx.die in
  let w = Rect.width die and h = Rect.height die in
  let clamp v = Stdlib.max 0 (Stdlib.min (idx.cells - 1) v) in
  let fx x = if w <= 0.0 then 0 else clamp (int_of_float ((x -. die.Rect.xmin) /. w *. float_of_int idx.cells)) in
  let fy y = if h <= 0.0 then 0 else clamp (int_of_float ((y -. die.Rect.ymin) /. h *. float_of_int idx.cells)) in
  (fx r.Rect.xmin, fy r.Rect.ymin, fx r.Rect.xmax, fy r.Rect.ymax)

let build_index ~die ?(cells = 32) segments =
  let idx = { die; cells; entries = [||]; buckets = [||] } in
  let entries =
    Array.map
      (fun (net, seg) ->
        let ci, cj, _, _ = cell_range idx (Segment.bbox seg) in
        { net; seg; ci; cj })
      segments
  in
  if Array.length entries <= flat_threshold then { idx with entries }
  else begin
    (* Size every bucket first, then fill it: no intermediate lists. *)
    let fill = Array.make (cells * cells) 0 in
    let each_bucket f =
      Array.iter
        (fun e ->
          let _, _, i1, j1 = cell_range idx (Segment.bbox e.seg) in
          for j = e.cj to j1 do
            for i = e.ci to i1 do
              f e ((j * cells) + i)
            done
          done)
        entries
    in
    each_bucket (fun _ b -> fill.(b) <- fill.(b) + 1);
    let buckets = Array.map (fun k -> Array.make k entries.(0)) fill in
    Array.fill fill 0 (Array.length fill) 0;
    each_bucket (fun e b ->
        buckets.(b).(fill.(b)) <- e;
        fill.(b) <- fill.(b) + 1);
    { idx with entries; buckets }
  end

let flatten idx = { idx with buckets = [||] }

(* The counted event: a proper crossing with an intersection point. *)
let counts e ~exclude_net query =
  e.net <> exclude_net
  && Segment.crosses_properly e.seg query
  && Segment.has_intersection_point e.seg query

let count_crossings idx ~exclude_net query =
  let count = ref 0 in
  if Array.length idx.buckets = 0 then
    for k = 0 to Array.length idx.entries - 1 do
      if counts idx.entries.(k) ~exclude_net query then incr count
    done
  else begin
    let i0, j0, i1, j1 = cell_range idx (Segment.bbox query) in
    (* An entry and the query share every bucket in the overlap of their
       bbox ranges. Only the first of those, (max ci i0, max cj j0), tests
       the pair, so each pair is tested exactly once, as in the scan. *)
    for j = j0 to j1 do
      for i = i0 to i1 do
        let bucket = idx.buckets.((j * idx.cells) + i) in
        for k = 0 to Array.length bucket - 1 do
          let e = bucket.(k) in
          if Int.max e.ci i0 = i && Int.max e.cj j0 = j && counts e ~exclude_net query
          then incr count
        done
      done
    done
  end;
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
