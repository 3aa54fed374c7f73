(* Spatial overlap index over a set of axis-aligned rectangles.

   - Exact-duplicate collapsing. The rects are sorted by their
     coordinates, so equal rects end up side by side and form one group;
     the index keeps one entry per distinct rect. The ILP engine hands
     [Crossing.interaction_components] thousands of identical placeholder
     points for electrical-only nets; without collapsing, those would
     re-create the O(n^2) sweep this index exists to kill. Duplicate
     groups are cliques (equal rects always overlap), so connectivity and
     pair enumeration recover the full answer from group-level results.

   - Pairs by sort and sweep. The distinct rects are in ascending xmin,
     so the partners of a rect that start at or after it in that order
     are exactly the following rects up to the first one whose xmin
     passes its xmax; of those, the ones that also meet it in y overlap.
     Each pair is met once, from the one earlier in the order.

   - Queries by hash grid. [query] and [overlaps_any] probe a grid keyed
     by integer cell coordinates, built on the first query, so a caller
     that only enumerates pairs builds no hash table. Cells are sized
     from the mean distinct-rect dimensions, not the global bounds: a
     single far outlier (the -1e9 placeholder point) would otherwise
     stretch a bounds-derived grid until every real rect shared one cell.
     A rect found in several cells is reported only from the cell holding
     the min corner of its intersection with the query. Rects spanning
     more than [max_span] cells go to a small overflow list checked
     linearly, bounding insert cost. Below [flat_threshold] distinct
     rects a query scans them all instead.

   Iteration order is unspecified everywhere; callers that need a
   deterministic order sort what they collect. *)

type grid = {
  g_cell : float;  (* cell edge length, > 0 and finite *)
  g_table : (int * int, int array) Hashtbl.t;  (* cell -> distinct ids *)
  g_large : int array;  (* distinct ids too big for the grid *)
}

type t = {
  reps : Rect.t array;  (* distinct rects, ascending xmin, then ymin, xmax, ymax *)
  groups : int array array;  (* distinct id -> member indices, ascending *)
  grid : grid Lazy.t;  (* over [reps]; forced by the first large query *)
}

let flat_threshold = 64

(* A rect covering more cells than this is checked linearly instead of
   being inserted everywhere it touches. *)
let max_span = 1024

(* A query rect covering more cells than this walks the distinct list
   instead of visiting cells (also the safe path for infinite rects). *)
let query_span = 4096

let cell_coord cell v = int_of_float (Float.floor (v /. cell))

let cell_size reps =
  let d = Array.length reps in
  let sw = ref 0.0 and sh = ref 0.0 in
  Array.iter
    (fun r ->
      sw := !sw +. Rect.width r;
      sh := !sh +. Rect.height r)
    reps;
  let mean = Float.max (!sw /. float_of_int d) (!sh /. float_of_int d) in
  if Float.is_finite mean && mean > 0.0 then mean
  else begin
    (* Degenerate rects (points): size cells by the spread instead, so
       roughly sqrt d cells per side cover the occupied extent. *)
    let xmin = ref infinity and xmax = ref neg_infinity in
    let ymin = ref infinity and ymax = ref neg_infinity in
    Array.iter
      (fun r ->
        if r.Rect.xmin < !xmin then xmin := r.Rect.xmin;
        if r.Rect.xmax > !xmax then xmax := r.Rect.xmax;
        if r.Rect.ymin < !ymin then ymin := r.Rect.ymin;
        if r.Rect.ymax > !ymax then ymax := r.Rect.ymax)
      reps;
    let extent = Float.max (!xmax -. !xmin) (!ymax -. !ymin) in
    let s = extent /. Float.sqrt (float_of_int d) in
    if Float.is_finite s && s > 0.0 then s else 1.0
  end

let make_grid reps =
  let d = Array.length reps in
  let cell = cell_size reps in
  let cells : (int * int, int list ref) Hashtbl.t = Hashtbl.create (4 * d) in
  let large_rev = ref [] in
  for id = 0 to d - 1 do
    let r = reps.(id) in
    let cx0 = cell_coord cell r.Rect.xmin
    and cx1 = cell_coord cell r.Rect.xmax
    and cy0 = cell_coord cell r.Rect.ymin
    and cy1 = cell_coord cell r.Rect.ymax in
    let span = (cx1 - cx0 + 1) * (cy1 - cy0 + 1) in
    if span > max_span then large_rev := id :: !large_rev
    else
      for cx = cx0 to cx1 do
        for cy = cy0 to cy1 do
          let key = (cx, cy) in
          match Hashtbl.find_opt cells key with
          | Some ids -> ids := id :: !ids
          | None -> Hashtbl.add cells key (ref [ id ])
        done
      done
  done;
  let table = Hashtbl.create (Hashtbl.length cells) in
  Hashtbl.iter
    (fun key ids -> Hashtbl.add table key (Array.of_list (List.rev !ids)))
    cells;
  { g_cell = cell; g_table = table; g_large = Array.of_list (List.rev !large_rev) }

let compare_rects (a : Rect.t) (b : Rect.t) =
  let c = Float.compare a.Rect.xmin b.Rect.xmin in
  if c <> 0 then c
  else
    let c = Float.compare a.Rect.ymin b.Rect.ymin in
    if c <> 0 then c
    else
      let c = Float.compare a.Rect.xmax b.Rect.xmax in
      if c <> 0 then c else Float.compare a.Rect.ymax b.Rect.ymax

let build rects =
  let n = Array.length rects in
  (* By coordinates, then index: equal rects are consecutive, each run
     with its indices ascending. *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let c = compare_rects rects.(i) rects.(j) in
      if c <> 0 then c else Int.compare i j)
    order;
  let starts = ref [] in
  for x = n - 1 downto 0 do
    if x = 0 || compare_rects rects.(order.(x - 1)) rects.(order.(x)) <> 0 then
      starts := x :: !starts
  done;
  let starts = Array.of_list !starts in
  let d = Array.length starts in
  let stop g = if g + 1 < d then starts.(g + 1) else n in
  let reps = Array.map (fun s -> rects.(order.(s))) starts in
  let groups = Array.init d (fun g -> Array.sub order starts.(g) (stop g - starts.(g))) in
  { reps; groups; grid = lazy (make_grid reps) }

let iter_groups t f = Array.iter f t.groups

(* Group-level pair sweep: [f ga gb] once per unordered pair of distinct
   rects that overlap. A rect after [ra] in the order starts at or after
   [ra.xmin], so while it starts at or before [ra.xmax] the two meet in
   x, and they overlap exactly when they meet in y too. *)
let iter_group_pairs t f =
  let reps = t.reps in
  let d = Array.length reps in
  for a = 0 to d - 1 do
    let ra = reps.(a) in
    let b = ref (a + 1) in
    while !b < d && reps.(!b).Rect.xmin <= ra.Rect.xmax do
      let rb = reps.(!b) in
      if rb.Rect.ymin <= ra.Rect.ymax && ra.Rect.ymin <= rb.Rect.ymax then
        f t.groups.(a) t.groups.(!b);
      incr b
    done
  done

(* Every overlapping pair (i, j) with i < j, exactly once. *)
let iter_pairs t f =
  let emit i j = if i < j then f i j else f j i in
  (* Duplicate groups are cliques: equal rects always overlap. *)
  iter_groups t (fun g ->
      let m = Array.length g in
      for k = 0 to m - 1 do
        for l = k + 1 to m - 1 do
          emit g.(k) g.(l)
        done
      done);
  iter_group_pairs t (fun ga gb ->
      Array.iter (fun i -> Array.iter (fun j -> emit i j) gb) ga)

(* All indices whose rect overlaps [r], exactly once each. *)
let query t r f =
  let linear () =
    Array.iteri
      (fun id rep -> if Rect.overlaps rep r then Array.iter f t.groups.(id))
      t.reps
  in
  if Array.length t.reps <= flat_threshold then linear ()
  else begin
    let g = Lazy.force t.grid in
    let fx0 = Float.floor (r.Rect.xmin /. g.g_cell)
    and fx1 = Float.floor (r.Rect.xmax /. g.g_cell)
    and fy0 = Float.floor (r.Rect.ymin /. g.g_cell)
    and fy1 = Float.floor (r.Rect.ymax /. g.g_cell) in
    let span = (fx1 -. fx0 +. 1.0) *. (fy1 -. fy0 +. 1.0) in
    if not (Float.is_finite span) || span > float_of_int query_span then
      linear ()
    else begin
      let cx0 = int_of_float fx0
      and cx1 = int_of_float fx1
      and cy0 = int_of_float fy0
      and cy1 = int_of_float fy1 in
      for cx = cx0 to cx1 do
        for cy = cy0 to cy1 do
          match Hashtbl.find_opt g.g_table (cx, cy) with
          | None -> ()
          | Some bucket ->
              Array.iter
                (fun id ->
                  let rep = t.reps.(id) in
                  if Rect.overlaps rep r then begin
                    let px = Float.max rep.Rect.xmin r.Rect.xmin
                    and py = Float.max rep.Rect.ymin r.Rect.ymin in
                    if
                      cell_coord g.g_cell px = cx
                      && cell_coord g.g_cell py = cy
                    then Array.iter f t.groups.(id)
                  end)
                bucket
        done
      done;
      Array.iter
        (fun id ->
          if Rect.overlaps t.reps.(id) r then Array.iter f t.groups.(id))
        g.g_large
    end
  end

exception Found

let overlaps_any t r =
  try
    query t r (fun _ -> raise Found);
    false
  with Found -> true
