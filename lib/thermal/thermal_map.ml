open Operon_geom
open Operon_util

(* An on-chip temperature field on the same grid geometry as the
   [Hotspot] power maps. Cells store the temperature *rise* above
   ambient in degrees Celsius; [temp_at] returns absolute temperature.
   The map is static per run: routes react to heat, they do not produce
   it (the GLOW scenario's one-way coupling). *)

type t = {
  grid : Gridmap.t;  (* cell value: rise above ambient, degC *)
  ambient : float;   (* degC *)
}

let grid t = t.grid

let ambient t = t.ambient

let bounds t = Gridmap.bounds t.grid

let nx t = Gridmap.nx t.grid

let ny t = Gridmap.ny t.grid

let make ~ambient grid = { grid; ambient }

let peak_rise t = Gridmap.peak t.grid

let peak t = t.ambient +. peak_rise t

let cell_center t i j =
  let b = bounds t in
  let w = Rect.width b /. float_of_int (nx t) in
  let h = Rect.height b /. float_of_int (ny t) in
  Point.make
    (b.Rect.xmin +. ((float_of_int i +. 0.5) *. w))
    (b.Rect.ymin +. ((float_of_int j +. 0.5) *. h))

let temp_at t p =
  let i, j = Gridmap.cell_of t.grid p in
  t.ambient +. Gridmap.get t.grid i j

(* ------------------------------------------------------------------ *)
(* Synthetic generator                                                *)
(* ------------------------------------------------------------------ *)

let max_grid = 1024

let max_hotspots = 256

let max_amplitude = 1000.0

(* Gaussian hotspots: [hotspots] centers drawn uniformly over the die,
   each with a rise in (amplitude/2, amplitude] and a sigma scaled by
   [decay] (fraction of the shorter die dimension). Draw order is fixed
   (cx, cy, amp, sigma per hotspot in sequence), so a given PRNG stream
   always produces the same field. *)
let synthetic ?(nx = 24) ?(ny = 24) ?(ambient = 45.0) ~hotspots ~amplitude
    ~decay ~die rng =
  if nx <= 0 || ny <= 0 then
    invalid_arg "Thermal_map.synthetic: non-positive grid size";
  if nx > max_grid || ny > max_grid then
    invalid_arg "Thermal_map.synthetic: grid size above max_grid";
  if hotspots < 0 then invalid_arg "Thermal_map.synthetic: negative hotspots";
  if hotspots > max_hotspots then
    invalid_arg "Thermal_map.synthetic: hotspots above max_hotspots";
  if not (amplitude >= 0.0 && amplitude <= max_amplitude) then
    invalid_arg "Thermal_map.synthetic: amplitude outside [0, max_amplitude]";
  if not (decay > 0.0 && Float.is_finite decay) then
    invalid_arg "Thermal_map.synthetic: decay not positive and finite";
  let grid = Gridmap.create die ~nx ~ny in
  let t = { grid; ambient } in
  let scale = Float.min (Rect.width die) (Rect.height die) in
  let spots =
    Array.init hotspots (fun _ ->
        let cx = Prng.float_range rng die.Rect.xmin die.Rect.xmax in
        let cy = Prng.float_range rng die.Rect.ymin die.Rect.ymax in
        let amp = amplitude *. (0.5 +. (0.5 *. Prng.float rng 1.0)) in
        let sigma = decay *. scale *. (0.5 +. (0.5 *. Prng.float rng 1.0)) in
        (cx, cy, amp, sigma))
  in
  for j = 0 to ny - 1 do
    for i = 0 to nx - 1 do
      let c = cell_center t i j in
      let rise =
        Array.fold_left
          (fun acc (cx, cy, amp, sigma) ->
            let dx = c.Point.x -. cx and dy = c.Point.y -. cy in
            let d2 = (dx *. dx) +. (dy *. dy) in
            acc +. (amp *. Float.exp (-.d2 /. (2.0 *. sigma *. sigma))))
          0.0 spots
      in
      Gridmap.set grid i j rise
    done
  done;
  t

(* ------------------------------------------------------------------ *)
(* Thermal support                                                    *)
(* ------------------------------------------------------------------ *)

(* Bounding box of the cells that detune at all: every cell whose
   absolute temperature differs from [t_ref] (by the exact expression
   [segment_detuning] evaluates). [None] when the whole map sits at
   t_ref. Outside this box every sample detunes by exactly 0.0, so
   callers may skip sampling entirely — two details make the skip exact
   rather than approximate:

   - [Gridmap.cell_of] clamps out-of-die points into the edge cells, so
     a support cell on the die boundary is extended to infinity on its
     outward sides;
   - finite sides are padded by one cell pitch, absorbing any ulp-level
     disagreement between the cell-boundary arithmetic here and the
     truncating division in [cell_of]. *)
let support ~t_ref t =
  let b = bounds t in
  let gnx = nx t and gny = ny t in
  let w = Rect.width b /. float_of_int gnx in
  let h = Rect.height b /. float_of_int gny in
  let found = ref false in
  let xmin = ref infinity and xmax = ref neg_infinity in
  let ymin = ref infinity and ymax = ref neg_infinity in
  for j = 0 to gny - 1 do
    for i = 0 to gnx - 1 do
      if Float.abs (t.ambient +. Gridmap.get t.grid i j -. t_ref) <> 0.0 then begin
        found := true;
        let x0 =
          if i = 0 then neg_infinity
          else b.Rect.xmin +. (float_of_int i *. w) -. w
        and x1 =
          if i = gnx - 1 then infinity
          else b.Rect.xmin +. (float_of_int (i + 1) *. w) +. w
        and y0 =
          if j = 0 then neg_infinity
          else b.Rect.ymin +. (float_of_int j *. h) -. h
        and y1 =
          if j = gny - 1 then infinity
          else b.Rect.ymin +. (float_of_int (j + 1) *. h) +. h
        in
        if x0 < !xmin then xmin := x0;
        if x1 > !xmax then xmax := x1;
        if y0 < !ymin then ymin := y0;
        if y1 > !ymax then ymax := y1
      end
    done
  done;
  if not !found then None
  else Some (Rect.make ~xmin:!xmin ~ymin:!ymin ~xmax:!xmax ~ymax:!ymax)

(* ------------------------------------------------------------------ *)
(* Path sampling                                                      *)
(* ------------------------------------------------------------------ *)

(* Worst detuning |T - t_ref| along a segment, sampled at a third of the
   cell pitch — the same stride [Gridmap.deposit_segment] uses, so no
   traversed cell is skipped. *)
let segment_detuning t ~t_ref (s : Segment.t) =
  let dev p = Float.abs (temp_at t p -. t_ref) in
  let len = Segment.length s in
  if len <= 0.0 then dev s.Segment.a
  else begin
    let b = bounds t in
    let pitch =
      Float.min
        (Rect.width b /. float_of_int (nx t))
        (Rect.height b /. float_of_int (ny t))
    in
    let step = if pitch > 0.0 then pitch /. 3.0 else len in
    let samples = Stdlib.max 1 (int_of_float (Float.ceil (len /. step))) in
    let dir = Point.sub s.Segment.b s.Segment.a in
    let worst = ref 0.0 in
    for k = 0 to samples do
      let tparam = float_of_int k /. float_of_int samples in
      let d = dev (Point.add s.Segment.a (Point.scale tparam dir)) in
      if d > !worst then worst := d
    done;
    !worst
  end

(* ------------------------------------------------------------------ *)
(* Text file format                                                   *)
(* ------------------------------------------------------------------ *)

(* Line-oriented, human-editable, exact:

     operon-thermal-map 1
     die <xmin> <ymin> <xmax> <ymax>
     grid <nx> <ny>
     ambient <degC>
     <ny rows of nx cell rises, bottom row (j = 0) first>

   Floats are printed with %.17g, so a synthetic map survives a
   save/load round trip bit-identically — serve-side generated maps and
   CLI-side loaded ones evaluate the same penalties. *)

let magic = "operon-thermal-map 1"

let to_string t =
  let buf = Buffer.create 4096 in
  let b = bounds t in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "die %.17g %.17g %.17g %.17g\n" b.Rect.xmin b.Rect.ymin
       b.Rect.xmax b.Rect.ymax);
  Buffer.add_string buf (Printf.sprintf "grid %d %d\n" (nx t) (ny t));
  Buffer.add_string buf (Printf.sprintf "ambient %.17g\n" t.ambient);
  for j = 0 to ny t - 1 do
    for i = 0 to nx t - 1 do
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%.17g" (Gridmap.get t.grid i j))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun tok -> tok <> "")

let err lineno fmt =
  Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt

(* The cell rows of a [gnx] x [gny] map, from line 5 on, checked row by
   row in order. The grid is allocated only once every row has been
   read: the header's size alone may not fit in memory, the text's rows
   do. *)
let read_rows die ambient ~gnx ~gny rows =
  let cell tok =
    match float_of_string_opt tok with Some v when Float.is_finite v -> Some v | _ -> None
  in
  let rec parse j acc = function
    | [] -> if j < gny then err (5 + j) "missing row %d of %d" (j + 1) gny else Ok (List.rev acc)
    | row :: rest ->
        if j >= gny then err (5 + j) "extra row beyond grid %d %d" gnx gny
        else begin
          let toks = split_ws row in
          if List.length toks <> gnx then
            err (5 + j) "row %d has %d cells (expected %d)" (j + 1) (List.length toks) gnx
          else
            match List.find_opt (fun tok -> cell tok = None) toks with
            | Some tok -> err (5 + j) "bad cell value %S" tok
            | None -> parse (j + 1) (Array.of_list (List.filter_map cell toks) :: acc) rest
        end
  in
  Result.map
    (fun cells ->
      let grid = Gridmap.create die ~nx:gnx ~ny:gny in
      List.iteri (fun j row -> Array.iteri (fun i v -> Gridmap.set grid i j v) row) cells;
      { grid; ambient })
    (parse 0 [] rows)

let of_string s =
  let lines = String.split_on_char '\n' s |> List.map String.trim in
  (* Trailing blank lines are noise; internal ones are row errors. *)
  let rec drop_trailing = function "" :: rest -> drop_trailing rest | l -> l in
  let lines = List.rev (drop_trailing (List.rev lines)) in
  let float_tok lineno name tok k =
    match float_of_string_opt tok with
    | Some v when Float.is_finite v -> k v
    | _ -> err lineno "bad %s %S (expected a finite number)" name tok
  in
  match lines with
  | header :: die_line :: grid_line :: ambient_line :: rows ->
      if header <> magic then
        Error (Printf.sprintf "line 1: bad header %S (expected %S)" header magic)
      else begin
        match split_ws die_line with
        | [ "die"; xmin; ymin; xmax; ymax ] ->
            float_tok 2 "die xmin" xmin (fun xmin ->
                float_tok 2 "die ymin" ymin (fun ymin ->
                    float_tok 2 "die xmax" xmax (fun xmax ->
                        float_tok 2 "die ymax" ymax (fun ymax ->
                            if xmax <= xmin || ymax <= ymin then
                              err 2 "empty die [%g,%g]x[%g,%g]" xmin xmax ymin
                                ymax
                            else begin
                              match split_ws grid_line with
                              | [ "grid"; snx; sny ] -> (
                                  match
                                    (int_of_string_opt snx, int_of_string_opt sny)
                                  with
                                  | Some gnx, Some gny
                                    when gnx > 0 && gny > 0 -> (
                                      match split_ws ambient_line with
                                      | [ "ambient"; amb ] ->
                                          float_tok 4 "ambient" amb (fun ambient ->
                                              read_rows
                                                (Rect.make ~xmin ~ymin ~xmax ~ymax)
                                                ambient ~gnx ~gny rows)
                                      | _ ->
                                          err 4 "bad ambient line %S" ambient_line)
                                  | _ ->
                                      err 3 "bad grid size %S (expected grid NX NY)"
                                        grid_line)
                              | _ -> err 3 "bad grid line %S" grid_line
                            end))))
        | _ -> err 2 "bad die line %S" die_line
      end
  | _ -> Error "truncated thermal map (need header, die, grid, ambient, rows)"

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

let summary t =
  Printf.sprintf "thermal map: %dx%d ambient=%.1f peak=%.1f (rise %.1f)"
    (nx t) (ny t) t.ambient (peak t) (peak_rise t)

let render ?levels t = Gridmap.render ?levels t.grid
