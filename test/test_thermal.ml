(* Tests for the thermal-reliability scenario mode: the map file format's
   exact round trip, the deterministic synthetic generator, temperature-
   aware selection context, the inert-spec bit-identity contract, and the
   Pareto front's monotonicity. *)

open Operon_geom
open Operon_util
open Operon_optical
open Operon
open Operon_benchgen
open Operon_thermal

let params = Params.default

let die = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:3.0 ~ymax:3.0

let synth ?(seed = 1) () =
  Thermal_map.synthetic ~nx:8 ~ny:8 ~hotspots:3 ~amplitude:30.0 ~decay:0.2
    ~die (Prng.create seed)

(* ------------------------------------------------------------------ *)
(* File format                                                         *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let m = synth () in
  let text = Thermal_map.to_string m in
  match Thermal_map.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok m' ->
      (* %.17g cell values reconstruct the exact binary64s, so the
         re-serialization is byte-identical. *)
      Alcotest.(check string) "exact round trip" text (Thermal_map.to_string m');
      Alcotest.(check string)
        "same summary" (Thermal_map.summary m) (Thermal_map.summary m')

let test_save_load () =
  let m = synth () in
  let path = Filename.temp_file "operon-thermal" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Thermal_map.save path m;
      match Thermal_map.load path with
      | Error msg -> Alcotest.fail msg
      | Ok m' ->
          Alcotest.(check string)
            "file round trip" (Thermal_map.to_string m) (Thermal_map.to_string m'))

let test_synthetic_deterministic () =
  Alcotest.(check string)
    "same seed, same field"
    (Thermal_map.to_string (synth ()))
    (Thermal_map.to_string (synth ()));
  Alcotest.(check bool)
    "different seed, different field" false
    (Thermal_map.to_string (synth ()) = Thermal_map.to_string (synth ~seed:2 ()))

(* The generator's caps bound every cell it writes: the largest
   amplitude and hotspot count give finite cells, and anything past a
   cap (or a NaN or infinite amplitude or decay) is refused before any
   cell is allocated. *)
let test_synthetic_bounds () =
  let gen ?(n = 4) ?(hotspots = 3) ?(amplitude = 30.0) ?(decay = 0.2) ?ambient () =
    Thermal_map.synthetic ~nx:n ~ny:n ?ambient ~hotspots ~amplitude ~decay ~die (Prng.create 1)
  in
  let m =
    gen ~hotspots:Thermal_map.max_hotspots ~amplitude:Thermal_map.max_amplitude
      ~ambient:Thermal_map.max_ambient ()
  in
  Alcotest.(check bool) "largest field is finite" true
    (Float.is_finite (Thermal_map.peak m));
  Alcotest.(check (float 0.0)) "coldest ambient accepted" (-.Thermal_map.max_ambient)
    (Thermal_map.ambient (gen ~ambient:(-.Thermal_map.max_ambient) ()));
  List.iter
    (fun (name, f) ->
      match f () with
      | _ -> Alcotest.failf "%s accepted" name
      | exception Invalid_argument _ -> ())
    [ ("amplitude above cap", fun () -> gen ~amplitude:(Thermal_map.max_amplitude *. 1.5) ());
      ("amplitude 1e308", fun () -> gen ~amplitude:1e308 ());
      ("amplitude inf", fun () -> gen ~amplitude:infinity ());
      ("amplitude nan", fun () -> gen ~amplitude:nan ());
      ("decay nan", fun () -> gen ~decay:nan ());
      ("decay inf", fun () -> gen ~decay:infinity ());
      ("hotspots above cap", fun () -> gen ~hotspots:(Thermal_map.max_hotspots + 1) ());
      ("grid above cap", fun () -> gen ~n:(Thermal_map.max_grid + 1) ());
      ("ambient above cap", fun () -> gen ~ambient:(Thermal_map.max_ambient +. 1.0) ());
      ("ambient below -cap", fun () -> gen ~ambient:(-1e307) ());
      ("ambient nan", fun () -> gen ~ambient:nan ()) ]

let expect_error name text fragment =
  match Thermal_map.of_string text with
  | Ok _ -> Alcotest.failf "%s: malformed map accepted" name
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" name msg fragment)
        true (contains msg fragment)

let test_of_string_errors () =
  let good = Thermal_map.to_string (synth ()) in
  expect_error "bad header" ("nonsense\n" ^ good) "line 1";
  expect_error "truncated" "operon-thermal-map 1\ndie 0 0 1 1\n" "truncated";
  expect_error "bad die"
    "operon-thermal-map 1\ndie 0 0 zero 1\ngrid 2 2\nambient 40\n1 2\n3 4\n"
    "die xmax";
  expect_error "empty die"
    "operon-thermal-map 1\ndie 1 0 1 1\ngrid 2 2\nambient 40\n1 2\n3 4\n"
    "empty die";
  expect_error "bad grid"
    "operon-thermal-map 1\ndie 0 0 1 1\ngrid 0 2\nambient 40\n1 2\n3 4\n"
    "grid";
  expect_error "bad ambient"
    "operon-thermal-map 1\ndie 0 0 1 1\ngrid 2 2\nambient hot\n1 2\n3 4\n"
    "ambient";
  expect_error "ambient above max_ambient"
    "operon-thermal-map 1\ndie 0 0 1 1\ngrid 2 2\nambient 1e307\n1 2\n3 4\n"
    "line 4: ambient 1e+307 outside [-1414, 1414]";
  expect_error "ambient below -max_ambient"
    "operon-thermal-map 1\ndie 0 0 1 1\ngrid 2 2\nambient -1414.5\n1 2\n3 4\n"
    "line 4: ambient";
  expect_error "missing row"
    "operon-thermal-map 1\ndie 0 0 1 1\ngrid 2 2\nambient 40\n1 2\n"
    "missing row";
  expect_error "extra row"
    "operon-thermal-map 1\ndie 0 0 1 1\ngrid 2 2\nambient 40\n1 2\n3 4\n5 6\n"
    "extra row";
  expect_error "short row"
    "operon-thermal-map 1\ndie 0 0 1 1\ngrid 2 2\nambient 40\n1\n3 4\n"
    "has 1 cells";
  expect_error "bad cell"
    "operon-thermal-map 1\ndie 0 0 1 1\ngrid 2 2\nambient 40\n1 x\n3 4\n"
    "bad cell value"

(* Fuzzing the map reader. Random maps (any finite cells, including
   -0.0, subnormals and +-1e308, and any ambient within
   [max_ambient]) round-trip exactly through [to_string] and
   [of_string]. Arbitrary text, and valid maps with a few token or
   line mutations (huge, negative, non-finite or misplaced tokens,
   dropped, doubled or swapped lines, truncation), never make
   [of_string] raise: it parses, or it returns a one-line error. A
   header like [grid 100000000000 100000000000] once raised from the
   grid allocation. *)
let random_map_gen =
  QCheck.Gen.(
    let finite =
      oneof
        [ float_range (-1e3) 1e3;
          oneofl [ 0.0; -0.0; 1e308; -1e308; 5e-324; 0.1; 1.0 /. 3.0 ] ]
    in
    let ambient =
      let cap = Thermal_map.max_ambient in
      oneof [ float_range (-.cap) cap; oneofl [ 0.0; -0.0; cap; -.cap; 5e-324; 1.0 /. 3.0 ] ]
    in
    int_range 1 6 >>= fun nx ->
    int_range 1 6 >>= fun ny ->
    ambient >>= fun ambient ->
    pair (float_range (-10.0) 10.0) (float_range (-10.0) 10.0) >>= fun (x0, y0) ->
    pair (float_range 1e-3 10.0) (float_range 1e-3 10.0) >>= fun (w, h) ->
    array_size (return (nx * ny)) finite >|= fun cells ->
    let grid =
      Gridmap.create (Rect.make ~xmin:x0 ~ymin:y0 ~xmax:(x0 +. w) ~ymax:(y0 +. h)) ~nx ~ny
    in
    Array.iteri (fun k v -> Gridmap.set grid (k mod nx) (k / nx) v) cells;
    Thermal_map.make ~ambient grid)

let print_map m = Thermal_map.to_string m

let prop_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string m) round-trips" ~count:300
    (QCheck.make ~print:print_map random_map_gen)
    (fun m ->
      let text = Thermal_map.to_string m in
      match Thermal_map.of_string text with
      | Ok m' -> Thermal_map.to_string m' = text
      | Error _ -> false)

(* [of_string] returns: a map that itself round-trips, or a one-line
   error. An exception fails the property. *)
let reads_cleanly text =
  match Thermal_map.of_string text with
  | Ok m ->
      let again = Thermal_map.to_string m in
      (match Thermal_map.of_string again with
       | Ok m' -> Thermal_map.to_string m' = again
       | Error _ -> false)
  | Error msg -> not (String.contains msg '\n')

let random_text_gen =
  QCheck.Gen.(
    let noise =
      string_size ~gen:(oneofl [ '0'; '1'; '9'; ' '; '\n'; '\t'; '-'; '.'; 'e'; 'x'; 'g' ])
        (int_range 0 120)
    in
    oneof
      [ noise;
        map (fun t -> "operon-thermal-map 1\n" ^ t) noise;
        ( pair random_map_gen noise >>= fun (m, t) ->
          int_range 0 4 >|= fun keep ->
          let lines = String.split_on_char '\n' (Thermal_map.to_string m) in
          String.concat "\n" (List.filteri (fun i _ -> i < keep) lines) ^ "\n" ^ t ) ])

let mutated_map_gen =
  QCheck.Gen.(
    let token =
      frequency
        [ (1, oneofl [ "100000000000"; "4611686018427387903"; "9223372036854775808" ]);
          ( 2,
            oneofl
              [ "-1"; "0"; "nan"; "inf"; "-inf"; "1e309"; "0x1p-1074"; "x"; ""; "grid";
                "die"; "ambient"; "operon-thermal-map" ] ) ]
    in
    (* Edits favour the four header lines. *)
    let line = frequency [ (3, int_range 0 3); (1, nat) ] in
    let edit =
      oneof
        [ map3 (fun l t tok -> `Replace (l, t, tok)) line nat token;
          map2 (fun l t -> `Drop_token (l, t)) line nat;
          map2 (fun l t -> `Double_token (l, t)) line nat;
          map (fun l -> `Drop_line l) line;
          map (fun l -> `Double_line l) line;
          map2 (fun a b -> `Swap_lines (a, b)) line nat;
          map (fun n -> `Truncate n) nat ]
    in
    pair random_map_gen (list_size (int_range 1 4) edit) >|= fun (m, edits) ->
    let at l xs = l mod Stdlib.max 1 (List.length xs) in
    let on_nth n f xs = List.concat (List.mapi (fun i x -> if i = n then f x else [ x ]) xs) in
    let apply lines = function
      | `Replace (l, t, tok) ->
          on_nth (at l lines)
            (fun toks -> [ on_nth (at t toks) (fun _ -> [ tok ]) toks ])
            lines
      | `Drop_token (l, t) ->
          on_nth (at l lines) (fun toks -> [ on_nth (at t toks) (fun _ -> []) toks ]) lines
      | `Double_token (l, t) ->
          on_nth (at l lines) (fun toks -> [ on_nth (at t toks) (fun x -> [ x; x ]) toks ]) lines
      | `Drop_line l -> on_nth (at l lines) (fun _ -> []) lines
      | `Double_line l -> on_nth (at l lines) (fun x -> [ x; x ]) lines
      | `Swap_lines (a, b) ->
          let a = at a lines and b = at b lines in
          List.mapi
            (fun i x -> if i = a then List.nth lines b else if i = b then List.nth lines a else x)
            lines
      | `Truncate n ->
          let text = String.concat "\n" (List.map (String.concat " ") lines) in
          let cut = String.sub text 0 (n mod (String.length text + 1)) in
          List.map (String.split_on_char ' ') (String.split_on_char '\n' cut)
    in
    let lines =
      List.map (String.split_on_char ' ') (String.split_on_char '\n' (Thermal_map.to_string m))
    in
    String.concat "\n" (List.map (String.concat " ") (List.fold_left apply lines edits)))

let prop_random_text =
  QCheck.Test.make ~name:"of_string never raises on random text" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") random_text_gen)
    reads_cleanly

let prop_mutated_maps =
  QCheck.Test.make ~name:"of_string never raises on mutated maps" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") mutated_map_gen)
    reads_cleanly

let test_huge_grid () =
  expect_error "huge grid, no rows"
    "operon-thermal-map 1\ndie 0 0 1 1\ngrid 100000000000 100000000000\nambient 40\n"
    "line 5: missing row 1 of 100000000000";
  expect_error "huge grid, one row"
    "operon-thermal-map 1\ndie 0 0 1 1\ngrid 100000000000 1\nambient 40\n1 2\n"
    "line 5: row 1 has 2 cells (expected 100000000000)"

let test_sampling () =
  let m = synth () in
  (* temp_at is ambient plus the local rise; detuning along a segment is
     the worst |T - t_ref| over its samples, so it can never undershoot
     either endpoint's deviation. *)
  let a = Point.make 0.2 0.2 and b = Point.make 2.8 2.8 in
  let t_ref = params.Params.t_ref in
  let dev p = Float.abs (Thermal_map.temp_at m p -. t_ref) in
  let seg = Segment.make a b in
  let d = Thermal_map.segment_detuning m ~t_ref seg in
  Alcotest.(check bool) "detuning >= endpoint a" true (d >= dev a -. 1e-12);
  Alcotest.(check bool) "detuning >= endpoint b" true (d >= dev b -. 1e-12);
  Alcotest.(check bool)
    "ambient floor" true
    (Thermal_map.temp_at m (Point.make 0.01 0.01) >= Thermal_map.ambient m)

(* ------------------------------------------------------------------ *)
(* Temperature-aware selection                                         *)
(* ------------------------------------------------------------------ *)

let prepared =
  lazy
    (let design = Cases.tiny ~seed:3 () in
     let hnets, ctx = Flow.prepare_with (Flow.Config.default params) design in
     (design, hnets, ctx))

let test_with_thermal () =
  let _, _, ctx = Lazy.force prepared in
  let map = synth () in
  let profile = Selection.thermal_profile ctx map in
  let tctx = Selection.with_thermal ctx profile ~weight:2.0 in
  let plain = Selection.greedy ctx in
  (* Penalties are non-negative, so thermal path losses can only grow
     and the margin can only shrink relative to the raw loss check. *)
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun p loss ->
          let tloss = (Selection.net_path_losses tctx plain i).(p) in
          Alcotest.(check bool) "penalty >= 0" true (tloss >= loss -. 1e-12))
        (Selection.net_path_losses ctx plain i))
    plain;
  let obj_plain = Selection.objective ctx 0 plain.(0) in
  let obj_thermal = Selection.objective tctx 0 plain.(0) in
  Alcotest.(check bool) "objective grows" true (obj_thermal >= obj_plain -. 1e-12);
  Alcotest.(check bool)
    "margin consistent" true
    (Selection.thermal_margin tctx plain
    <= ctx.Selection.params.Params.l_max +. 1e-12);
  Alcotest.check_raises "negative weight"
    (Invalid_argument
       "Selection.with_thermal: weight must be finite and non-negative")
    (fun () -> ignore (Selection.with_thermal ctx profile ~weight:(-1.0)))

let test_inert_bit_identity () =
  let design, hnets, ctx = Lazy.force prepared in
  let map = synth () in
  let plain =
    Flow.select_with (Flow.Config.default params) design hnets ctx
  in
  let inert =
    Flow.select_with
      (Flow.Config.with_thermal ~weights:[| 0.0 |] map
         (Flow.Config.default params))
      design hnets ctx
  in
  Alcotest.(check bool) "same choice" true (inert.Flow.choice = plain.Flow.choice);
  Alcotest.(check bool) "no thermal block" true (inert.Flow.thermal = None);
  Alcotest.(check string)
    "byte-identical export"
    (Export.flow_to_json ~timings:false plain)
    (Export.flow_to_json ~timings:false inert)

let test_pareto_front () =
  let design, hnets, ctx = Lazy.force prepared in
  let map = synth () in
  let swept =
    Flow.select_with
      (Flow.Config.with_thermal map (Flow.Config.default params))
      design hnets ctx
  in
  match swept.Flow.thermal with
  | None -> Alcotest.fail "thermal sweep produced no result"
  | Some tr ->
      Alcotest.(check int)
        "swept the default ladder"
        (Array.length Flow.Config.default_thermal_weights)
        tr.Flow.tr_swept;
      Alcotest.(check bool) "front non-empty" true (tr.Flow.tr_front <> []);
      Alcotest.(check int)
        "front + dropped = swept" tr.Flow.tr_swept
        (List.length tr.Flow.tr_front + tr.Flow.tr_dropped);
      (* Strict monotonicity in both coordinates is the front's defining
         contract: every kept point trades real power for real margin. *)
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            a.Flow.tp_power < b.Flow.tp_power
            && a.Flow.tp_margin < b.Flow.tp_margin
            && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "monotone front" true (monotone tr.Flow.tr_front);
      (* Each point's power is recomputable from its choice alone. *)
      List.iter
        (fun (p : Flow.thermal_point) ->
          Alcotest.(check (float 1e-9))
            "power recomputes" p.Flow.tp_power
            (Selection.power ctx p.Flow.tp_choice))
        tr.Flow.tr_front

let test_jobs_invariance () =
  let map = synth () in
  let design = Cases.tiny ~seed:3 () in
  let run jobs =
    let config =
      Flow.Config.with_thermal map
        (Flow.Config.make ~jobs params)
    in
    Export.flow_to_json ~timings:false (Flow.synthesize config design)
  in
  Alcotest.(check string) "jobs 1 = jobs 4" (run 1) (run 4)

let () =
  Alcotest.run "thermal"
    [ ( "format",
        [ Alcotest.test_case "round trip" `Quick test_roundtrip;
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "synthetic bounds" `Quick test_synthetic_bounds;
          Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
          Alcotest.test_case "huge grid header" `Quick test_huge_grid;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_random_text;
          QCheck_alcotest.to_alcotest prop_mutated_maps;
          Alcotest.test_case "sampling" `Quick test_sampling ] );
      ( "selection",
        [ Alcotest.test_case "with_thermal" `Quick test_with_thermal;
          Alcotest.test_case "inert bit-identity" `Quick test_inert_bit_identity;
          Alcotest.test_case "pareto front" `Quick test_pareto_front;
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance ] ) ]
