(* Tests for the crossing-matrix cache and the incremental evaluator:
   unit checks of Xmatrix against the raw geometry, property-style
   parity over Benchgen random designs (cached and uncached reads must
   be bit-identical through net_path_losses / worst_violation / the
   final LR and ILP choices, sequential and jobs=4), and the
   incremental-vs-full recompute equivalence of Selection.Eval. *)

open Operon_geom
open Operon_optical
open Operon_util
open Operon
open Operon_benchgen
open Operon_engine

let p = Point.make

let params = Params.default

let hnet_of_centers ~id ?(bits = 8) centers =
  let pins =
    Array.mapi
      (fun i c ->
        { Hypernet.center = c; pin_count = 1; source_count = (if i = 0 then 1 else 0) })
      centers
  in
  Hypernet.make ~id ~group:0 ~bits ~pins

let simple_cands ?(bits = 8) id a b =
  let centers = [| a; b |] in
  let hnet = hnet_of_centers ~id ~bits centers in
  let topo =
    Operon_steiner.Topology.make ~positions:centers ~nterminals:2 ~edges:[ (0, 1) ]
      ~root:0
  in
  [ Candidate.of_labels params hnet topo [| Candidate.Electrical; Candidate.Optical |];
    Candidate.electrical params hnet topo ]

(* Two long nets crossing at the centre. *)
let crossing_pair () =
  [| simple_cands 0 (p 0.0 2.0) (p 4.0 2.0); simple_cands 1 (p 2.0 0.0) (p 2.0 4.0) |]

(* ------------------------------------------------------------------ *)
(* Xmatrix unit tests                                                 *)
(* ------------------------------------------------------------------ *)

(* Every entry of a matrix, read through each reader, against the raw
   geometry: [slot_counts] equals [Segment.count_crossings] of each path
   against the other candidate's optical segments, [add_losses] adds
   exactly each path's bundled loss at the given offset, and, per
   neighbour candidate (m, n), [add_weighted_row] under a unit weight on
   path [q] adds to every (i, j)'s cell exactly the bundled loss (i, j)
   puts on that path of (m, n). Each entry read counts one hit (table)
   or one miss (direct) and nothing else; on a table every mirror slot
   points back and [stats.entries] is the number of entries with a
   non-zero count. *)
let check_rows xmat (ctx : Selection.ctx) =
  let cached = Xmatrix.enabled xmat in
  let bundled = ctx.Selection.bundled in
  let loss = Loss.crossing_bundled ctx.Selection.params in
  let ok = ref true and nonzero = ref 0 in
  let read ?(cells = 1) f =
    let s0 = Xmatrix.stats xmat in
    let r = f () in
    let s1 = Xmatrix.stats xmat in
    let want =
      if cached then (s0.Xmatrix.hits + cells, s0.Xmatrix.misses)
      else (s0.Xmatrix.hits, s0.Xmatrix.misses + cells)
    in
    if (s1.Xmatrix.hits, s1.Xmatrix.misses) <> want then ok := false;
    r
  in
  let crossings (c : Candidate.t) (other : Candidate.t) =
    Array.map
      (fun (path : Candidate.path) ->
        Segment.count_crossings path.Candidate.segments other.Candidate.opt_segments)
      c.Candidate.paths
  in
  Array.iteri
    (fun i ms ->
      let ci = ctx.Selection.cands.(i) in
      let ni = Array.length ci in
      Array.iteri
        (fun k m ->
          if cached && ctx.Selection.neighbors.(m).(Xmatrix.mirror xmat ~i ~k) <> i then
            ok := false;
          Array.iteri
            (fun n (other : Candidate.t) ->
              let own = Array.map (fun c -> crossings c other) ci in
              Array.iteri
                (fun j counts ->
                  if Array.exists (fun x -> x > 0) counts then incr nonzero;
                  if read (fun () -> Xmatrix.slot_counts xmat ~i ~k ~j ~m ~n) <> counts then
                    ok := false;
                  let acc = Array.make (Array.length counts + 1) 0.0 in
                  read (fun () -> Xmatrix.add_losses xmat bundled ~i ~k ~j ~m ~n acc 1);
                  if acc <> Array.append [| 0.0 |] (Array.map loss counts) then ok := false)
                own;
              let foreign = Array.map (fun c -> crossings other c) ci in
              Array.iteri
                (fun q _ ->
                  let w =
                    Array.init (Array.length other.Candidate.paths) (fun x ->
                        if x = q then 1.0 else 0.0)
                  in
                  let acc = Array.make ni 0.0 in
                  read ~cells:ni (fun () ->
                      Xmatrix.add_weighted_row xmat bundled ~i ~k ~m ~n w acc);
                  if acc <> Array.map (fun counts -> loss counts.(q)) foreign then ok := false)
                other.Candidate.paths)
            ctx.Selection.cands.(m))
        ms)
    ctx.Selection.neighbors;
  let entries = (Xmatrix.stats xmat).Xmatrix.entries in
  !ok && entries = (if cached then !nonzero else 0)

let test_counts_match_geometry () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  Alcotest.(check bool) "cache built" true (Xmatrix.enabled ctx.Selection.xmat);
  Alcotest.(check bool) "rows match geometry" true (check_rows ctx.Selection.xmat ctx)

let test_loss_matches_candidate_formula () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  let xmat = ctx.Selection.xmat in
  Array.iteri
    (fun i ms ->
      Array.iteri
        (fun k m ->
          Array.iteri
            (fun j (c : Candidate.t) ->
              Array.iteri
                (fun n (other : Candidate.t) ->
                  let losses = Array.make (Array.length c.Candidate.paths) 0.0 in
                  Xmatrix.add_losses xmat ctx.Selection.bundled ~i ~k ~j ~m ~n losses 0;
                  Array.iteri
                    (fun pidx loss ->
                      Alcotest.(check (float 0.0))
                        "add_losses = Candidate.crossing_loss_on_path"
                        (Candidate.crossing_loss_on_path ctx.Selection.params c
                           pidx other)
                        loss)
                    losses)
                ctx.Selection.cands.(m))
            ctx.Selection.cands.(i))
        ms)
    ctx.Selection.neighbors

let test_counters_and_modes () =
  let ctx = Selection.make_ctx params (crossing_pair ()) in
  let xmat = ctx.Selection.xmat in
  let s0 = Xmatrix.stats xmat in
  Alcotest.(check bool) "enabled" true s0.Xmatrix.enabled;
  Alcotest.(check bool) "pairs precomputed" true (s0.Xmatrix.pairs > 0);
  Alcotest.(check int) "fresh hits" 0 s0.Xmatrix.hits;
  ignore (Xmatrix.slot_counts xmat ~i:0 ~k:0 ~j:0 ~m:1 ~n:0);
  let s1 = Xmatrix.stats xmat in
  Alcotest.(check int) "one hit" 1 s1.Xmatrix.hits;
  let direct = (Selection.uncached ctx).Selection.xmat in
  Alcotest.(check bool) "direct disabled" false (Xmatrix.enabled direct);
  ignore (Xmatrix.slot_counts direct ~i:0 ~k:0 ~j:0 ~m:1 ~n:0);
  Alcotest.(check int) "direct queries are misses" 1 (Xmatrix.stats direct).Xmatrix.misses

(* Candidates of one net that label the same topology value share its
   edge crossing table; equal but physically distinct topologies (two
   [Topology.make] calls) get separate tables. Net 0 runs along y = 2
   with three labellings of one topology; net 1 (a vertical edge across
   net 0's first edge, then a diagonal across its second) labels two
   equal, physically distinct topologies. Every stored count must equal
   [Segment.count_crossings] on the path's segments, sequential and with
   four workers. *)
let shared_topology_cands () =
  let l = Array.map (fun o -> if o then Candidate.Optical else Candidate.Electrical) in
  let net id centers labellings =
    let hnet = hnet_of_centers ~id centers in
    let topo () =
      Operon_steiner.Topology.make ~positions:centers ~nterminals:3
        ~edges:[ (0, 1); (1, 2) ] ~root:0
    in
    let topos = [| topo (); topo () |] in
    List.map (fun (k, labels) -> Candidate.of_labels params hnet topos.(k) (l labels))
      labellings
    @ [ Candidate.electrical params hnet topos.(0) ]
  in
  [| net 0 [| p 0.0 2.0; p 2.0 2.0; p 4.0 2.0 |]
       [ (0, [| false; true; true |]); (0, [| false; true; false |]);
         (0, [| false; false; true |]) ];
     net 1 [| p 1.0 0.0; p 1.0 4.0; p 3.5 0.0 |]
       [ (0, [| false; true; true |]); (0, [| false; true; false |]);
         (1, [| false; false; true |]); (1, [| false; true; true |]) ] |]

let test_shared_topology_parity () =
  List.iter
    (fun jobs ->
      let exec = Executor.create ~jobs in
      let ctx = Selection.make_ctx ~exec params (shared_topology_cands ()) in
      Alcotest.(check (array int)) "nets are neighbours" [| 1 |] ctx.Selection.neighbors.(0);
      Alcotest.(check (array int)) "two crossings on the two-edge path" [| 1; 2 |]
        (Xmatrix.slot_counts ctx.Selection.xmat ~i:0 ~k:0 ~j:0 ~m:1 ~n:0);
      Alcotest.(check bool) "rows match geometry" true (check_rows ctx.Selection.xmat ctx);
      Alcotest.(check bool) "direct reads match geometry" true
        (check_rows (Selection.uncached ctx).Selection.xmat ctx);
      let _, design_ctx =
        Flow.prepare_with (Flow.Config.with_jobs jobs (Flow.Config.default params))
          (Cases.tiny ~seed:5 ())
      in
      Alcotest.(check bool) "tiny rows match geometry" true
        (check_rows design_ctx.Selection.xmat design_ctx))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Packed layout                                                      *)
(* ------------------------------------------------------------------ *)

(* Every reader of [xmat] against the same reader of a direct matrix
   over the same candidates: equal counts, and bit-identical sums from
   the same non-negative starting values under the same weights. *)
let agrees_with_direct xmat (ctx : Selection.ctx) rng =
  let direct = Xmatrix.direct ctx.Selection.cands and bundled = ctx.Selection.bundled in
  let ok = ref true in
  let both f = f xmat = f direct in
  let start len = Array.init len (fun _ -> Prng.float rng 1.0) in
  Array.iteri
    (fun i ms ->
      let ci = ctx.Selection.cands.(i) in
      Array.iteri
        (fun k m ->
          Array.iteri
            (fun n (other : Candidate.t) ->
              Array.iteri
                (fun j (c : Candidate.t) ->
                  let np = Array.length c.Candidate.paths in
                  if not (both (fun x -> Xmatrix.slot_counts x ~i ~k ~j ~m ~n)) then ok := false;
                  let acc = start (np + 2) in
                  let read x =
                    let a = Array.copy acc in
                    Xmatrix.add_losses x bundled ~i ~k ~j ~m ~n a 2;
                    a
                  in
                  if not (both read) then ok := false)
                ci;
              let w = start (Array.length other.Candidate.paths) in
              let acc = start (Array.length ci) in
              let read x =
                let a = Array.copy acc in
                Xmatrix.add_weighted_row x bundled ~i ~k ~m ~n w a;
                a
              in
              if not (both read) then ok := false)
            ctx.Selection.cands.(m))
        ms)
    ctx.Selection.neighbors;
  !ok

(* A net over the terminals [pins] (the root first) and the Steiner
   points [steiner], linked by [edges]; its candidates label the edges
   by each of [labellings] (one flag per node, true = optical), then
   all-electrical. Equal topologies are one shared value unless
   [distinct] gives a labelling its own copy. *)
let tree_net ~id ?(distinct = fun _ -> false) pins steiner edges labellings =
  let hnet = hnet_of_centers ~id pins in
  let topo () =
    Operon_steiner.Topology.make ~positions:(Array.append pins steiner)
      ~nterminals:(Array.length pins) ~edges ~root:0
  in
  let shared = topo () in
  let label = Array.map (fun o -> if o then Candidate.Optical else Candidate.Electrical) in
  List.mapi
    (fun x labels ->
      Candidate.of_labels params hnet (if distinct x then topo () else shared) (label labels))
    labellings
  @ [ Candidate.electrical params hnet shared ]

let all_optical nodes = Array.init nodes (fun v -> v > 0)

(* Candidate sets of 2 to 5 nets on a 4 x 4 die: each net a random tree
   over 2 to 6 terminals, labelled 1 to 4 random ways (any labelling of
   terminal-only trees is consistent), some labellings repeated and some
   on an equal but distinct topology. *)
let random_cands rng =
  Array.init
    (2 + Prng.int rng 4)
    (fun id ->
      let nodes = 2 + Prng.int rng 5 in
      let pins = Array.init nodes (fun _ -> p (Prng.float rng 4.0) (Prng.float rng 4.0)) in
      let edges = List.init (nodes - 1) (fun v -> (Prng.int rng (v + 1), v + 1)) in
      let labelling () = Array.init nodes (fun v -> v > 0 && Prng.int rng 3 > 0) in
      let labellings = List.init (1 + Prng.int rng 4) (fun _ -> labelling ()) in
      let labellings =
        if Prng.int rng 2 = 0 then labellings @ [ List.hd labellings ] else labellings
      in
      tree_net ~id ~distinct:(fun x -> x mod 3 = 2) pins [||] edges labellings)

let prop_packed_equals_direct =
  QCheck.Test.make ~name:"packed = direct on random candidate sets (jobs 1/4)" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let cands = random_cands (Prng.create seed) in
      List.for_all
        (fun jobs ->
          let ctx = Selection.make_ctx ~exec:(Executor.create ~jobs) params cands in
          agrees_with_direct ctx.Selection.xmat ctx (Prng.create seed)
          && check_rows ctx.Selection.xmat ctx)
        [ 1; 4 ])

(* A two-terminal net from [a] to [b] through [steiner], one chain: its
   optical candidate has one path over every edge. *)
let chain_net ~id a b steiner =
  let k = Array.length steiner in
  let edges =
    List.init (k + 1) (fun e -> ((if e = 0 then 0 else e + 1), if e = k then 1 else e + 2))
  in
  tree_net ~id [| a; b |] steiner edges [ all_optical (k + 2) ]

(* A chain zigzagging across y = [y] from x = [x] on, [crossings] times. *)
let zigzag ~id ~x ~y crossings =
  let at e = p (x +. (0.01 *. float_of_int e)) (if e mod 2 = 0 then y -. 1.0 else y +. 1.0) in
  chain_net ~id (at 0) (at crossings) (Array.init (crossings - 1) (fun e -> at (e + 1)))

let horizontal ~id ~y x0 x1 = simple_cands id (p x0 y) (p x1 y)

(* [copies] identical candidates of a star with [spokes] optical paths
   from (x, 0) up to y = 2, and [bars] optical horizontals at y = 1 (plus
   the all-electrical one), bar [n] across the first [spokes - 7n]
   spokes: every entry of the star's row is non-zero, with one count per
   spoke, 1 up to the bar's reach and 0 beyond, so the largest header
   value is [(copies * bars - 1) * spokes + 1] and no two bars' entries
   read alike. *)
let star_and_bars ~id ~x ~spokes ~copies ~bars =
  let at s = x +. (0.01 *. float_of_int (s + 1)) in
  let tips = Array.init spokes (fun s -> p (at s) 2.0) in
  let star =
    tree_net ~id (Array.append [| p x 0.0 |] tips) [||]
      (List.init spokes (fun s -> (0, s + 1)))
      (List.init copies (fun _ -> all_optical (spokes + 1)))
  in
  let bar n =
    (* spoke s meets y = 1 at x = (x + at s) / 2 *)
    let reach = spokes - (7 * n) in
    List.hd (horizontal ~id:(id + 1) ~y:1.0 (x -. 1.0) ((x +. at reach) /. 2.0 -. 0.0025))
  in
  (star, List.init bars bar @ [ List.nth (horizontal ~id:(id + 1) ~y:1.0 0.0 1.0) 1 ])

let geometry_counts (ctx : Selection.ctx) ~i ~j ~m ~n =
  Array.map
    (fun (path : Candidate.path) ->
      Segment.count_crossings path.Candidate.segments
        ctx.Selection.cands.(m).(n).Candidate.opt_segments)
    ctx.Selection.cands.(i).(j).Candidate.paths

(* Values wider than one and two bytes: a path crossing a segment 300
   times (counts need two bytes on both sides of the pair), and a row of
   67,200 counts, whose largest header value needs four bytes. Before
   that row, the star's rows against two short ticks across its first
   spokes need two-byte header values, so the star's block widens twice,
   the second time with two rows already written. *)
let test_wide_values () =
  let zig = [ zigzag ~id:0 ~x:0.0 ~y:0.0 300; horizontal ~id:1 ~y:0.0 (-1.0) 4.0 ] in
  let star, bars = star_and_bars ~id:5 ~x:20.0 ~spokes:400 ~copies:14 ~bars:12 in
  let ticks = [ horizontal ~id:3 ~y:1.5 19.9 20.02; horizontal ~id:4 ~y:1.7 19.9 20.02 ] in
  let ctx = Selection.make_ctx params (Array.of_list (zig @ [ star ] @ ticks @ [ bars ])) in
  let xmat = ctx.Selection.xmat in
  Alcotest.(check (array int)) "star's neighbours" [| 3; 4; 5 |] ctx.Selection.neighbors.(2);
  Alcotest.(check (array int)) "300 crossings on one path" [| 300 |]
    (Xmatrix.slot_counts xmat ~i:0 ~k:0 ~j:0 ~m:1 ~n:0);
  Alcotest.(check (array int)) "and 300 on the other side" [| 300 |]
    (Xmatrix.slot_counts xmat ~i:1 ~k:0 ~j:0 ~m:0 ~n:0);
  let last = Xmatrix.slot_counts xmat ~i:2 ~k:2 ~j:13 ~m:5 ~n:11 in
  Alcotest.(check int) "last entry of the wide row: bar 11's reach" (400 - 77)
    (Array.fold_left ( + ) 0 last);
  Alcotest.(check (array int)) "last entry of the wide row"
    (geometry_counts ctx ~i:2 ~j:13 ~m:5 ~n:11) last;
  Alcotest.(check int) "entries" (2 + (2 * 14 * 12) + (2 * 2 * 14))
    (Xmatrix.stats xmat).Xmatrix.entries;
  Alcotest.(check bool) "rows match geometry" true (check_rows xmat ctx);
  Alcotest.(check bool) "readers agree with direct" true
    (agrees_with_direct xmat ctx (Prng.create 1))

(* ECO reuse of rows whose nets' blocks change width. Net 0 fans three
   near-horizontal paths out of (-1, 0), as four identical candidates;
   net 1's three vertical bars reach one, two and all three of them.
   Net 2, 25 copies of a chain zigzagging 300 times across the fan, is
   present in one build and absent from the other: with it, net 0's
   largest count is 300 and its largest header value 298, so its block
   widens from one byte to two for both, and the kept rows (0, 1) and
   (1, 0) are re-encoded, in both directions. *)
let test_reuse_changes_width () =
  let tip s = p 4.0 ((0.1 *. float_of_int s) +. 0.05) in
  let fan =
    tree_net ~id:0
      (Array.append [| p (-1.0) 0.0 |] (Array.init 3 tip))
      [||] [ (0, 1); (0, 2); (0, 3) ]
      (List.init 4 (fun _ -> all_optical 4))
  in
  let bar top = simple_cands 1 (p 3.5 (-2.0)) (p 3.5 top) in
  let bars =
    List.init 3 (fun n -> List.hd (bar ((0.09 *. float_of_int n) +. 0.09)))
    @ [ List.nth (bar 2.0) 1 ]
  in
  let zig =
    match zigzag ~id:2 ~x:0.0 ~y:0.0 300 with
    | optical :: rest -> List.init 25 (fun _ -> optical) @ rest
    | [] -> []
  in
  let narrow = [| fan; bars |] and wide = [| fan; bars; zig |] in
  List.iter
    (fun (prev, next) ->
      let prev_xmat = (Selection.make_ctx params prev).Selection.xmat in
      let ctx = Selection.make_ctx ~cache:false params next in
      let build ?reuse () = Xmatrix.build ?reuse ctx.Selection.cands ctx.Selection.neighbors in
      let xmat = build ~reuse:(prev_xmat, fun i m -> i < 2 && m < 2) () in
      let ctx = { ctx with Selection.xmat } in
      Alcotest.(check int) "kept pair's rows reused" 2 (Xmatrix.reused_rows xmat);
      let reach = Xmatrix.slot_counts xmat ~i:0 ~k:0 ~j:3 ~m:1 ~n:1 in
      Alcotest.(check int) "bar 1 reaches two fan paths" 2 (Array.fold_left ( + ) 0 reach);
      Alcotest.(check (array int)) "and its counts" (geometry_counts ctx ~i:0 ~j:3 ~m:1 ~n:1) reach;
      Alcotest.(check bool) "rows match geometry" true (check_rows xmat ctx);
      Alcotest.(check bool) "readers agree with direct" true
        (agrees_with_direct xmat ctx (Prng.create 2));
      Alcotest.(check int) "entries as a cold build"
        (Xmatrix.stats (build ())).Xmatrix.entries (Xmatrix.stats xmat).Xmatrix.entries)
    [ (narrow, wide); (wide, narrow) ]

(* Reads decode in place: a sweep of every table entry through both
   loss readers allocates nothing. *)
let test_reads_allocate_nothing () =
  let _, ctx = Flow.prepare_with (Flow.Config.default params) (Cases.small ~seed:3 ()) in
  let xmat = ctx.Selection.xmat and bundled = ctx.Selection.bundled in
  let acc = Array.make 64 0.0 and w = Array.make 64 0.5 in
  let sweep () =
    for i = 0 to Array.length ctx.Selection.neighbors - 1 do
      let ms = ctx.Selection.neighbors.(i) in
      for k = 0 to Array.length ms - 1 do
        let m = ms.(k) in
        for n = 0 to Array.length ctx.Selection.cands.(m) - 1 do
          Xmatrix.add_weighted_row xmat bundled ~i ~k ~m ~n w acc;
          for j = 0 to Array.length ctx.Selection.cands.(i) - 1 do
            Xmatrix.add_losses xmat bundled ~i ~k ~j ~m ~n acc 0
          done
        done
      done
    done
  in
  sweep ();
  let before = Gc.minor_words () in
  sweep ();
  Alcotest.(check (float 0.0)) "minor words" 0.0 (Gc.minor_words () -. before)

(* The neighbour rows [Selection.make_ctx] builds from each net's
   distinct optical edges, against the rule they replaced: pool every
   candidate's [opt_segments] and link two nets whose optical boxes meet
   when some pooled pair crosses, by [Segment.exists_crossing] over all
   pairs. Rows are ascending. *)
let pooled_neighbor_rows (cands : Candidate.t array array) =
  let pooled =
    Array.map
      (fun arr ->
        Array.concat
          (List.map (fun (c : Candidate.t) -> c.Candidate.opt_segments) (Array.to_list arr)))
      cands
  in
  let bbox segs =
    if Array.length segs = 0 then None
    else
      Some
        (Rect.of_points
           (Array.concat
              (List.map (fun (s : Segment.t) -> [| s.Segment.a; s.Segment.b |])
                 (Array.to_list segs))))
  in
  let boxes = Array.map bbox pooled in
  let n = Array.length cands in
  let linked i j =
    match (boxes.(i), boxes.(j)) with
    | Some bi, Some bj ->
        Rect.overlaps bi bj && Segment.exists_crossing pooled.(i) pooled.(j)
    | _ -> false
  in
  Array.init n (fun i ->
      Array.of_list (List.filter (fun j -> j <> i && linked i j) (List.init n Fun.id)))

let prop_neighbor_rows_match_pooled_rule =
  QCheck.Test.make ~name:"neighbour rows = pooled opt_segments rule" ~count:10
    QCheck.(int_range 1 10000)
    (fun seed ->
      let design_cands design =
        let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
        Array.map Array.to_list ctx.Selection.cands
      in
      List.for_all
        (fun cand_lists ->
          let ctx = Selection.make_ctx ~cache:false params cand_lists in
          ctx.Selection.neighbors = pooled_neighbor_rows ctx.Selection.cands)
        [ design_cands (Cases.tiny ~seed ());
          design_cands (Cases.small ~seed ());
          shared_topology_cands ();
          crossing_pair () ])

(* Parallel build (jobs=4) produces exactly the sequential matrix. *)
let test_parallel_build_deterministic () =
  let design = Cases.small ~seed:7 () in
  let cfg = Flow.Config.default params in
  let _, seq_ctx = Flow.prepare_with cfg design in
  let _, par_ctx = Flow.prepare_with (Flow.Config.with_jobs 4 cfg) design in
  let choice = Selection.greedy seq_ctx in
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "net %d losses identical" i)
        true
        (Selection.net_path_losses seq_ctx choice i
        = Selection.net_path_losses par_ctx choice i))
    seq_ctx.Selection.cands;
  Alcotest.(check (float 0.0)) "worst_violation identical"
    (Selection.worst_violation seq_ctx choice)
    (Selection.worst_violation par_ctx choice)

(* ------------------------------------------------------------------ *)
(* Cached vs uncached parity on random designs                        *)
(* ------------------------------------------------------------------ *)

let check_losses_parity name ctx ctx_u choice =
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: net %d losses bit-identical" name i)
        true
        (Selection.net_path_losses ctx choice i
        = Selection.net_path_losses ctx_u choice i))
    ctx.Selection.cands;
  Alcotest.(check (float 0.0))
    (name ^ ": worst_violation bit-identical")
    (Selection.worst_violation ctx_u choice)
    (Selection.worst_violation ctx choice)

let check_design_parity ~ilp name design =
  let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let ctx_u = Selection.uncached ctx in
  Alcotest.(check bool) (name ^ ": rows match geometry") true
    (check_rows ctx.Selection.xmat ctx);
  List.iter
    (fun (cname, choice) -> check_losses_parity (name ^ "/" ^ cname) ctx ctx_u choice)
    [ ("greedy", Selection.greedy ctx);
      ("electrical", Selection.all_electrical ctx);
      ("polished", Selection.polish ctx (Selection.greedy ctx)) ];
  let lr = Lr_select.select ctx and lr_u = Lr_select.select ctx_u in
  Alcotest.(check (array int))
    (name ^ ": LR choice identical") lr_u.Lr_select.choice lr.Lr_select.choice;
  Alcotest.(check (float 0.0))
    (name ^ ": LR power identical") lr_u.Lr_select.power lr.Lr_select.power;
  if ilp then begin
    let r = Ilp_select.select ~budget_seconds:20.0 ctx in
    let r_u = Ilp_select.select ~budget_seconds:20.0 ctx_u in
    Alcotest.(check (array int))
      (name ^ ": ILP choice identical") r_u.Ilp_select.choice r.Ilp_select.choice;
    Alcotest.(check (float 0.0))
      (name ^ ": ILP power identical") r_u.Ilp_select.power r.Ilp_select.power
  end

let prop_random_design_parity =
  QCheck.Test.make ~name:"cached = uncached on random tiny designs" ~count:8
    QCheck.(int_range 1 10000)
    (fun seed ->
      check_design_parity ~ilp:true
        (Printf.sprintf "tiny/%d" seed)
        (Cases.tiny ~seed ());
      true)

(* The contiguous rows on random tiny designs, built by one and by four
   workers, with their direct counterparts; and the table an ECO
   preparation of a random small design builds by carrying rows over
   from the previous one (at a 10% change most rows are carried). *)
let prop_contiguous_rows =
  QCheck.Test.make ~name:"contiguous rows = geometry (jobs 1/4, direct, eco)" ~count:6
    QCheck.(int_range 1 10000)
    (fun seed ->
      let small = Cases.small ~seed () in
      List.for_all
        (fun jobs ->
          let cfg = Flow.Config.with_jobs jobs (Flow.Config.default params) in
          let tiny = Flow.prepare cfg (Cases.tiny ~seed ()) in
          let prev = Flow.prepare cfg small in
          let eco = Flow.prepare_eco ~prev cfg (Mutate.design ~ratio:0.1 ~seed small) in
          List.for_all
            (fun (ctx : Selection.ctx) ->
              Xmatrix.enabled ctx.Selection.xmat
              && check_rows ctx.Selection.xmat ctx
              && check_rows (Selection.uncached ctx).Selection.xmat ctx)
            [ tiny.Flow.p_ctx; eco.Flow.p_ctx ])
        [ 1; 4 ])

let test_small_design_parity () =
  check_design_parity ~ilp:false "small" (Cases.small ~seed:3 ())

(* Full-flow identity: cache on vs off, sequential vs jobs=4, LR and
   ILP — the acceptance criterion of the PR. *)
let test_flow_cache_identity () =
  let design = Cases.tiny ~seed:5 () in
  List.iter
    (fun mode ->
      let result jobs cache =
        Flow.synthesize
          (Flow.Config.make ~mode ~ilp_budget:20.0 ~jobs ~cache params)
          design
      in
      let reference = result 1 true in
      List.iter
        (fun (jobs, cache) ->
          let r = result jobs cache in
          let tag =
            Printf.sprintf "%s jobs=%d cache=%b"
              (match mode with Flow.Lr -> "lr" | Flow.Ilp -> "ilp")
              jobs cache
          in
          Alcotest.(check (array int)) (tag ^ ": choice") reference.Flow.choice
            r.Flow.choice;
          Alcotest.(check (float 0.0)) (tag ^ ": power") reference.Flow.power
            r.Flow.power)
        [ (1, false); (4, true); (4, false) ];
      Alcotest.(check bool)
        "cache stats enabled on default path" true
        reference.Flow.cache.Xmatrix.enabled)
    [ Flow.Lr; Flow.Ilp ]

(* ------------------------------------------------------------------ *)
(* Incremental evaluation                                             *)
(* ------------------------------------------------------------------ *)

(* After any flip sequence, the Eval agrees bit-for-bit with a full
   recompute of its current assignment. *)
let check_eval_matches_full ctx ev =
  let choice = Selection.Eval.choice ev in
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "eval losses of net %d" i)
        true
        (Selection.Eval.losses ev i = Selection.net_path_losses ctx choice i))
    ctx.Selection.cands;
  Alcotest.(check (float 0.0)) "eval worst_violation"
    (Selection.worst_violation ctx choice)
    (Selection.Eval.worst_violation ev);
  Alcotest.(check (float 0.0)) "eval power"
    (Selection.power ctx choice)
    (Selection.Eval.power ev)

let test_eval_incremental_equivalence () =
  let design = Cases.small ~seed:11 () in
  let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let ev = Selection.Eval.create ctx (Selection.greedy ctx) in
  check_eval_matches_full ctx ev;
  (* Walk every net through its fallback and back, checking equivalence
     after each flip. *)
  let n = Array.length ctx.Selection.cands in
  let rng = Prng.create 99 in
  for _ = 1 to 3 * n do
    let i = Prng.int rng n in
    let j = Prng.int rng (Array.length ctx.Selection.cands.(i)) in
    Selection.Eval.set ev i j;
    Alcotest.(check int) "get reflects set" j (Selection.Eval.get ev i)
  done;
  check_eval_matches_full ctx ev

let test_eval_recompute_locality () =
  let design = Cases.small ~seed:11 () in
  let _, ctx = Flow.prepare_with (Flow.Config.default params) design in
  let n = Array.length ctx.Selection.cands in
  let ev = Selection.Eval.create ctx (Selection.greedy ctx) in
  ignore (Selection.Eval.worst_violation ev);
  let full = Selection.Eval.recomputes ev in
  Alcotest.(check int) "first evaluation touches every net" n full;
  (* Find a net with at least one neighbour and flip it: only the net
     and its neighbourhood may be re-derived. *)
  let i =
    let best = ref 0 in
    Array.iteri
      (fun k ms ->
        if Array.length ms > Array.length ctx.Selection.neighbors.(!best) then
          best := k)
      ctx.Selection.neighbors;
    !best
  in
  Selection.Eval.set ev i ctx.Selection.elec_idx.(i);
  ignore (Selection.Eval.worst_violation ev);
  let delta = Selection.Eval.recomputes ev - full in
  let bound = 1 + Array.length ctx.Selection.neighbors.(i) in
  Alcotest.(check bool)
    (Printf.sprintf "flip re-derives <= %d nets (got %d)" bound delta)
    true (delta <= bound)

(* ------------------------------------------------------------------ *)
(* Prepare-phase pin                                                  *)
(* ------------------------------------------------------------------ *)

(* The three crossing layers of the prepare phase (the co-design
   estimates, the selection neighbour test and the Xmatrix build) pinned
   on fixed designs: the co-design candidate counts, an FNV-1a hash of
   every net's crossing-count table, of the neighbour rows and of every
   matrix entry read through [slot_counts], and the matrix size. The
   literals were recorded before the layers were last rewritten; any
   change to them is a change in what the layers compute. The designs
   are the small fixtures and the Table 1 specs at a third of their
   signal groups. *)

let fnv h x = Int64.mul (Int64.logxor h (Int64.of_int x)) 0x100000001b3L

let fnv_ints h a = Array.fold_left fnv (fnv h (Array.length a)) a

let fnv_offset = 0xcbf29ce484222325L

type pin = {
  raw : int;
  kept : int;
  xcounts : int64;
  neighbor_rows : int64;
  pairs : int;
  entries : int;
  slots : int64;
}

let pin_of_prepare jobs design =
  let sink = Instrument.create () in
  let cfg = Flow.Config.with_jobs jobs (Flow.Config.default params) in
  let p = Flow.prepare ~sink cfg design in
  let ctx = p.Flow.p_ctx in
  let xmat = ctx.Selection.xmat in
  let slots = ref fnv_offset in
  Array.iteri
    (fun i ms ->
      Array.iteri
        (fun k m ->
          for j = 0 to Array.length ctx.Selection.cands.(i) - 1 do
            for n = 0 to Array.length ctx.Selection.cands.(m) - 1 do
              slots := fnv_ints !slots (Xmatrix.slot_counts xmat ~i ~k ~j ~m ~n)
            done
          done)
        ms)
    ctx.Selection.neighbors;
  let s = Xmatrix.stats xmat in
  { raw = Instrument.counter sink Instrument.Codesign "raw";
    kept = Instrument.counter sink Instrument.Codesign "kept";
    xcounts =
      Array.fold_left
        (fun h tables -> Array.fold_left fnv_ints (fnv h (Array.length tables)) tables)
        fnv_offset p.Flow.p_xcounts;
    neighbor_rows = Array.fold_left fnv_ints fnv_offset ctx.Selection.neighbors;
    pairs = s.Xmatrix.pairs;
    entries = s.Xmatrix.entries;
    slots = !slots }

let show_pin q =
  Printf.sprintf
    "{ raw = %d; kept = %d; xcounts = 0x%LxL; neighbor_rows = 0x%LxL; pairs = %d; entries = %d; slots = 0x%LxL }"
    q.raw q.kept q.xcounts q.neighbor_rows q.pairs q.entries q.slots

let third (spec : Gen.spec) =
  Gen.generate { spec with Gen.n_groups = Stdlib.max 1 (spec.Gen.n_groups / 3) }

let pinned =
  [ ("tiny", (fun () -> Cases.tiny ()),
      { raw = 34;
        kept = 31;
        xcounts = 0x7d29a5ebe4bdf87bL;
        neighbor_rows = 0x2ea4fe5d33d95c89L;
        pairs = 6;
        entries = 126;
        slots = 0x7cc82153366eaa54L });
    ("small", (fun () -> Cases.small ()),
      { raw = 126;
        kept = 104;
        xcounts = 0xffbbfc8537c8e6c2L;
        neighbor_rows = 0x1b61651ee11f5b5bL;
        pairs = 40;
        entries = 1558;
        slots = 0x7936b4e2f3a9bb29L });
    ("split", (fun () -> Cases.split ()),
      { raw = 192;
        kept = 170;
        xcounts = 0xd0c4e8d32f2b3144L;
        neighbor_rows = 0xa3e95bba382c7553L;
        pairs = 210;
        entries = 2192;
        slots = 0xdbd3edad83b7bfe6L });
    ("I1/3", (fun () -> third Cases.i1),
      { raw = 1567;
        kept = 977;
        xcounts = 0xdbd701f90d071088L;
        neighbor_rows = 0xbc4ca21af16751abL;
        pairs = 4510;
        entries = 235304;
        slots = 0x6090fa876cf31578L });
    ("I2/3", (fun () -> third Cases.i2),
      { raw = 1605;
        kept = 1326;
        xcounts = 0x86bedbf26cb84f8fL;
        neighbor_rows = 0xe20b207ac7ab8f4L;
        pairs = 35764;
        entries = 440170;
        slots = 0x8466f185c993398L });
    ("I4/3", (fun () -> third Cases.i4),
      { raw = 1916;
        kept = 1191;
        xcounts = 0x259e117fb9a5666dL;
        neighbor_rows = 0x26a08b3d5406287bL;
        pairs = 5346;
        entries = 307538;
        slots = 0x15576803e0871ad8L });
    ("I5/3", (fun () -> third Cases.i5),
      { raw = 1605;
        kept = 1294;
        xcounts = 0xf45704786f6b3b9L;
        neighbor_rows = 0x7ed852e00be48164L;
        pairs = 27488;
        entries = 301196;
        slots = 0x208e66edbb8b1176L }) ]

let test_prepare_pin () =
  List.iter
    (fun (name, design, want) ->
      let design = design () in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s jobs=%d" name jobs)
            (show_pin want) (show_pin (pin_of_prepare jobs design)))
        [ 1; 4 ])
    pinned

let () =
  Alcotest.run "xmatrix"
    [ ( "unit",
        [ Alcotest.test_case "counts match geometry" `Quick
            test_counts_match_geometry;
          Alcotest.test_case "losses match candidate formula" `Quick
            test_loss_matches_candidate_formula;
          Alcotest.test_case "counters and modes" `Quick test_counters_and_modes;
          Alcotest.test_case "parallel build deterministic" `Quick
            test_parallel_build_deterministic;
          Alcotest.test_case "shared-topology tables (jobs 1/4)" `Quick
            test_shared_topology_parity;
          QCheck_alcotest.to_alcotest prop_neighbor_rows_match_pooled_rule ] );
      ( "packed",
        [ QCheck_alcotest.to_alcotest prop_packed_equals_direct;
          Alcotest.test_case "counts and offsets wider than 1 and 2 bytes" `Quick
            test_wide_values;
          Alcotest.test_case "eco reuse across a width change" `Quick
            test_reuse_changes_width;
          Alcotest.test_case "reads allocate nothing" `Quick test_reads_allocate_nothing ] );
      ( "parity",
        [ QCheck_alcotest.to_alcotest prop_random_design_parity;
          QCheck_alcotest.to_alcotest prop_contiguous_rows;
          Alcotest.test_case "small design" `Slow test_small_design_parity;
          Alcotest.test_case "flow cache identity (jobs 1/4)" `Quick
            test_flow_cache_identity ] );
      ( "incremental",
        [ Alcotest.test_case "eval = full recompute" `Quick
            test_eval_incremental_equivalence;
          Alcotest.test_case "eval recompute locality" `Quick
            test_eval_recompute_locality ] );
      ("pin", [ Alcotest.test_case "prepare phase (jobs 1/4)" `Quick test_prepare_pin ]) ]
