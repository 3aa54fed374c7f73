(* Per-layer metrics, aggregated from the spans of a traced pass. Every
   metric exists on every workload: a layer a workload does not run
   reports a zero count, and the timed layers are the ones all four
   workloads run. Pool spans (a fan-out's wait for its tasks) and
   anything not named here are left out. *)

type source =
  | Time of string list  (** summed self seconds of spans with these names *)
  | Alloc of string list  (** summed self allocation, millions of words *)
  | Count of string * string  (** a counter summed over spans of one name *)

(* Selection engine work: LR or ILP runs (one per region when
   partitioned), the region plan and the corridor stitch. *)
let select_spans = [ "select"; "partition.plan"; "partition.stitch" ]

let table =
  [ ("processing.s", "s", Time [ "processing" ]);
    ("processing.hnets", "count", Count ("processing", "hnets"));
    ("processing.hpins", "count", Count ("processing", "hpins"));
    ("baselines.s", "s", Time [ "baselines" ]);
    ("baselines.segments", "count", Count ("baselines", "segments"));
    ("crossing.s", "s", Time [ "crossing" ]);
    ("crossing.queries", "count", Count ("crossing", "queries"));
    ("crossing.alloc_mw", "Mw", Alloc [ "crossing" ]);
    ("codesign.s", "s", Time [ "codesign" ]);
    ("codesign.raw", "count", Count ("codesign", "raw"));
    ("codesign.kept", "count", Count ("codesign", "kept"));
    ("selection.ctx_s", "s", Time [ "selection" ]);
    ("selection.neighbor_pairs", "count", Count ("selection", "neighbor_pairs"));
    ("selection.alloc_mw", "Mw", Alloc [ "selection" ]);
    ("xmatrix.s", "s", Time [ "xmatrix" ]);
    ("xmatrix.pairs", "count", Count ("xmatrix", "pairs"));
    ("xmatrix.entries", "count", Count ("xmatrix", "entries"));
    ("xmatrix.hits", "count", Count ("select", "xmatrix_hits"));
    ("xmatrix.alloc_mw", "Mw", Alloc [ "xmatrix" ]);
    ("select.s", "s", Time select_spans);
    ("select.alloc_mw", "Mw", Alloc select_spans);
    ("lr.iterations", "count", Count ("select", "iterations"));
    ("lr.demoted", "count", Count ("select", "demoted"));
    ("ilp.components", "count", Count ("select", "components"));
    ("ilp.timed_out", "count", Count ("select", "timed_out"));
    ("ilp.nodes", "count", Count ("select", "nodes"));
    ("ilp.lp_solves", "count", Count ("select", "lp_solves"));
    ("ilp.pivots", "count", Count ("select", "pivots"));
    ("ilp.refactorizations", "count", Count ("select", "refactorizations"));
    ("partition.regions", "count", Count ("partition.plan", "regions"));
    ("partition.cut_pairs", "count", Count ("partition.plan", "cut_pairs"));
    ("partition.corridor_nets", "count", Count ("partition.plan", "corridor_nets"));
    ("partition.stitch_changed", "count", Count ("partition.stitch", "stitch_changed"));
    ("wdm.s", "s", Time [ "wdm"; "wdm.place" ]);
    ("wdm.connections", "count", Count ("wdm", "connections"));
    ("wdm.tracks_placed", "count", Count ("wdm", "tracks_placed"));
    ("assign.s", "s", Time [ "assign" ]);
    ("assign.retire_s", "s", Time [ "assign.retire" ]);
    ("assign.tracks_final", "count", Count ("assign", "tracks_final"));
    ("assign.alloc_mw", "Mw", Alloc [ "assign" ]);
    ("signoff.s", "s", Time [ "signoff" ]);
    ("signoff.paths", "count", Count ("signoff", "paths"));
    ("check.s", "s", Time [ "check" ]) ]

(* The traced pass's own cost relative to the untraced op; computed by
   the runner, not from spans. *)
let overhead = ("trace.overhead_frac", "frac")

let is_count = function Count _ -> true | Time _ | Alloc _ -> false

(* Metric values of one traced pass, in table order. *)
let of_spans spans =
  let secs = Hashtbl.create 32 and words = Hashtbl.create 32 in
  let counts = Hashtbl.create 64 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (Span.iter (fun s ->
         let dt, dw = Span.self s in
         add secs s.Span.name dt;
         add words s.Span.name dw;
         List.iter
           (fun (k, v) -> add counts (s.Span.name, k) (float_of_int v))
           s.Span.counters))
    spans;
  let total tbl names =
    List.fold_left
      (fun acc n -> acc +. Option.value ~default:0.0 (Hashtbl.find_opt tbl n))
      0.0 names
  in
  List.map
    (fun (name, _, src) ->
      ( name,
        match src with
        | Time names -> total secs names
        | Alloc names -> total words names /. 1e6
        | Count (span, key) ->
            Option.value ~default:0.0 (Hashtbl.find_opt counts (span, key)) ))
    table
