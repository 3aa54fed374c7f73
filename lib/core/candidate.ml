open Operon_geom
open Operon_optical
open Operon_steiner

type label = Optical | Electrical

type path = {
  start_node : int;
  sink_node : int;
  intrinsic_loss : float;
  segments : Segment.t array;
}

type t = {
  hnet : Hypernet.t;
  topo : Topology.t;
  labels : label array;
  conversion_power : float;
  wiring_power : float;
  power : float;
  n_mod : int;
  n_det : int;
  mod_nodes : int array;
  det_nodes : int array;
  elec_wirelength : float;
  opt_wirelength : float;
  opt_segments : Segment.t array;
  elec_segments : Segment.t array;
  paths : path array;
  max_intrinsic_loss : float;
  pure_electrical : bool;
}

(* Structural facts about one node under a labelling. *)
type node_role = {
  incoming_optical : bool;  (* parent edge labelled O (false at the root) *)
  o_children : int list;
  e_children : int list;
  has_modulator : bool;
  has_detector : bool;
  arms : int;  (* splitting arms where this node distributes light *)
}

let role topo labels v =
  let incoming_optical = Topology.parent topo v >= 0 && labels.(v) = Optical in
  let o_children, e_children =
    List.partition (fun c -> labels.(c) = Optical) (Topology.children topo v)
  in
  let n_o = List.length o_children in
  let is_term = Topology.is_terminal topo v in
  if incoming_optical then begin
    (* Light arrives from above: it is detected here (terminal or handover
       to electrical children) and/or relayed into optical children. *)
    let tap = is_term || e_children <> [] in
    let arms = n_o + if tap then 1 else 0 in
    if arms = 0 then
      invalid_arg "Candidate: optical edge delivers light nowhere";
    { incoming_optical;
      o_children;
      e_children;
      has_modulator = false;
      has_detector = tap;
      arms }
  end
  else begin
    (* Electrically fed (or the root driver): optical children need a
       modulator here. *)
    let arms = n_o in
    { incoming_optical;
      o_children;
      e_children;
      has_modulator = n_o > 0;
      has_detector = false;
      arms }
  end

let of_labels params hnet topo labels =
  let n = Topology.node_count topo in
  if Array.length labels <> n then invalid_arg "Candidate.of_labels: label count";
  let labels = Array.copy labels in
  labels.(Topology.root topo) <- Electrical;
  let roles = Array.init n (role topo labels) in
  let mod_nodes = ref [] and det_nodes = ref [] in
  Array.iteri
    (fun v r ->
      if r.has_modulator then mod_nodes := v :: !mod_nodes;
      if r.has_detector then det_nodes := v :: !det_nodes)
    roles;
  let mod_nodes = Array.of_list (List.rev !mod_nodes) in
  let det_nodes = Array.of_list (List.rev !det_nodes) in
  let n_mod = ref (Array.length mod_nodes) and n_det = ref (Array.length det_nodes) in
  let elec_wl = ref 0.0 and opt_wl = ref 0.0 in
  let opt_segs = ref [] and elec_segs = ref [] in
  for v = 0 to n - 1 do
    if Topology.parent topo v >= 0 then begin
      let seg = Topology.segment_of_edge topo v in
      match labels.(v) with
      | Optical ->
          opt_wl := !opt_wl +. Topology.edge_length Topology.L2 topo v;
          opt_segs := seg :: !opt_segs
      | Electrical ->
          elec_wl := !elec_wl +. Topology.edge_length Topology.L1 topo v;
          elec_segs := seg :: !elec_segs
    end
  done;
  (* Optical paths: descend from every modulator node through contiguous
     optical edges, accumulating propagation and splitting; emit a path at
     every detector reached. *)
  let paths = ref [] in
  let rec descend ~start ~loss ~segs v =
    let r = roles.(v) in
    let loss = loss +. Loss.splitting_arm params r.arms in
    if r.has_detector then
      paths :=
        { start_node = start;
          sink_node = v;
          intrinsic_loss = loss;
          segments = Array.of_list (List.rev segs) }
        :: !paths;
    List.iter
      (fun c ->
        let seg = Topology.segment_of_edge topo c in
        let hop = Loss.propagation params (Topology.edge_length Topology.L2 topo c) in
        descend ~start ~loss:(loss +. hop) ~segs:(seg :: segs) c)
      r.o_children
  in
  Array.iteri
    (fun v r -> if r.has_modulator then descend ~start:v ~loss:0.0 ~segs:[] v)
    roles;
  let paths = Array.of_list (List.rev !paths) in
  let max_intrinsic =
    Array.fold_left (fun acc p -> Float.max acc p.intrinsic_loss) 0.0 paths
  in
  let conversion_power = Power.optical params ~n_mod:!n_mod ~n_det:!n_det in
  let wiring_power =
    Power.wiring params ~bits:hnet.Hypernet.bits ~wirelength:!elec_wl
  in
  { hnet;
    topo;
    labels;
    conversion_power;
    wiring_power;
    power = conversion_power +. wiring_power;
    n_mod = !n_mod;
    n_det = !n_det;
    mod_nodes;
    det_nodes;
    elec_wirelength = !elec_wl;
    opt_wirelength = !opt_wl;
    opt_segments = Array.of_list !opt_segs;
    elec_segments = Array.of_list !elec_segs;
    paths;
    max_intrinsic_loss = max_intrinsic;
    pure_electrical = !n_mod = 0 && !n_det = 0 }

let electrical params hnet topo =
  of_labels params hnet topo
    (Array.make (Topology.node_count topo) Electrical)

let crossing_loss_on_path params c p other =
  if p < 0 || p >= Array.length c.paths then
    invalid_arg "Candidate.crossing_loss_on_path: bad path index";
  let crossings =
    Segment.count_crossings c.paths.(p).segments other.opt_segments
  in
  Loss.crossing_bundled params crossings

let loss_feasible params c =
  Array.for_all (fun p -> Loss.detectable params p.intrinsic_loss) c.paths

let describe c =
  let label_string =
    String.concat ""
      (List.map
         (fun (_, v) -> match c.labels.(v) with Optical -> "O" | Electrical -> "E")
         (List.sort compare (Topology.edges c.topo)))
  in
  Printf.sprintf
    "cand(hnet=%d bits=%d labels=%s mod=%d det=%d powr=%.3f loss=%.2fdB%s)"
    c.hnet.Hypernet.id c.hnet.Hypernet.bits label_string c.n_mod c.n_det c.power
    c.max_intrinsic_loss
    (if c.pure_electrical then " pureE" else "")
