(** Materialized optical-electrical route candidates.

    A candidate is one complete labelling of a baseline topology: every
    tree edge is implemented either as an optical WDM connection or as
    electrical wires (paper Fig. 5c). Materialization derives everything
    the later stages need — EO/OE conversion counts, per-bit power,
    optical-link paths with their intrinsic (propagation + splitting)
    losses, and the segment geometry used for crossing-loss coupling, WDM
    assignment and hotspot maps.

    Conversion semantics: the driver is electrical at the root hyper pin.
    A modulator is placed where an electrical region feeds one or more
    optical child edges; light splits where several optical branches (or a
    detector tap) leave one node; a detector is placed where light reaches
    a terminal hyper pin or must hand over to electrical child edges. *)

open Operon_geom
open Operon_optical
open Operon_steiner

type label = Optical | Electrical

type path = {
  start_node : int;  (** modulator node topping the optical link *)
  sink_node : int;  (** detector node this path reaches *)
  intrinsic_loss : float;
      (** propagation + splitting loss, dB (crossing loss is coupled to
          other nets' selections and added by the ILP/LR stages) *)
  segments : Segment.t array;  (** optical edges from start to sink *)
}

type t = {
  hnet : Hypernet.t;
  topo : Topology.t;
  labels : label array;
      (** [labels.(v)] labels the edge from node [v] to its parent; the
          root entry is meaningless and fixed to [Electrical] *)
  conversion_power : float;
      (** Eq. (1): modulator + detector sites, amortized over the WDM's
          parallel bits *)
  wiring_power : float;  (** Eq. (6): bits x unit energy x L1 wirelength *)
  power : float;  (** [conversion_power + wiring_power] *)
  n_mod : int;  (** modulators per bit *)
  n_det : int;  (** detectors per bit *)
  mod_nodes : int array;  (** topology nodes carrying a modulator *)
  det_nodes : int array;  (** topology nodes carrying a detector *)
  elec_wirelength : float;  (** rectilinear (L1) length of E edges, cm *)
  opt_wirelength : float;  (** Euclidean (L2) length of O edges, cm *)
  opt_segments : Segment.t array;
  elec_segments : Segment.t array;
  paths : path array;  (** one per optical source-to-detector path *)
  max_intrinsic_loss : float;  (** max over [paths] (0 when none) *)
  pure_electrical : bool;  (** no optical edge at all *)
}

val of_labels : Params.t -> Hypernet.t -> Topology.t -> label array -> t
(** Evaluate a labelling. Raises [Invalid_argument] when the labelling is
    inconsistent: an optical edge must deliver its light somewhere (every
    node whose parent edge is optical must be a terminal or have an
    optical or electrical continuation that consumes it — concretely, a
    Steiner node with an optical parent edge and no children at all, which
    cannot occur in pruned topologies). *)

val electrical : Params.t -> Hypernet.t -> Topology.t -> t
(** The all-electrical labelling of a topology — the [a_ie] fallback
    variable of Formula (3), always loss-feasible. *)

val crossing_loss_on_path : Params.t -> t -> int -> t -> float
(** [crossing_loss_on_path params c p other] — the Formula (3c) term
    [l_x(i,j,m,n,p)]: beta times the number of crossings between path [p]
    of candidate [c] and the optical segments of [other]. *)

val loss_feasible : Params.t -> t -> bool
(** Intrinsic losses of all paths within the detection budget. *)

val describe : t -> string
(** One-line summary for logs and the Fig. 5 example output. *)
