(** Signal processing: from raw signal groups to hyper nets (Section 3.1).

    Two clustering passes run per group:
    - {e top-down}: capacity-constrained K-Means over the bits (keyed by
      each bit's pin centroid) splits groups that exceed the WDM channel
      capacity;
    - {e bottom-up}: agglomerative merging of the cluster's electrical pins
      under a distance threshold builds the hyper pins.

    The root hyper pin is the one holding the most bit drivers. *)

open Operon_util
open Operon_optical

type config = {
  merge_threshold : float;
      (** hyper-pin merge distance, cm (default 0.05 = 500 um) *)
}

val default_config : config

val run : ?config:config -> Prng.t -> Params.t -> Signal.design -> Hypernet.t array
(** Build the hyper nets of a design. Every produced hyper net respects
    [Params.wdm_capacity]; ids are dense in emission order. *)

val stats : Hypernet.t array -> int * int * int
(** [(net_total, hnet_count, hpin_count)] — the paper's #Net/#HNet/#HPin
    columns for a processed design. *)
