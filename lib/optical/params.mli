(** Physical and technology parameters of the optical-electrical platform.

    Values follow the paper's experimental setup: propagation and crossing
    loss from PROTON (Boos et al.), modulator/detector energies from the
    45 nm monolithic photonics link (Sun et al.), WDM capacity 32 from GLOW.
    Parameters the paper leaves implicit (detection budget, electrical
    constants, WDM spacing bounds) use the calibration recorded in
    DESIGN.md Section 6. Distances are centimetres, losses dB, energies
    pJ/bit. *)

type t = {
  alpha : float;  (** propagation loss, dB/cm (paper: 1.5) *)
  beta : float;  (** loss per waveguide crossing, dB (paper: 0.52) *)
  bundle_factor : float;
      (** average hyper nets sharing one physical waveguide at a crossing.
          Crossing loss is a waveguide-level phenomenon, but selection
          reasons about hyper-net geometry; dividing net-level crossing
          counts by this factor recovers the physical count (parallel
          bus traffic between the same block pair rides the same WDM).
          See DESIGN.md Section 6. *)
  splitter_excess : float;  (** excess loss per Y-branch stage, dB *)
  p_mod : float;  (** modulator energy, pJ/bit (paper: 0.511) *)
  p_det : float;  (** detector energy, pJ/bit (paper: 0.374) *)
  l_max : float;  (** detection budget: max source-to-sink loss, dB *)
  wdm_capacity : int;  (** channels per WDM waveguide (paper: 32) *)
  dis_l : float;  (** min spacing between neighbouring WDMs, cm *)
  dis_u : float;  (** max connection-to-WDM assignment distance, cm *)
  gamma : float;  (** electrical switching activity factor *)
  freq : float;  (** system frequency, Hz (for Watt conversions only) *)
  vdd : float;  (** supply voltage, V *)
  cap_per_cm : float;  (** wire capacitance, pF/cm *)
  t_ref : float;
      (** ring calibration temperature, degC — detuning is measured as
          deviation from this point (GLOW's thermal model) *)
  thermal_sens : float;
      (** added loss per waveguide segment per degC of detuning, dB/degC *)
}

val default : t
(** alpha=1.5, beta=0.52, bundle_factor=2.0, splitter_excess=0.1, p_mod=0.511, p_det=0.374,
    l_max=22.0, wdm_capacity=32, dis_l=5e-4, dis_u=0.10, gamma=0.3,
    freq=1e9, vdd=1.0, cap_per_cm=3.0 (the last two calibrated as per
    DESIGN.md Section 6), t_ref=45.0, thermal_sens=0.05. *)

val auto_bundle : t -> mean_bits:float -> t
(** Derive the waveguide bundling factor from the design's mean hyper-net
    width: [bundle_factor = clamp 1 16 (1.5 * capacity / mean_bits)] —
    the expected number of hyper nets sharing a physical waveguide
    (channel occupancy), with a 1.5x allowance for co-bundled corridor
    traffic. Raises [Invalid_argument] on non-positive [mean_bits]. *)

val electrical_unit_energy : t -> float
(** Energy per bit per centimetre of electrical wire, pJ/(bit*cm):
    [gamma * vdd^2 * cap_per_cm]. Eq. 6 divided by the bit rate, so
    optical (Eq. 1) and electrical powers are compared in the same
    pJ/bit unit; the common frequency factor cancels in every ratio the
    paper reports. *)

val validate : t -> (unit, string) result
(** Check that every parameter is physically sensible: every float field
    finite (the crossing matrix's exactness argument assumes finite
    losses), positive losses and energies, [dis_l <= dis_u], positive
    capacity. [Flow.Config.make] refuses parameters that fail it. *)
