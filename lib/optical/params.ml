type t = {
  alpha : float;
  beta : float;
  bundle_factor : float;
  splitter_excess : float;
  p_mod : float;
  p_det : float;
  l_max : float;
  wdm_capacity : int;
  dis_l : float;
  dis_u : float;
  gamma : float;
  freq : float;
  vdd : float;
  cap_per_cm : float;
  t_ref : float;         (* ring calibration temperature, degC *)
  thermal_sens : float;  (* added loss per waveguide segment, dB/degC of detuning *)
}

let default =
  { alpha = 1.5;
    beta = 0.52;
    bundle_factor = 6.0;
    splitter_excess = 0.1;
    p_mod = 0.511;
    p_det = 0.374;
    l_max = 22.0;
    wdm_capacity = 32;
    dis_l = 5e-4;
    dis_u = 0.10;
    gamma = 0.3;
    freq = 1e9;
    vdd = 1.0;
    cap_per_cm = 3.0;
    t_ref = 45.0;
    thermal_sens = 0.05 }

let auto_bundle p ~mean_bits =
  if mean_bits <= 0.0 then invalid_arg "Params.auto_bundle: non-positive mean_bits";
  let raw = 1.5 *. float_of_int p.wdm_capacity /. mean_bits in
  { p with bundle_factor = Float.max 1.0 (Float.min 16.0 raw) }

let electrical_unit_energy p = p.gamma *. p.vdd *. p.vdd *. p.cap_per_cm

let validate p =
  let floats =
    [ ("alpha", p.alpha); ("beta", p.beta); ("bundle_factor", p.bundle_factor);
      ("splitter_excess", p.splitter_excess); ("p_mod", p.p_mod); ("p_det", p.p_det);
      ("l_max", p.l_max); ("dis_l", p.dis_l); ("dis_u", p.dis_u); ("gamma", p.gamma);
      ("freq", p.freq); ("vdd", p.vdd); ("cap_per_cm", p.cap_per_cm); ("t_ref", p.t_ref);
      ("thermal_sens", p.thermal_sens) ]
  in
  let checks =
    [ (p.alpha > 0.0, "alpha must be positive");
      (p.beta >= 0.0, "beta must be non-negative");
      (p.bundle_factor >= 1.0, "bundle_factor must be at least 1");
      (p.splitter_excess >= 0.0, "splitter_excess must be non-negative");
      (p.p_mod > 0.0, "p_mod must be positive");
      (p.p_det > 0.0, "p_det must be positive");
      (p.l_max > 0.0, "l_max must be positive");
      (p.wdm_capacity > 0, "wdm_capacity must be positive");
      (p.dis_l >= 0.0, "dis_l must be non-negative");
      (p.dis_l <= p.dis_u, "dis_l must not exceed dis_u");
      (p.gamma > 0.0 && p.gamma <= 1.0, "gamma must be in (0, 1]");
      (p.freq > 0.0, "freq must be positive");
      (p.vdd > 0.0, "vdd must be positive");
      (p.cap_per_cm > 0.0, "cap_per_cm must be positive");
      (p.thermal_sens >= 0.0, "thermal_sens must be non-negative") ]
  in
  match List.find_opt (fun (_, v) -> not (Float.is_finite v)) floats with
  | Some (name, v) -> Error (Printf.sprintf "%s must be finite (got %g)" name v)
  | None -> (
      match List.find_opt (fun (ok, _) -> not ok) checks with
      | Some (_, msg) -> Error msg
      | None -> Ok ())
