(* The paper's Figure 5 walk-through: enumerate the optical-electrical
   co-design candidates of one multi-pin hyper net and print the whole
   non-dominated list with their conversion devices, power and loss.

     dune exec examples/bus_codesign.exe

   The hyper net mirrors Fig. 5(a): a driving hyper pin (1) and sink
   hyper pins (3, 4) joined through a Steiner point (2). The printed
   candidates correspond to Fig. 5(c): fully-optical, two hybrids and the
   all-electrical fallback. *)

open Operon_geom
open Operon_optical
open Operon_steiner
open Operon

let pt = Point.make

let () =
  let params = Params.default in
  (* hyper pins: root driver far north, two sinks south-east/south-west *)
  let centers = [| pt 0.0 2.0; pt (-1.2) 0.0; pt 1.2 0.0 |] in
  let pins =
    Array.mapi
      (fun i c ->
        { Hypernet.center = c; pin_count = 8; source_count = (if i = 0 then 8 else 0) })
      centers
  in
  let hnet = Hypernet.make ~id:0 ~group:0 ~bits:8 ~pins in

  Printf.printf "hyper net: %d bits, %d hyper pins\n" hnet.Hypernet.bits
    (Hypernet.pin_count hnet);
  Printf.printf "  driver at %s, sinks at %s and %s\n\n"
    (Format.asprintf "%a" Point.pp centers.(0))
    (Format.asprintf "%a" Point.pp centers.(1))
    (Format.asprintf "%a" Point.pp centers.(2));

  (* Baseline topologies (BI1S and friends). *)
  let baselines, _ = Bi1s.baselines (Hypernet.centers hnet) ~root:0 in
  Printf.printf "baseline topologies: %d\n" (List.length baselines);
  List.iteri
    (fun i topo ->
      Printf.printf "  #%d: %d nodes, L2 length %.3f cm, %d bends\n" i
        (Topology.node_count topo)
        (Topology.length Topology.L2 topo)
        (Topology.bends topo))
    baselines;

  (* Co-design enumeration over all baselines (Fig. 5b -> 5c). *)
  let cands = Codesign.for_hypernet params hnet in
  Printf.printf "\nnon-dominated co-design candidates (Fig. 5c):\n";
  Printf.printf "%3s %8s %6s %6s %9s %9s  %s\n" "#" "power" "n_mod" "n_det" "copper" "loss(dB)"
    "kind";
  List.iteri
    (fun i (c : Candidate.t) ->
      let kind =
        if c.Candidate.pure_electrical then "EEE (all electrical)"
        else if Array.length c.Candidate.elec_segments = 0 then "OOO (all optical)"
        else "hybrid"
      in
      Printf.printf "%3d %8.3f %6d %6d %8.2fcm %9.2f  %s\n" i c.Candidate.power
        c.Candidate.n_mod c.Candidate.n_det c.Candidate.elec_wirelength
        c.Candidate.max_intrinsic_loss kind)
    cands;

  (* How the trade-off moves with distance: scale the same net up. *)
  Printf.printf "\npower of best candidate vs die scale (conversion amortization):\n";
  List.iter
    (fun scale ->
      let scaled = Array.map (Point.scale scale) centers in
      let pins =
        Array.mapi
          (fun i c ->
            { Hypernet.center = c; pin_count = 8; source_count = (if i = 0 then 8 else 0) })
          scaled
      in
      let h = Hypernet.make ~id:0 ~group:0 ~bits:8 ~pins in
      match Codesign.for_hypernet params h with
      | [] -> ()
      | best :: _ ->
          Printf.printf "  scale %4.1fx: best %8.3f (%s)\n" scale best.Candidate.power
            (if best.Candidate.pure_electrical then "electrical"
             else if Array.length best.Candidate.elec_segments = 0 then "optical"
             else "hybrid"))
    [ 0.1; 0.25; 0.5; 1.0; 2.0 ]
