open Operon_geom
open Operon_cluster
open Operon_optical

type config = { merge_threshold : float }

let default_config = { merge_threshold = 0.05 }

(* A bit is keyed by the centroid of its pins: bits whose pins sit close
   together end up in the same hyper net. *)
let bit_key b = Point.centroid (Signal.bit_pins b)

let hyper_pins_of_cluster config (bits : Signal.bit array) =
  (* Pool every electrical pin of the cluster, remembering which are
     drivers, then merge neighbours bottom-up. *)
  let pins = ref [] and is_source = ref [] in
  Array.iter
    (fun b ->
      pins := b.Signal.source :: !pins;
      is_source := true :: !is_source;
      Array.iter
        (fun s ->
          pins := s :: !pins;
          is_source := false :: !is_source)
        b.Signal.sinks)
    bits;
  let pin_arr = Array.of_list (List.rev !pins) in
  let src_arr = Array.of_list (List.rev !is_source) in
  let merged = Agglom.merge pin_arr ~threshold:config.merge_threshold in
  Array.map
    (fun (hp : Agglom.hyper_pin) ->
      let source_count =
        Array.fold_left (fun acc i -> if src_arr.(i) then acc + 1 else acc) 0 hp.members
      in
      { Hypernet.center = hp.center;
        pin_count = Array.length hp.members;
        source_count })
    merged

let run ?(config = default_config) rng params (design : Signal.design) =
  let out = ref [] in
  let next_id = ref 0 in
  Array.iteri
    (fun gi (g : Signal.group) ->
      let keys = Array.map bit_key g.bits in
      let { Kmeans.clusters; _ } =
        Kmeans.partition rng keys ~capacity:params.Params.wdm_capacity
      in
      Array.iter
        (fun members ->
          let bits = Array.map (fun i -> g.Signal.bits.(i)) members in
          let pins = hyper_pins_of_cluster config bits in
          let hnet =
            Hypernet.make ~id:!next_id ~group:gi ~bits:(Array.length bits) ~pins
          in
          incr next_id;
          out := hnet :: !out)
        clusters)
    design.Signal.groups;
  Array.of_list (List.rev !out)

let stats hnets =
  let nets = Array.fold_left (fun acc h -> acc + h.Hypernet.bits) 0 hnets in
  let hpins = Array.fold_left (fun acc h -> acc + Hypernet.pin_count h) 0 hnets in
  (nets, Array.length hnets, hpins)
