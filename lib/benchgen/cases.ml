open Operon_geom

let die_large = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:6.0 ~ymax:6.0
let die_small = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:3.0 ~ymax:3.0

let i1 =
  { Gen.name = "I1";
    seed = 101;
    die = die_large;
    n_blocks = 36;
    partners_near = 4;
    far_partner_prob = 1.0;
    block_size = 0.3;
    n_groups = 356;
    bits_min = 3;
    bits_max = 12;
    sink_blocks_min = 1;
    sink_blocks_max = 4;
    pitch = 0.002;
    local_fraction = 0.65 }

let i2 =
  { Gen.name = "I2";
    seed = 102;
    die = die_large;
    n_blocks = 36;
    partners_near = 4;
    far_partner_prob = 1.0;
    block_size = 0.3;
    n_groups = 837;
    bits_min = 1;
    bits_max = 3;
    sink_blocks_min = 1;
    sink_blocks_max = 1;
    pitch = 0.002;
    local_fraction = 0.10 }

let die_i3 = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:2.2 ~ymax:2.2

let i3 =
  { Gen.name = "I3";
    seed = 103;
    die = die_i3;
    n_blocks = 49;
    partners_near = 4;
    far_partner_prob = 0.1;
    block_size = 0.15;
    n_groups = 84;
    bits_min = 55;
    bits_max = 65;
    sink_blocks_min = 1;
    sink_blocks_max = 1;
    pitch = 0.002;
    local_fraction = 1.0 }

let i4 =
  { Gen.name = "I4";
    seed = 104;
    die = die_large;
    n_blocks = 36;
    partners_near = 4;
    far_partner_prob = 1.0;
    block_size = 0.3;
    n_groups = 403;
    bits_min = 4;
    bits_max = 12;
    sink_blocks_min = 1;
    sink_blocks_max = 4;
    pitch = 0.002;
    local_fraction = 0.78 }

let i5 =
  { Gen.name = "I5";
    seed = 105;
    die = die_large;
    n_blocks = 36;
    partners_near = 4;
    far_partner_prob = 1.0;
    block_size = 0.3;
    n_groups = 933;
    bits_min = 1;
    bits_max = 3;
    sink_blocks_min = 1;
    sink_blocks_max = 1;
    pitch = 0.002;
    local_fraction = 0.30 }

let all = [ i1; i2; i3; i4; i5 ]

(* Scale tiers: synthetic designs one to two orders of magnitude beyond
   Table 1 (#Net counts of ~10k/30k/100k), each with the end-to-end
   wall-clock budget it is expected to meet. A mostly-local mix (80%)
   on a big die keeps the crossing structure sparse enough that
   selection stays the dominant cost rather than the candidate
   explosion. #Net ~ n_groups * mean bits (the same relation the I1-I5
   specs were tuned by). *)

type tier = {
  t_name : string;
  t_target_nets : int;
  t_target_seconds : float;
  t_spec : Gen.spec;
}

let die_scale = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:12.0 ~ymax:12.0

let scale_spec ~name ~seed ~n_groups =
  { Gen.name;
    seed;
    die = die_scale;
    n_blocks = 144;
    partners_near = 4;
    far_partner_prob = 0.25;
    block_size = 0.3;
    n_groups;
    bits_min = 3;
    bits_max = 5;
    sink_blocks_min = 1;
    sink_blocks_max = 2;
    pitch = 0.002;
    local_fraction = 0.8 }

let t10k =
  { t_name = "t10k";
    t_target_nets = 10_000;
    t_target_seconds = 120.0;
    t_spec = scale_spec ~name:"t10k" ~seed:210 ~n_groups:2500 }

let t30k =
  { t_name = "t30k";
    t_target_nets = 30_000;
    t_target_seconds = 400.0;
    t_spec = scale_spec ~name:"t30k" ~seed:230 ~n_groups:7500 }

let t100k =
  { t_name = "t100k";
    t_target_nets = 100_000;
    t_target_seconds = 1800.0;
    t_spec = scale_spec ~name:"t100k" ~seed:2100 ~n_groups:25_000 }

let tiers = [ t10k; t30k; t100k ]

let tier_by_name name =
  let target = String.lowercase_ascii name in
  List.find_opt (fun t -> String.lowercase_ascii t.t_name = target) tiers

let by_name name =
  let target = String.lowercase_ascii name in
  List.find_opt (fun s -> String.lowercase_ascii s.Gen.name = target) all

let small ?(seed = 7) () =
  Gen.generate
    { Gen.name = "small";
      seed;
      die = die_small;
      n_blocks = 9;
      partners_near = 3;
      far_partner_prob = 0.5;
      block_size = 0.2;
      n_groups = 12;
      bits_min = 2;
      bits_max = 8;
      sink_blocks_min = 1;
      sink_blocks_max = 3;
      pitch = 0.002;
      local_fraction = 0.5 }

(* Two copies of a small-ish cluster spec, generated on sub-dies far
   apart on a wide die and merged into one design. Every pin — and so
   every candidate topology, which stays inside its net's pin bbox —
   lives in its own cluster, so the interaction graph has no edge
   between the halves: a 2-region partition severs zero pairs, which is
   the case the partition-smoke CI job byte-diffs partitioned-vs-flat
   exports on. *)
let split ?(seed = 5) () =
  let cluster name seed xmin =
    Gen.generate
      { Gen.name;
        seed;
        die = Rect.make ~xmin ~ymin:0.0 ~xmax:(xmin +. 2.0) ~ymax:2.0;
        n_blocks = 9;
        partners_near = 3;
        far_partner_prob = 0.5;
        block_size = 0.2;
        n_groups = 16;
        bits_min = 2;
        bits_max = 6;
        sink_blocks_min = 1;
        sink_blocks_max = 2;
        pitch = 0.002;
        local_fraction = 0.5 }
  in
  let left = cluster "splitL" seed 0.0 in
  let right = cluster "splitR" (seed + 1) 8.0 in
  Operon.Signal.design
    ~die:(Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:10.0 ~ymax:2.0)
    ~groups:
      (Array.append left.Operon.Signal.groups right.Operon.Signal.groups)

let tiny ?(seed = 11) () =
  Gen.generate
    { Gen.name = "tiny";
      seed;
      die = die_small;
      n_blocks = 4;
      partners_near = 2;
      far_partner_prob = 0.0;
      block_size = 0.2;
      n_groups = 4;
      bits_min = 2;
      bits_max = 4;
      sink_blocks_min = 1;
      sink_blocks_max = 2;
      pitch = 0.002;
      local_fraction = 0.5 }
