open Operon_optical
open Operon_steiner

type state = {
  pow_e : float;
  pow_o : float;
  up_loss : float;
  choices : (int * Candidate.label * int) list;
      (* (child node, edge label, child state index) *)
}

(* Partial accumulator while merging the children of one node. *)
type partial = {
  psum : float;  (* power accumulated from processed children *)
  branch_max : float;  (* worst optical branch loss so far (neg_infinity if none) *)
  n_o : int;  (* optical child edges so far *)
  has_e : bool;  (* any electrical child so far — forces a detector tap in
                    the parent-optical scenario, so partials with and
                    without electrical children are incomparable *)
  pchoices : (int * Candidate.label * int) list;
}

let dominates a b =
  a.pow_e <= b.pow_e && a.pow_o <= b.pow_o && a.up_loss <= b.up_loss

let partial_dominates a b =
  a.psum <= b.psum && a.branch_max <= b.branch_max && a.n_o <= b.n_o
  && ((not a.has_e) || b.has_e)

(* First [n] elements in one traversal — no List.length/List.filteri
   quadratic rescan of the (possibly long) sorted list. *)
let rec take n l =
  if n <= 0 then [] else match l with [] -> [] | x :: tl -> x :: take (n - 1) tl

(* Keep a Pareto frontier, then cap the list size by ascending score. *)
let prune_generic dominates score cap items =
  let kept =
    List.filter
      (fun x ->
        not
          (List.exists (fun y -> y != x && dominates y x && not (dominates x y)) items))
      items
  in
  (* Among mutually-dominating duplicates keep one representative. *)
  let deduped =
    List.fold_left
      (fun acc x -> if List.exists (fun y -> dominates y x && dominates x y) acc then acc else x :: acc)
      [] kept
  in
  let sorted = List.sort (fun a b -> Float.compare (score a) (score b)) deduped in
  take cap sorted

let state_score s = Float.min s.pow_e s.pow_o

let partial_score p = p.psum

let enumerate ?(max_cands = 16) ?(edge_crossings = fun _ -> 0) params hnet topo =
  let l_max = params.Params.l_max in
  (* Electrical edges cost one wire per bit; conversion sites are shared
     by the whole WDM (see Power). *)
  let unit_e =
    Params.electrical_unit_energy params *. float_of_int hnet.Hypernet.bits
  in
  let n = Topology.node_count topo in
  if n = 1 then [ Candidate.electrical params hnet topo ]
  else begin
    let states = Array.make n [||] in
    List.iter
      (fun v ->
        let children = Topology.children topo v in
        (* Merge children one at a time, expanding each partial by every
           (child state, edge label) pair and pruning dominated partials. *)
        let partials =
          List.fold_left
            (fun partials c ->
              let elec_len = Topology.edge_length Topology.L1 topo c in
              let opt_len = Topology.edge_length Topology.L2 topo c in
              let edge_loss =
                Loss.propagation params opt_len
                +. Loss.crossing_bundled params (edge_crossings c)
              in
              let expanded =
                List.concat_map
                  (fun p ->
                    let opts = ref [] in
                    Array.iteri
                      (fun k (s : state) ->
                        (* electrical edge to child c *)
                        if s.pow_e < infinity then
                          opts :=
                            { psum = p.psum +. s.pow_e +. (unit_e *. elec_len);
                              branch_max = p.branch_max;
                              n_o = p.n_o;
                              has_e = true;
                              pchoices = (c, Candidate.Electrical, k) :: p.pchoices }
                            :: !opts;
                        (* optical edge to child c *)
                        if s.pow_o < infinity then begin
                          let branch = edge_loss +. s.up_loss in
                          if branch <= l_max then
                            opts :=
                              { psum = p.psum +. s.pow_o;
                                branch_max = Float.max p.branch_max branch;
                                n_o = p.n_o + 1;
                                has_e = p.has_e;
                                pchoices = (c, Candidate.Optical, k) :: p.pchoices }
                              :: !opts
                        end)
                      states.(c);
                    !opts)
                  partials
              in
              prune_generic partial_dominates partial_score (4 * max_cands) expanded)
            [ { psum = 0.0; branch_max = neg_infinity; n_o = 0; has_e = false;
                pchoices = [] } ]
            children
        in
        (* Finalize: attach the conversion devices at v for each scenario. *)
        let is_term = Topology.is_terminal topo v in
        let finalized =
          List.map
            (fun p ->
              let pow_e =
                if p.n_o = 0 then p.psum
                else begin
                  let closed = p.branch_max +. Loss.splitting_arm params p.n_o in
                  if closed > l_max then infinity
                  else p.psum +. params.Params.p_mod
                end
              in
              let tap = is_term || p.has_e in
              let arms = p.n_o + if tap then 1 else 0 in
              let pow_o, up_loss =
                if arms = 0 then (infinity, infinity)
                else begin
                  let base = if tap then Float.max p.branch_max 0.0 else p.branch_max in
                  let up = Loss.splitting_arm params arms +. base in
                  if up > l_max then (infinity, infinity)
                  else (p.psum +. (if tap then params.Params.p_det else 0.0), up)
                end
              in
              { pow_e; pow_o; up_loss; choices = p.pchoices })
            partials
        in
        let live = List.filter (fun s -> s.pow_e < infinity || s.pow_o < infinity) finalized in
        states.(v) <- Array.of_list (prune_generic dominates state_score max_cands live))
      (Topology.postorder topo);
    (* Harvest the root's parent-electrical scenarios and rebuild labels. *)
    let root = Topology.root topo in
    let labelings = ref [] in
    Array.iter
      (fun s ->
        if s.pow_e < infinity then begin
          let labels = Array.make n Candidate.Electrical in
          let rec apply (s : state) =
            List.iter
              (fun (c, lbl, k) ->
                labels.(c) <- lbl;
                apply states.(c).(k))
              s.choices
          in
          apply s;
          labelings := (s.pow_e, Array.copy labels) :: !labelings
        end)
      states.(root);
    let cands =
      List.map
        (fun (_, labels) -> Candidate.of_labels params hnet topo labels)
        !labelings
    in
    List.sort (fun a b -> Float.compare a.Candidate.power b.Candidate.power) cands
  end

(* The candidates on [topo], each with its dedup key: its labels, between
   the topology's node count and L2 length, which tell equal label
   strings on different topologies apart, formatted once per topology. *)
let keyed topo cands =
  let count = string_of_int (Topology.node_count topo) ^ ":" in
  let length = Printf.sprintf ":%0.6f" (Topology.length Topology.L2 topo) in
  List.map
    (fun (c : Candidate.t) ->
      let label v = match c.labels.(v) with Candidate.Optical -> 'O' | Candidate.Electrical -> 'E' in
      (String.concat "" [ count; String.init (Array.length c.labels) label; length ], c))
    cands

type gen_stats = { raw : int; deduped : int; kept : int }

type xcounts = int array array

type baselines = { topos : Topology.t list; rsmt : Topology.t }

let baselines (hnet : Hypernet.t) =
  let terminals = Hypernet.centers hnet in
  if Array.length terminals <= 1 then
    { topos = []; rsmt = Bi1s.mst_tree Topology.L2 terminals ~root:0 }
  else
    let topos, rsmt = Bi1s.baselines terminals ~root:0 in
    { topos; rsmt }

(* Segments keyed by the exact bits of their endpoints, in order: float
   equality would merge -0.0 with 0.0, and an undirected key would merge
   a segment with its reverse, whose crossing test
   ([Segment.has_intersection_point]) is not bit-symmetric. *)
module Directed = Hashtbl.Make (struct
  type t = Operon_geom.Segment.t

  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

  let equal (s : t) (t : t) =
    same s.a.x t.a.x && same s.a.y t.a.y && same s.b.x t.b.x && same s.b.y t.b.y

  let hash = Hashtbl.hash
end)

(* The queried segments of one hyper net are a pure function of its
   terminals: every non-root node's parent edge, over every baseline
   topology, in Bi1s.baselines order. Materializing the counts up front
   (instead of letting the DP query lazily) pins that order down, which
   is what lets an ECO re-preparation patch a cached count table with
   only the changed nets' contributions and replay the DP bit-exactly.
   A segment recurs across topologies (the MST shares edges with the
   BI1S tree, the star with both), so [crossing_est] runs once per
   distinct directed segment; the second result is the number of runs. *)
let count ~crossing_est topos =
  let memo = Directed.create 32 and calls = ref 0 in
  let row topo =
    let root = Topology.root topo in
    Array.init (Topology.node_count topo) (fun v ->
        if v = root then 0
        else
          let s = Topology.segment_of_edge topo v in
          match Directed.find_opt memo s with
          | Some c -> c
          | None ->
              let c = crossing_est s in
              incr calls;
              Directed.add memo s c;
              c)
  in
  let rows = Array.of_list (List.map row topos) in
  (rows, !calls)

let crossing_counts ~crossing_est (hnet : Hypernet.t) : xcounts =
  fst (count ~crossing_est (baselines hnet).topos)

let adjust_counts ~sub ~add topos (cached : xcounts) =
  if
    List.length topos = Array.length cached
    && List.for_all2
         (fun topo xc -> Array.length xc = Topology.node_count topo)
         topos (Array.to_list cached)
  then
    let delta, _ = count ~crossing_est:(fun s -> add s - sub s) topos in
    Some (Array.map2 (Array.map2 ( + )) cached delta)
  else None

let generate ?(max_cands = 16) ?(max_total = 10) ~(counts : xcounts) params
    hnet { topos; rsmt } =
  match topos with
  | [] -> ([ Candidate.electrical params hnet rsmt ], { raw = 1; deduped = 1; kept = 1 })
  | _ ->
    if List.length topos <> Array.length counts then
      invalid_arg "Codesign.generate: counts shape mismatch";
    let from_dp =
      List.concat
        (List.mapi
           (fun ti topo ->
             let xc = counts.(ti) in
             if Array.length xc <> Topology.node_count topo then
               invalid_arg "Codesign.generate: counts shape mismatch";
             keyed topo
               (enumerate ~max_cands ~edge_crossings:(fun v -> xc.(v)) params hnet topo))
           topos)
    in
    (* Dedicated rectilinear-Steiner electrical fallback: the best
       realisation of the a_ie variable. *)
    let all = keyed rsmt [ Candidate.electrical params hnet rsmt ] @ from_dp in
    (* Deduplicate identical labellings. *)
    let seen = Hashtbl.create 16 in
    let uniq =
      List.filter_map
        (fun (key, c) ->
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some c
          end)
        all
    in
    let sorted =
      List.sort (fun a b -> Float.compare a.Candidate.power b.Candidate.power) uniq
    in
    let best_electrical =
      List.fold_left
        (fun acc (c : Candidate.t) ->
          if not c.Candidate.pure_electrical then acc
          else
            match acc with
            | Some (b : Candidate.t) when b.Candidate.power <= c.Candidate.power -> acc
            | _ -> Some c)
        None sorted
    in
    let truncated = take max_total sorted in
    (* Guarantee the electrical fallback survives truncation. *)
    let kept =
      match best_electrical with
      | Some e when not (List.memq e truncated) -> truncated @ [ e ]
      | _ -> truncated
    in
    ( kept,
      { raw = List.length all;
        deduped = List.length uniq;
        kept = List.length kept } )

let for_hypernet_counted ?max_cands ?max_total ~counts params hnet =
  generate ?max_cands ?max_total ~counts params hnet (baselines hnet)

let for_hypernet ?max_cands ?max_total ?(crossing_est = fun _ -> 0) params
    hnet =
  let b = baselines hnet in
  let counts, _ = count ~crossing_est b.topos in
  fst (generate ?max_cands ?max_total ~counts params hnet b)

let electrical_only params hnet =
  let terminals = Hypernet.centers hnet in
  if Array.length terminals <= 1 then
    [ Candidate.electrical params hnet (Bi1s.mst_tree Topology.L2 terminals ~root:0) ]
  else [ Candidate.electrical params hnet (Rsmt.tree terminals ~root:0) ]
