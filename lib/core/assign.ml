open Operon_optical
open Operon_graph
open Operon_flow
open Operon_engine

type result = {
  tracks : Wdm.track array;
  flows : (int * int) list array;
  initial_count : int;
  final_count : int;
  displacement_cost : float;
}

(* Total bits that must be carried for one orientation. *)
let demand conns orient =
  Array.fold_left
    (fun acc c -> if Wdm.orientation_of c.Wdm.seg = orient then acc + c.Wdm.bits else acc)
    0 conns

(* Can [live] (a track subset, same orientation) carry every connection? *)
let feasible params conns orient live =
  let nc = Array.length conns and nw = Array.length live in
  let total = demand conns orient in
  if total = 0 then true
  else begin
    let source = 0 and sink = nc + nw + 1 in
    let g = Maxflow.create (nc + nw + 2) in
    Array.iteri
      (fun ci c ->
        if Wdm.orientation_of c.Wdm.seg = orient then begin
          ignore (Maxflow.add_edge g ~src:source ~dst:(1 + ci) ~cap:c.Wdm.bits);
          Array.iteri
            (fun wi t ->
              if Wdm.track_distance t c <= params.Params.dis_u then
                ignore
                  (Maxflow.add_edge g ~src:(1 + ci) ~dst:(1 + nc + wi) ~cap:c.Wdm.bits))
            live
        end)
      conns;
    Array.iteri
      (fun wi t ->
        ignore (Maxflow.add_edge g ~src:(1 + nc + wi) ~dst:sink ~cap:t.Wdm.capacity))
      live;
    Maxflow.max_flow g ~source ~sink = total
  end

(* One orientation's connection–track eligibility graph: connection [ci]
   may ride track [wi] when [track_distance <= dis_u]. Bits never move
   between its connected components, so retirement and the min-cost
   assignment are solved one component at a time. Each connection's
   eligible tracks are scanned once, here. *)
type component = {
  cs : int array;  (* connection indices, ascending *)
  ws : int array;  (* track positions, ascending *)
}

type eligibility = {
  reach : int array array;
      (* per connection index: eligible track positions, ascending;
         empty for the other orientation *)
  comps : component array;  (* by lowest connection index *)
  comp_of_conn : int array;  (* -1 for the other orientation *)
  comp_of_track : int array;  (* -1 when no connection reaches the track *)
  local : int array;  (* a track's index inside its component's [ws] *)
}

let eligibility params conns orient (tracks : Wdm.track array) =
  let nc = Array.length conns and nw = Array.length tracks in
  let dis_u = params.Params.dis_u in
  let dsu = Dsu.create (nc + nw) in
  let mine ci = Wdm.orientation_of conns.(ci).Wdm.seg = orient in
  let reach =
    Array.init nc (fun ci ->
        if not (mine ci) then [||]
        else begin
          let c = conns.(ci) in
          let acc = ref [] in
          for wi = nw - 1 downto 0 do
            if Wdm.track_distance tracks.(wi) c <= dis_u then begin
              acc := wi :: !acc;
              ignore (Dsu.union dsu ci (nc + wi))
            end
          done;
          Array.of_list !acc
        end)
  in
  let root_comp = Array.make (nc + nw) (-1) in
  let ncomp = ref 0 in
  let comp_of_conn =
    Array.init nc (fun ci ->
        if not (mine ci) then -1
        else begin
          let r = Dsu.find dsu ci in
          if root_comp.(r) < 0 then begin
            root_comp.(r) <- !ncomp;
            incr ncomp
          end;
          root_comp.(r)
        end)
  in
  let comp_of_track =
    Array.init nw (fun wi -> root_comp.(Dsu.find dsu (nc + wi)))
  in
  let members comp_of =
    let lists = Array.make !ncomp [] in
    for i = Array.length comp_of - 1 downto 0 do
      let k = comp_of.(i) in
      if k >= 0 then lists.(k) <- i :: lists.(k)
    done;
    Array.map Array.of_list lists
  in
  let cs = members comp_of_conn and ws = members comp_of_track in
  let local = Array.make nw (-1) in
  Array.iter (Array.iteri (fun j wi -> local.(wi) <- j)) ws;
  { reach;
    comps = Array.init !ncomp (fun k -> { cs = cs.(k); ws = ws.(k) });
    comp_of_conn;
    comp_of_track;
    local }

let orientation_name = function
  | Wdm.Horizontal -> "horizontal"
  | Wdm.Vertical -> "vertical"

(* Min-cost assignment of one orientation's connections onto the
   surviving tracks, one network per eligibility component. [live] are
   that orientation's surviving tracks and [positions.(wi)] is the index
   of [live.(wi)] in the final track array. Each network keeps the
   single-network arc order (per connection: source arc, then its
   tracks; then the sink arcs). Returns per-connection flows and the
   total displacement cost, summed in the single-network order
   (connections, then tracks, descending). *)
let assign params conns orient live positions =
  let nc = Array.length conns in
  let e = eligibility params conns orient live in
  let arcs = Array.make nc [||] in
  let nets =
    Array.map
      (fun comp ->
        let k = Array.length comp.cs and m = Array.length comp.ws in
        let source = 0 and sink = k + m + 1 in
        let g = Mcmf.create (k + m + 2) in
        let need = ref 0 in
        Array.iteri
          (fun j ci ->
            let c = conns.(ci) in
            need := !need + c.Wdm.bits;
            ignore (Mcmf.add_edge g ~src:source ~dst:(1 + j) ~cap:c.Wdm.bits ~cost:0.0);
            arcs.(ci) <-
              Array.map
                (fun wi ->
                  Mcmf.add_edge g ~src:(1 + j) ~dst:(1 + k + e.local.(wi))
                    ~cap:c.Wdm.bits ~cost:(Wdm.track_distance live.(wi) c))
                e.reach.(ci))
          comp.cs;
        (* Usage cost per channel on the sink arcs: proportional to track
           length so packed short waveguides are preferred; scaled small
           so displacement dominates tie-breaks only. *)
        Array.iteri
          (fun j wi ->
            let t = live.(wi) in
            let usage = 1e-3 *. (1.0 +. Wdm.track_length t) in
            ignore
              (Mcmf.add_edge g ~src:(1 + k + j) ~dst:sink ~cap:t.Wdm.capacity
                 ~cost:usage))
          comp.ws;
        let flow, _cost = Mcmf.solve g ~source ~sink in
        if flow < !need then
          raise
            (Fault.Error
               (Fault.make ~stage:Instrument.Assign Fault.Capacity
                  (Printf.sprintf
                     "%s: %d of %d bits cannot ride a track within dis_u \
                      (component of connection %d)"
                     (orientation_name orient) (!need - flow) !need
                     comp.cs.(0))));
        g)
      e.comps
  in
  let flows = Array.make nc [] in
  let displacement = ref 0.0 in
  for ci = nc - 1 downto 0 do
    let reach = e.reach.(ci) in
    for x = Array.length reach - 1 downto 0 do
      let wi = reach.(x) in
      let f = Mcmf.flow_on nets.(e.comp_of_conn.(ci)) arcs.(ci).(x) in
      if f > 0 then begin
        flows.(ci) <- (positions.(wi), f) :: flows.(ci);
        displacement :=
          !displacement
          +. (Wdm.track_distance live.(wi) conns.(ci) *. float_of_int f)
      end
    done
  done;
  (flows, !displacement)

(* Retire tracks lightest-first while a max-flow certificate shows the
   rest still carries everything. Orientations are independent, and so
   are eligibility components: the remaining tracks carry every bit
   exactly when each component's do, and retiring a track changes only
   its own component. Tracks are handled by index so identical-looking
   tracks stay distinct.

   Each component keeps one flow network for the whole pass: retiring
   track [w] cancels the flow it carries (and the matching units on the
   arcs feeding it, so conservation holds), zeroes its sink arc, and
   resumes Dinic from the residual state. The max-flow value is a
   function of the capacity-edited graph alone, so the resumed solve
   answers exactly "do the remaining tracks still carry every bit?". A
   track that carries no flow is retired outright (removing it cannot
   lower the max flow below its current, already-maximal value), as is
   a track no connection reaches; a failed retirement restores the
   component's pre-edit snapshot. *)
type retire_net = {
  g : Maxflow.t;
  sink : int;
  src_arc : int array;  (* per local connection *)
  into : (int * int) list array;  (* per local track: (arc, local conn) *)
  sink_arc : int array;  (* per local track *)
  short : bool;  (* max flow below the component's demand *)
}

let survivors params conns orient all =
  let mine = ref [] in
  for i = Array.length all - 1 downto 0 do
    if all.(i).Wdm.orient = orient then mine := i :: !mine
  done;
  let ordered =
    List.sort (fun a b -> compare all.(a).Wdm.used all.(b).Wdm.used) !mine
  in
  let ord = Array.of_list ordered in
  let nw = Array.length ord in
  let tracks = Array.map (fun i -> all.(i)) ord in
  let e = eligibility params conns orient tracks in
  let nets =
    Array.map
      (fun comp ->
        let k = Array.length comp.cs and m = Array.length comp.ws in
        let source = 0 and sink = k + m + 1 in
        let g = Maxflow.create (k + m + 2) in
        let into = Array.make m [] in
        let need = ref 0 in
        let src_arc =
          Array.mapi
            (fun j ci ->
              let c = conns.(ci) in
              need := !need + c.Wdm.bits;
              let h = Maxflow.add_edge g ~src:source ~dst:(1 + j) ~cap:c.Wdm.bits in
              Array.iter
                (fun wi ->
                  let l = e.local.(wi) in
                  let a =
                    Maxflow.add_edge g ~src:(1 + j) ~dst:(1 + k + l) ~cap:c.Wdm.bits
                  in
                  into.(l) <- (a, j) :: into.(l))
                e.reach.(ci);
              h)
            comp.cs
        in
        let sink_arc =
          Array.mapi
            (fun j wi ->
              Maxflow.add_edge g ~src:(1 + k + j) ~dst:sink
                ~cap:tracks.(wi).Wdm.capacity)
            comp.ws
        in
        let short = Maxflow.max_flow g ~source ~sink < !need in
        { g; sink; src_arc; into; sink_arc; short })
      e.comps
  in
  (* Infeasible even with every track: no subset can do better, keep
     all. *)
  if Array.exists (fun n -> n.short) nets then ordered
  else begin
    let live = Array.make nw false in
    for wi = 0 to nw - 1 do
      let k = e.comp_of_track.(wi) in
      if k >= 0 then begin
        let n = nets.(k) and l = e.local.(wi) in
        let f_w = Maxflow.flow_on n.g n.sink_arc.(l) in
        if f_w = 0 then Maxflow.disable n.g n.sink_arc.(l)
        else begin
          let saved = Maxflow.snapshot n.g in
          List.iter
            (fun (h, j) ->
              let f = Maxflow.flow_on n.g h in
              if f > 0 then begin
                Maxflow.cancel n.g h f;
                Maxflow.cancel n.g n.src_arc.(j) f
              end)
            n.into.(l);
          Maxflow.cancel n.g n.sink_arc.(l) f_w;
          Maxflow.disable n.g n.sink_arc.(l);
          let rerouted = Maxflow.max_flow n.g ~source:0 ~sink:n.sink in
          if rerouted <> f_w then begin
            Maxflow.restore n.g saved;
            live.(wi) <- true
          end
        end
      end
    done;
    let keep = ref [] in
    for wi = nw - 1 downto 0 do
      if live.(wi) then keep := ord.(wi) :: !keep
    done;
    !keep
  end

let run params (placement : Wdm_place.placement) =
  let conns = placement.Wdm_place.conns in
  let all = placement.Wdm_place.tracks in
  let initial_count = Array.length all in
  let kept_h = survivors params conns Wdm.Horizontal all in
  let kept_v = survivors params conns Wdm.Vertical all in
  let final_idx = Array.of_list (kept_h @ kept_v) in
  let final_tracks = Array.map (fun i -> all.(i)) final_idx in
  let positions_of kept offset =
    Array.init (List.length kept) (fun k -> offset + k)
  in
  let live_h = Array.map (fun i -> all.(i)) (Array.of_list kept_h) in
  let live_v = Array.map (fun i -> all.(i)) (Array.of_list kept_v) in
  let flows_h, cost_h =
    assign params conns Wdm.Horizontal live_h (positions_of kept_h 0)
  in
  let flows_v, cost_v =
    assign params conns Wdm.Vertical live_v (positions_of kept_v (List.length kept_h))
  in
  let flows =
    Array.init (Array.length conns) (fun i ->
        match flows_h.(i) with [] -> flows_v.(i) | l -> l)
  in
  (* Refresh usage counters on the surviving tracks. *)
  Array.iter (fun t -> t.Wdm.used <- 0) final_tracks;
  Array.iteri
    (fun _ assigned ->
      List.iter
        (fun (wi, bits) -> final_tracks.(wi).Wdm.used <- final_tracks.(wi).Wdm.used + bits)
        assigned)
    flows;
  { tracks = final_tracks;
    flows;
    initial_count;
    final_count = Array.length final_tracks;
    displacement_cost = cost_h +. cost_v }

let reduction_ratio r =
  if r.initial_count = 0 then 0.0
  else float_of_int (r.initial_count - r.final_count) /. float_of_int r.initial_count
