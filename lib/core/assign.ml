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
  searches : int;
  retire_solves : int;
  pinned : int;
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

(* Per connection index, the positions of the tracks it may ride,
   ascending. [fl (coord - cc)] is monotone in [coord], and
   [Float.abs d <= dis_u] is exactly [-dis_u <= d && d <= dis_u], so on
   the tracks sorted by coordinate a connection's eligible tracks are one
   run: from the first whose difference reaches [-dis_u] to the last
   whose difference stays within [dis_u]. *)
let reach params conns orient (tracks : Wdm.track array) =
  let dis_u = params.Params.dis_u in
  let nw = Array.length tracks in
  let by_coord = Array.init nw Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare tracks.(a).Wdm.coord tracks.(b).Wdm.coord)
    by_coord;
  (* First rank whose coordinate satisfies the monotone [p], or [nw]. *)
  let first p =
    let lo = ref 0 and hi = ref nw in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if p tracks.(by_coord.(mid)).Wdm.coord then hi := mid else lo := mid + 1
    done;
    !lo
  in
  Array.map
    (fun c ->
      if Wdm.orientation_of c.Wdm.seg <> orient then [||]
      else begin
        let cc = Wdm.conn_coord c in
        let lo = first (fun x -> x -. cc >= -.dis_u) in
        let hi = first (fun x -> x -. cc > dis_u) in
        let run = Array.sub by_coord lo (Int.max 0 (hi - lo)) in
        Array.sort Int.compare run;
        run
      end)
    conns

(* One orientation's connection–track eligibility graph: connection [ci]
   may ride track [wi] when [track_distance <= dis_u]. Bits never move
   between its connected components, so retirement and the min-cost
   assignment are solved one component at a time. *)
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
  let dsu = Dsu.create (nc + nw) in
  let reach = reach params conns orient tracks in
  Array.iteri
    (fun ci ws -> Array.iter (fun wi -> ignore (Dsu.union dsu ci (nc + wi))) ws)
    reach;
  let root_comp = Array.make (nc + nw) (-1) in
  let ncomp = ref 0 in
  let comp_of_conn =
    Array.init nc (fun ci ->
        if Wdm.orientation_of conns.(ci).Wdm.seg <> orient then -1
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
   of [live.(wi)] in the final track array. A component's network holds
   its connections, then its tracks, then the sink; each connection
   supplies its own bits, in ascending order. Every component must carry
   all of its bits, so the flow is a min-cost flow of the whole network
   (DESIGN §25). Returns per-connection flows, the total
   displacement cost (summed over connections, then their tracks, both
   descending) and the number of shortest-path searches. *)
let assign params conns orient live positions =
  let nc = Array.length conns in
  let e = eligibility params conns orient live in
  let arcs = Array.make nc [||] in
  let searches = ref 0 in
  let nets =
    Array.map
      (fun comp ->
        let k = Array.length comp.cs and m = Array.length comp.ws in
        let sink = k + m in
        let g = Mcmf.create (k + m + 1) in
        Array.iteri
          (fun j ci ->
            let c = conns.(ci) in
            arcs.(ci) <-
              Array.map
                (fun wi ->
                  Mcmf.add_edge g ~src:j ~dst:(k + e.local.(wi)) ~cap:c.Wdm.bits
                    ~cost:(Wdm.track_distance live.(wi) c))
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
              (Mcmf.add_edge g ~src:(k + j) ~dst:sink ~cap:t.Wdm.capacity ~cost:usage))
          comp.ws;
        let supplies = Array.mapi (fun j ci -> (j, conns.(ci).Wdm.bits)) comp.cs in
        let need = Array.fold_left (fun acc (_, bits) -> acc + bits) 0 supplies in
        let s = Mcmf.solve g ~supplies ~sink in
        searches := !searches + s.Mcmf.searches;
        if s.Mcmf.flow < need then
          raise
            (Fault.Error
               (Fault.make ~stage:Instrument.Assign Fault.Capacity
                  (Printf.sprintf
                     "%s: %d of %d bits cannot ride a track within dis_u \
                      (component of connection %d)"
                     (orientation_name orient) (need - s.Mcmf.flow) need
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
  (flows, !displacement, !searches)

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
   component's pre-edit snapshot.

   A failed probe also leaves a Hall violation behind. The connections
   X still reachable from the source in its residual network need more
   bits than the not-yet-retired tracks N(X) eligible to them hold once
   [w] is gone. Any track [t] of N(X) with demand(X) > cap(N(X)) -
   cap(t) is then pinned: N(X) only loses tracks as the pass goes on, so
   removing [t] stays infeasible and its own probe would fail. A pinned
   track is kept without a probe; the survivors are the same. *)
type retire_net = {
  g : Maxflow.t;
  sink : int;
  src_arc : int array;  (* per local connection *)
  into : (int * int) list array;  (* per local track: (arc, local conn) *)
  sink_arc : int array;  (* per local track *)
  short : bool;  (* max flow below the component's demand *)
}

(* Survivors (indices into [all], lightest-loaded first), max-flow
   re-solves and tracks kept by a pin. *)
let retire params conns orient all =
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
  if Array.exists (fun n -> n.short) nets then (ordered, 0, 0)
  else begin
    let retired = Array.make nw false in
    let pinned = Array.make nw false in
    (* [stamp.(wi) = wi'] while collecting N(X) for the probe of [wi']. *)
    let stamp = Array.make nw (-1) in
    let solves = ref 0 and pins = ref 0 in
    let pin_violators n comp w =
      let seen = Maxflow.reachable n.g ~source:0 in
      let demand = ref 0 and cap = ref 0 and nx = ref [] in
      Array.iteri
        (fun j ci ->
          if seen.(1 + j) then begin
            demand := !demand + conns.(ci).Wdm.bits;
            Array.iter
              (fun wi ->
                if (not retired.(wi)) && stamp.(wi) <> w then begin
                  stamp.(wi) <- w;
                  cap := !cap + tracks.(wi).Wdm.capacity;
                  nx := wi :: !nx
                end)
              e.reach.(ci)
          end)
        comp.cs;
      List.iter
        (fun wi ->
          if !demand > !cap - tracks.(wi).Wdm.capacity then pinned.(wi) <- true)
        !nx
    in
    for wi = 0 to nw - 1 do
      let k = e.comp_of_track.(wi) in
      if k < 0 then retired.(wi) <- true
      else if pinned.(wi) then incr pins
      else begin
        let n = nets.(k) and l = e.local.(wi) in
        let f_w = Maxflow.flow_on n.g n.sink_arc.(l) in
        if f_w = 0 then begin
          Maxflow.disable n.g n.sink_arc.(l);
          retired.(wi) <- true
        end
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
          incr solves;
          let rerouted = Maxflow.max_flow n.g ~source:0 ~sink:n.sink in
          if rerouted <> f_w then begin
            pin_violators n e.comps.(k) wi;
            Maxflow.restore n.g saved
          end
          else retired.(wi) <- true
        end
      end
    done;
    let keep = ref [] in
    for wi = nw - 1 downto 0 do
      if not retired.(wi) then keep := ord.(wi) :: !keep
    done;
    (!keep, !solves, !pins)
  end

let survivors params conns orient all =
  let keep, _, _ = retire params conns orient all in
  keep

let run params (placement : Wdm_place.placement) =
  let conns = placement.Wdm_place.conns in
  let all = placement.Wdm_place.tracks in
  let initial_count = Array.length all in
  let kept_h, solves_h, pins_h = retire params conns Wdm.Horizontal all in
  let kept_v, solves_v, pins_v = retire params conns Wdm.Vertical all in
  let final_idx = Array.of_list (kept_h @ kept_v) in
  let final_tracks = Array.map (fun i -> all.(i)) final_idx in
  let positions_of kept offset =
    Array.init (List.length kept) (fun k -> offset + k)
  in
  let live_h = Array.map (fun i -> all.(i)) (Array.of_list kept_h) in
  let live_v = Array.map (fun i -> all.(i)) (Array.of_list kept_v) in
  let flows_h, cost_h, searches_h =
    assign params conns Wdm.Horizontal live_h (positions_of kept_h 0)
  in
  let flows_v, cost_v, searches_v =
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
    displacement_cost = cost_h +. cost_v;
    searches = searches_h + searches_v;
    retire_solves = solves_h + solves_v;
    pinned = pins_h + pins_v }

let reduction_ratio r =
  if r.initial_count = 0 then 0.0
  else float_of_int (r.initial_count - r.final_count) /. float_of_int r.initial_count
