(* Independent output checker. Recomputes the paper's constraints from the
   flow's result rather than trusting the optimizer's own bookkeeping:
   the Formula 3 loss budget is re-derived from candidate geometry with a
   cache-free context, and the WDM constraints from the assignment's
   flows. Returns one message per violated property. *)

open Operon
open Operon_optical

let eps = 1e-9

(* Everything a repetition of the same op must reproduce exactly. *)
type fingerprint = {
  fp_choice : int array;
  fp_power : float;
  fp_tracks : int;
  fp_flows : (int * int) list array;
}

let fingerprint (f : Flow.t) =
  { fp_choice = Array.copy f.Flow.choice;
    fp_power = f.Flow.power;
    fp_tracks = f.Flow.assignment.Assign.final_count;
    fp_flows = Array.copy f.Flow.assignment.Assign.flows }

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_fingerprint a b =
  a.fp_choice = b.fp_choice
  && same_float a.fp_power b.fp_power
  && a.fp_tracks = b.fp_tracks && a.fp_flows = b.fp_flows

let selection_errors (f : Flow.t) =
  let ctx = f.Flow.ctx in
  let n = Array.length ctx.Selection.cands in
  if Array.length f.Flow.choice <> n || Array.length f.Flow.hnets <> n then
    [ Printf.sprintf "choice covers %d of %d hyper nets"
        (Array.length f.Flow.choice) n ]
  else
    let out_of_range = ref 0 in
    Array.iteri
      (fun i j ->
        if j < 0 || j >= Array.length ctx.Selection.cands.(i) then
          incr out_of_range)
      f.Flow.choice;
    if !out_of_range > 0 then
      [ Printf.sprintf "%d hyper nets select no valid candidate" !out_of_range ]
    else
      let worst =
        Selection.worst_violation (Selection.uncached ctx) f.Flow.choice
      in
      let power = ref 0.0 in
      Array.iteri
        (fun i j -> power := !power +. ctx.Selection.cands.(i).(j).Candidate.power)
        f.Flow.choice;
      (if worst > eps then
         [ Printf.sprintf "optical path exceeds l_max by %.6g dB" worst ]
       else [])
      @
      if !power <> f.Flow.power then
        [ Printf.sprintf "reported power %.17g, recomputed %.17g" f.Flow.power
            !power ]
      else []

let wdm_errors params (f : Flow.t) =
  let conns = f.Flow.placement.Wdm_place.conns in
  let a = f.Flow.assignment in
  let tracks = a.Assign.tracks in
  let cap = params.Params.wdm_capacity in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let load = Array.make (Array.length tracks) 0 in
  if Array.length a.Assign.flows <> Array.length conns then
    err "flows cover %d of %d connections" (Array.length a.Assign.flows)
      (Array.length conns)
  else
    Array.iter
      (fun (c : Wdm.conn) ->
        let bits = ref 0 in
        List.iter
          (fun (t, b) ->
            if t < 0 || t >= Array.length tracks then
              err "connection %d flows onto missing track %d" c.Wdm.id t
            else begin
              let tr = tracks.(t) in
              bits := !bits + b;
              load.(t) <- load.(t) + b;
              if tr.Wdm.orient <> Wdm.orientation_of c.Wdm.seg then
                err "connection %d rides a track of the other orientation"
                  c.Wdm.id;
              if Wdm.track_distance tr c > params.Params.dis_u +. eps then
                err "connection %d is %.6g cm from its track (dis_u %.6g)"
                  c.Wdm.id (Wdm.track_distance tr c) params.Params.dis_u
            end)
          a.Assign.flows.(c.Wdm.id);
        if !bits <> c.Wdm.bits then
          err "connection %d carries %d of %d bits" c.Wdm.id !bits c.Wdm.bits)
      conns;
  Array.iteri
    (fun t (tr : Wdm.track) ->
      if tr.Wdm.used > cap || load.(t) > cap then
        err "track %d carries %d channels (capacity %d)" t
          (Stdlib.max tr.Wdm.used load.(t)) cap)
    tracks;
  let n = Array.length tracks in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ti = tracks.(i) and tj = tracks.(j) in
      let gap = Float.abs (ti.Wdm.coord -. tj.Wdm.coord) in
      if
        ti.Wdm.orient = tj.Wdm.orient
        && ti.Wdm.lo <= tj.Wdm.hi && tj.Wdm.lo <= ti.Wdm.hi
        && gap < params.Params.dis_l -. eps
      then
        err "tracks %d and %d overlap %.6g cm apart (dis_l %.6g)" i j gap
          params.Params.dis_l
    done
  done;
  List.rev !errs

let flow_errors ~path (f : Flow.t) =
  (if f.Flow.faults <> [] then
     [ Printf.sprintf "%d faults recorded" (List.length f.Flow.faults) ]
   else [])
  @ (if Array.length f.Flow.quarantined_nets > 0 then
       [ Printf.sprintf "%d nets quarantined"
           (Array.length f.Flow.quarantined_nets) ]
     else [])
  @
  if f.Flow.solver_path <> path then
    [ Printf.sprintf "solver path %S, expected %S" f.Flow.solver_path path ]
  else []

(* All checks of one op. [reference] is the fingerprint of the case's
   first repetition, when this is not it. *)
let run ~path ?reference (f : Flow.t) =
  let params = f.Flow.ctx.Selection.params in
  flow_errors ~path f @ selection_errors f @ wdm_errors params f
  @
  match reference with
  | Some fp when not (same_fingerprint fp (fingerprint f)) ->
      [ "output differs from the first repetition" ]
  | _ -> []
