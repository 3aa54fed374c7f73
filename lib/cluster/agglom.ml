open Operon_geom

type hyper_pin = { members : int array; center : Point.t }

type cluster = { mutable pts : int list; mutable ctr : Point.t; mutable size : int }

(* The distance between two live clusters; NaN, which no comparison
   picks, when either is merged away. *)
let[@inline] dist clusters i j =
  match (clusters.(i), clusters.(j)) with
  | Some ci, Some cj -> Point.l2 ci.ctr cj.ctr
  | _ -> nan

let merge pins ~threshold =
  let n = Array.length pins in
  if n = 0 then [||]
  else if threshold <= 0.0 then
    Array.mapi (fun i p -> { members = [| i |]; center = p }) pins
  else begin
    let clusters =
      Array.init n (fun i -> Some { pts = [ i ]; ctr = pins.(i); size = 1 })
    in
    (* Each live cluster's nearest live cluster above it, the lowest index
       on ties, and their distance (-1 and infinity when there is none).
       The closest pair of live clusters, the first in (i, j) order on
       ties, is then row [i]'s pair for the first [i] of least [near_d]. *)
    let near = Array.make n (-1) and near_d = Array.make n infinity in
    let refresh i =
      near.(i) <- -1;
      near_d.(i) <- infinity;
      for j = i + 1 to n - 1 do
        let d = dist clusters i j in
        if d < near_d.(i) then begin
          near.(i) <- j;
          near_d.(i) <- d
        end
      done
    in
    for i = 0 to n - 1 do
      refresh i
    done;
    let merging = ref true in
    while !merging do
      let bi = ref (-1) in
      for i = 0 to n - 1 do
        if Option.is_some clusters.(i) && near.(i) >= 0 && (!bi < 0 || near_d.(i) < near_d.(!bi))
        then bi := i
      done;
      if !bi >= 0 && near_d.(!bi) < threshold then begin
        let a = !bi and b = near.(!bi) in
        match (clusters.(a), clusters.(b)) with
        | Some ci, Some cj ->
            (* Weighted gravity centre keeps the running mean exact. *)
            let total = ci.size + cj.size in
            let w1 = float_of_int ci.size /. float_of_int total in
            let w2 = float_of_int cj.size /. float_of_int total in
            ci.ctr <-
              Point.add (Point.scale w1 ci.ctr) (Point.scale w2 cj.ctr);
            ci.pts <- cj.pts @ ci.pts;
            ci.size <- total;
            clusters.(b) <- None;
            (* Cluster a moved and b is gone: rows that pointed at either
               look again, and rows below a compare a's new distance. *)
            refresh a;
            for i = 0 to b - 1 do
              if i <> a && Option.is_some clusters.(i) then
                if near.(i) = a || near.(i) = b then refresh i
                else if i < a then begin
                  let d = dist clusters i a in
                  if d < near_d.(i) || (d = near_d.(i) && a < near.(i)) then begin
                    near.(i) <- a;
                    near_d.(i) <- d
                  end
                end
            done
        | _ -> assert false
      end
      else merging := false
    done;
    let out = ref [] in
    for i = n - 1 downto 0 do
      match clusters.(i) with
      | None -> ()
      | Some c ->
          let members = Array.of_list (List.sort compare c.pts) in
          out := { members; center = c.ctr } :: !out
    done;
    (* Order hyper pins by their smallest member pin. *)
    List.sort (fun a b -> compare a.members.(0) b.members.(0)) !out
    |> Array.of_list
  end
