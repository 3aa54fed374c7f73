open Operon
open Operon_geom

type entry = {
  e_design : Signal.design;
  e_config : Flow.Config.t;  (* the preparing submission's config *)
  e_key : string;
  e_lock : Mutex.t;
  mutable e_prepared : Flow.prepared option;
  mutable e_uses : int;
  mutable e_last_use : int;  (* registry tick of the latest lookup *)
}

type t = {
  mu : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  capacity : int option;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  capacity : int option;
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Registry.create: capacity must be >= 1"
  | _ -> ());
  { mu = Mutex.create ();
    tbl = Hashtbl.create 16;
    capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* %h renders the exact bit pattern of a float, so the fingerprint can
   never identify two designs that differ by less than a print format. *)
let add_point buf (p : Point.t) =
  Buffer.add_string buf (Printf.sprintf "%h,%h;" p.Point.x p.Point.y)

let fingerprint (design : Signal.design) =
  let buf = Buffer.create 4096 in
  let die = design.Signal.die in
  Buffer.add_string buf
    (Printf.sprintf "die:%h,%h,%h,%h\n" die.Rect.xmin die.Rect.ymin
       die.Rect.xmax die.Rect.ymax);
  Array.iter
    (fun (g : Signal.group) ->
      Buffer.add_string buf "group:";
      Buffer.add_string buf g.Signal.name;
      Buffer.add_char buf '\n';
      Array.iter
        (fun (b : Signal.bit) ->
          Buffer.add_string buf "bit:";
          add_point buf b.Signal.source;
          Array.iter (add_point buf) b.Signal.sinks;
          Buffer.add_char buf '\n')
        g.Signal.bits)
    design.Signal.groups;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let key (config : Flow.Config.t) design =
  (* Only the preparation-relevant configuration participates: what
     [Flow.prepare] reads. Params and processing overrides are
     records of immediates, so the polymorphic hash is stable within a
     process — the registry never outlives one. *)
  let prep_bits =
    Printf.sprintf "seed=%d;cands=%d;params=%d;processing=%d"
      config.Flow.Config.seed config.Flow.Config.max_cands_per_net
      (Hashtbl.hash config.Flow.Config.params)
      (Hashtbl.hash config.Flow.Config.processing)
  in
  fingerprint design ^ ":" ^ Digest.to_hex (Digest.string prep_bits)

(* Must hold [t.mu]. Evicts least-recently-used entries (never [keep])
   until the table fits the capacity. An entry whose [e_lock] is held —
   a preparation or a prepared-artifact user in flight — is not
   evictable: removing it mid-preparation would let a concurrent submit
   of the same content-hash re-create and re-prepare the design the
   first thread is already preparing. The victim's lock is acquired
   with [try_lock] and held across the [Hashtbl.remove] so nobody can
   start using the entry between selection and removal. When every
   candidate is locked the table temporarily overflows instead. *)
let enforce_capacity (t : t) ~keep =
  match t.capacity with
  | None -> ()
  | Some cap ->
      while Hashtbl.length t.tbl > cap do
        let victim = ref None in
        Hashtbl.iter
          (fun _ e ->
            if e != keep then
              match !victim with
              | Some v when v.e_last_use <= e.e_last_use -> ()
              | prev ->
                  if Mutex.try_lock e.e_lock then begin
                    (match prev with
                    | Some v -> Mutex.unlock v.e_lock
                    | None -> ());
                    victim := Some e
                  end)
          t.tbl;
        match !victim with
        | None -> raise Exit (* nothing evictable: overflow until free *)
        | Some v ->
            Hashtbl.remove t.tbl v.e_key;
            t.evictions <- t.evictions + 1;
            Mutex.unlock v.e_lock
      done

let enforce_capacity t ~keep =
  try enforce_capacity t ~keep with Exit -> ()

let lookup t ~config design ~count design_key =
  with_lock t.mu (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.tbl design_key with
      | Some e ->
          e.e_uses <- e.e_uses + 1;
          e.e_last_use <- t.tick;
          if count then t.hits <- t.hits + 1;
          Some (e, true)
      | None ->
          if not count then None
          else begin
            t.misses <- t.misses + 1;
            let e =
              { e_design = design;
                e_config = config;
                e_key = design_key;
                e_lock = Mutex.create ();
                e_prepared = None;
                e_uses = 1;
                e_last_use = t.tick }
            in
            Hashtbl.add t.tbl design_key e;
            enforce_capacity t ~keep:e;
            Some (e, false)
          end)

let prepare_entry t ~key:design_key entry prep =
  (* Prepare outside the registry mutex: a slow first-sight design must
     not stall lookups (or preparations) of other designs. Concurrent
     submissions of the same design block here until the first one's
     preparation lands. *)
  try
    with_lock entry.e_lock (fun () ->
        match entry.e_prepared with
        | Some _ -> ()
        | None -> entry.e_prepared <- Some (prep ()))
  with e ->
    (* A faulting preparation must not leave a poisoned entry behind:
       evict it so a later submission retries from scratch. *)
    let bt = Printexc.get_raw_backtrace () in
    with_lock t.mu (fun () ->
        match Hashtbl.find_opt t.tbl design_key with
        | Some cur when cur == entry && cur.e_prepared = None ->
            Hashtbl.remove t.tbl design_key
        | _ -> ());
    Printexc.raise_with_backtrace e bt

let find_or_prepare ?prev t ~config design =
  let design_key = key config design in
  let entry, reused =
    Option.get (lookup t ~config design ~count:true design_key)
  in
  prepare_entry t ~key:design_key entry (fun () ->
      match prev with
      | None -> Flow.prepare entry.e_config entry.e_design
      | Some prev ->
          Flow.prepare_eco ~prev:(Lazy.from_val prev) entry.e_config
            entry.e_design);
  (entry, reused)

let find_prepared t ~config design =
  match lookup t ~config design ~count:false (key config design) with
  | None -> None
  | Some (entry, _) ->
      with_lock entry.e_lock (fun () -> entry.e_prepared)

let with_prepared entry f =
  with_lock entry.e_lock (fun () ->
      match entry.e_prepared with
      | Some prepared -> f prepared
      | None ->
          (* Unreachable through [find_or_prepare], which never publishes
             an unprepared entry. *)
          invalid_arg "Registry.with_prepared: entry not prepared")

let stats (t : t) =
  with_lock t.mu (fun () ->
      { entries = Hashtbl.length t.tbl;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        capacity = t.capacity })
