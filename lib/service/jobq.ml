module Token = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let cancel t = Atomic.set t true
  let cancelled t = Atomic.get t
end

type 'a item = {
  priority : int;
  seq : int;  (* tie-breaker: FIFO within a priority *)
  token : Token.t;
  value : 'a;
}

type 'a t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  capacity : int;
  mutable items : 'a item list;  (* sorted: priority desc, seq asc *)
  mutable next_seq : int;
  mutable is_closed : bool;
}

let create ~capacity =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Jobq.create: capacity must be >= 1 (got %d)" capacity);
  { mu = Mutex.create ();
    nonempty = Condition.create ();
    capacity;
    items = [];
    next_seq = 0;
    is_closed = false }

let capacity t = t.capacity

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Drop cancelled items so they neither occupy capacity nor reach a
   worker. Called under the lock. *)
let purge t =
  t.items <- List.filter (fun it -> not (Token.cancelled it.token)) t.items

let length t = with_lock t (fun () -> purge t; List.length t.items)

let insert items it =
  let rec go = function
    | [] -> [ it ]
    | head :: _ as rest
      when it.priority > head.priority
           || (it.priority = head.priority && it.seq < head.seq) ->
        it :: rest
    | head :: rest -> head :: go rest
  in
  go items

let push t ~priority ~token value =
  with_lock t (fun () ->
      if t.is_closed then `Closed
      else begin
        purge t;
        if List.length t.items >= t.capacity then `Rejected
        else begin
          let it = { priority; seq = t.next_seq; token; value } in
          t.next_seq <- t.next_seq + 1;
          t.items <- insert t.items it;
          Condition.signal t.nonempty;
          `Queued
        end
      end)

let pop t =
  with_lock t (fun () ->
      let rec go () =
        purge t;
        match t.items with
        | it :: rest ->
            t.items <- rest;
            Some it.value
        | [] ->
            if t.is_closed then None
            else begin
              Condition.wait t.nonempty t.mu;
              go ()
            end
      in
      go ())

let close t =
  with_lock t (fun () ->
      t.is_closed <- true;
      Condition.broadcast t.nonempty)
