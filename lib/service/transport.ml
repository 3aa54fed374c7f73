(* Socket front-end of the NDJSON service: a listener accepts
   connections and runs one line-oriented session per client thread.
   Everything here is systhreads — never Domains — because the shard
   supervisor must be able to [Unix.fork] for as long as it lives, and
   the OCaml runtime refuses to fork once any domain has been created. *)

type listener = {
  l_fd : Unix.file_descr;
  l_name : string;
  l_cleanup : unit -> unit;  (* e.g. unlink a unix-socket path *)
}

type conn = { c_fd : Unix.file_descr; mutable c_open : bool }

type t = {
  listeners : listener list;
  handle : string -> string option;
  read_timeout : float;
  max_line : int;
  mu : Mutex.t;
  mutable conns : conn list;
  mutable accepting : bool;
  mutable accept_threads : Thread.t list;
}

let unix_listener path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  { l_fd = fd;
    l_name = "unix:" ^ path;
    l_cleanup = (fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
  }

let tcp_listener port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  { l_fd = fd;
    l_name = Printf.sprintf "tcp:%d" port;
    l_cleanup = ignore }

let bound_port l =
  match Unix.getsockname l.l_fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | _ -> None

(* EOF/SIGPIPE-safe write of a whole buffer. The caller must have
   SIGPIPE ignored process-wide (the serve entry points do); a peer
   that hung up turns into [false] instead of a signal or an
   exception. *)
let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off >= n then true
    else
      match Unix.write fd b off (n - off) with
      | 0 -> false
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

exception Line_too_long
exception Timed_out

(* Line reader bounded by [max_line]: a client that streams a megabyte
   with no newline is answered with one parse_error envelope and
   dropped, instead of growing an unbounded buffer. *)
let session t conn =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 8192 in
  let read_more () =
    match Unix.read conn.c_fd chunk 0 (Bytes.length chunk) with
    | 0 -> false
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise Timed_out
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> false
  in
  let take_line () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
        Some (String.sub s 0 i)
    | None ->
        if String.length s > t.max_line then raise Line_too_long else None
  in
  let respond line =
    match t.handle line with
    | None -> true
    | Some reply -> write_all conn.c_fd (reply ^ "\n")
  in
  let rec loop () =
    match take_line () with
    | Some line -> if respond line then loop ()
    | None -> if read_more () then loop ()
  in
  try loop () with
  | Line_too_long ->
      ignore (write_all conn.c_fd (Protocol.line_too_long t.max_line ^ "\n"))
  | Timed_out ->
      ignore
        (write_all conn.c_fd
           (Protocol.error ~kind:"timeout"
              ~detail:
                (Printf.sprintf "no request within %gs; closing" t.read_timeout)
              ()
           ^ "\n"))

let close_conn t conn =
  Mutex.lock t.mu;
  let still_open = conn.c_open in
  conn.c_open <- false;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.mu;
  if still_open then try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

let accept_loop t l =
  let rec loop () =
    match Unix.accept ~cloexec:true l.l_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> if t.accepting then loop ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        if not t.accepting then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          if t.read_timeout > 0.0 then
            (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.read_timeout
             with Unix.Unix_error _ -> ());
          let conn = { c_fd = fd; c_open = true } in
          Mutex.lock t.mu;
          t.conns <- conn :: t.conns;
          Mutex.unlock t.mu;
          ignore
            (Thread.create
               (fun () ->
                 Fun.protect
                   ~finally:(fun () -> close_conn t conn)
                   (fun () -> session t conn))
               ());
          loop ()
        end
  in
  loop ()

let start ?(read_timeout = 300.0) ?(max_line = Protocol.max_line_bytes)
    ~listeners ~handle () =
  let t =
    { listeners;
      handle;
      read_timeout;
      max_line;
      mu = Mutex.create ();
      conns = [];
      accepting = true;
      accept_threads = [] }
  in
  t.accept_threads <-
    List.map (fun l -> Thread.create (fun () -> accept_loop t l) ()) listeners;
  t

let stop t =
  t.accepting <- false;
  List.iter
    (fun l ->
      (try Unix.shutdown l.l_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
      l.l_cleanup ())
    t.listeners;
  Mutex.lock t.mu;
  let conns = t.conns in
  Mutex.unlock t.mu;
  List.iter
    (fun c ->
      try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter Thread.join t.accept_threads

(* Fork hygiene: a forked shard child must not hold the listening
   sockets or any client connection open — a crashed-then-restarted
   sibling could otherwise never rebind, and clients would never see
   EOF. Registered via {!Supervisor.on_child_fork}. Best-effort: a
   connection accepted concurrently with the fork can slip through;
   it is closed when that client disconnects from the parent. *)
let close_in_child t =
  List.iter
    (fun l -> try Unix.close l.l_fd with Unix.Unix_error _ -> ())
    t.listeners;
  List.iter
    (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
    t.conns

let names t = List.map (fun l -> l.l_name) t.listeners

let serve_channel ~handle ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        (match handle line with
        | Some response ->
            output_string oc response;
            output_char oc '\n';
            flush oc
        | None -> ());
        loop ()
  in
  loop ()
