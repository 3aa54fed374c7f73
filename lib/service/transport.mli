(** Socket transport of the NDJSON protocol.

    A transport owns one or more listening sockets (Unix-domain and/or
    loopback TCP) and runs one session thread per accepted client. Each
    session reads newline-delimited requests and answers through the
    [handle] callback — {!Service.handle_line} for an in-process
    service, {!Supervisor.handle_line} for the multi-shard server — so
    the protocol semantics are identical on stdio and on sockets.

    Robustness guarantees:
    - a request line longer than [max_line] is answered with one
      ["parse_error"] envelope and the connection is closed (the stream
      cannot be resynchronized);
    - a connection idle longer than [read_timeout] seconds is answered
      with a ["timeout"] envelope and closed;
    - writes to a hung-up peer are EOF/SIGPIPE-safe: the session ends
      quietly (callers must ignore [SIGPIPE] process-wide, which the
      [operon serve] entry point does).

    Implementation note: sessions are {e systhreads}, never Domains —
    the shard supervisor forks for as long as it lives and the OCaml 5
    runtime refuses [Unix.fork] once any domain has ever been created
    in the process. *)

val write_all : Unix.file_descr -> string -> bool
(** Write a whole buffer, retrying short writes and [EINTR]. [false] if
    the peer hung up ([EPIPE]/[ECONNRESET] or zero-length write) —
    never raises for a dead peer. Requires [SIGPIPE] to be ignored
    process-wide. Shared with {!Supervisor} for its shard pipes. *)

type listener

val unix_listener : string -> listener
(** Bind and listen on a Unix-domain socket path. A stale socket file
    left by a previous run is unlinked first; {!stop} unlinks it
    again. *)

val tcp_listener : int -> listener
(** Bind and listen on loopback TCP ([127.0.0.1]); port 0 lets the
    kernel pick (see {!bound_port}). *)

val bound_port : listener -> int option
(** The actual TCP port, for [tcp_listener 0]. [None] for Unix-domain
    listeners. *)

type t

val start :
  ?read_timeout:float ->
  ?max_line:int ->
  listeners:listener list ->
  handle:(string -> string option) ->
  unit ->
  t
(** Start accepting. [read_timeout] defaults to 300 s (0 disables);
    [max_line] defaults to {!Protocol.max_line_bytes}. [handle] may
    block (the [result] op does) — each connection has its own
    thread. With no listeners nothing is started. *)

val stop : t -> unit
(** Close listeners (unlinking Unix-socket paths), shut down live
    connections and join the accept threads. Session threads finish on
    their own once their sockets are shut down. *)

val close_in_child : t -> unit
(** Fork hygiene: close every listener and connection fd inherited by a
    forked shard child. Registered with {!Supervisor.on_child_fork}. *)

val names : t -> string list
(** Human-readable listener names (["unix:/path"], ["tcp:8080"]). *)

val serve_channel :
  handle:(string -> string option) -> in_channel -> out_channel -> unit
(** The stdio session: answer each line of [ic] on [oc] through
    [handle], one flushed response line per request, until
    end-of-input. Unbounded line length — the cap is [handle]'s. *)
