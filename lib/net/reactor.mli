(** The one socket event loop under both servers in [lib/net]: a
    single-domain, non-blocking [Unix.select] reactor (DESIGN.md §12–13).

    The reactor owns everything a TCP server does that is not its
    protocol: bind and listen, the accept loop, the connection table, one
    [select] per iteration, partial-write flushing, the self-pipe that lets
    {!stop} wake the loop from any domain, and the graceful drain. A
    server supplies a {!codec}: the reaction to bytes that arrived on a
    connection — output to send, and whether to keep the connection or
    close it once that output is written. {!Listener} is the HTTP codec,
    {!Rpc.Server} the frame codec.

    A connection is either reading or writing: while it has output
    pending it is watched for writability only, so a peer that stops
    reading its responses cannot make the server buffer more of them.

    [select] can watch only descriptors below [FD_SETSIZE] (1024). An
    accepted connection whose descriptor it cannot watch is closed at
    once and counted in [<prefix>.conns_refused]; the loop keeps serving
    everyone else. [<prefix>.open_connections] gauges the table.

    The module also holds the blocking-client halves both servers' peers
    need ({!connect}, {!write_all}, {!read}): socket timeouts bound every
    syscall, and errors carry a failure-class prefix. *)

type verdict =
  | Keep  (** read the connection again once its output is written *)
  | Close  (** close the connection once its output is written *)

type 's codec = {
  fresh : unit -> 's;  (** per-connection state, made at accept *)
  input : 's -> Buffer.t -> string * verdict;
      (** Called after each read with everything received and not yet
          consumed; the codec removes from the buffer what it consumed.
          Returns the output to send (possibly [""]) and the verdict. A
          [Close] with no output closes the connection at once. *)
  flushed : 's -> unit;  (** the last byte of an output was written *)
}

type 's t

val create : ?host:string -> prefix:string -> port:int -> 's codec -> 's t
(** Bind [host] (default ["127.0.0.1"]) on [port] ([0] = ephemeral) and
    listen, non-blocking. [prefix] names the server's metrics.
    @raise Unix.Unix_error when binding fails (port in use, permission). *)

val port : _ t -> int
(** The bound port — the ephemeral one when created with [port:0]. *)

val run : _ t -> unit
(** Serve — one [select] per iteration — until {!stop}, then drain: stop
    accepting, close every connection with nothing to write at once,
    give pending output a 2-second deadline to flush, and {!close}.
    Blocks. *)

val stop : _ t -> unit
(** Request the drain from any domain; idempotent. *)

val close : _ t -> unit
(** Close every descriptor now. Idempotent. *)

(** {1 Blocking client} *)

val connect : timeout:float -> host:string -> port:int -> (Unix.file_descr, string) result
(** TCP connect with [SO_RCVTIMEO]/[SO_SNDTIMEO] set to [timeout], so
    every later read and write on the socket is bounded too. The error
    is ["refused: ..."] when nothing listens, ["timeout: ..."] when the
    peer never completes the handshake, ["error: ..."] otherwise. *)

val write_all : Unix.file_descr -> string -> (unit, string) result
(** Write the whole string, looping over partial writes and [EINTR].
    Errors: ["timeout: ..."] (the send timeout expired) or
    ["write: ..."]. *)

val read : Unix.file_descr -> Bytes.t -> (int, string) result
(** One read into the whole of the bytes ([Ok 0] at end of stream),
    retrying [EINTR]. Errors: ["timeout: ..."] (the receive timeout
    expired) or ["read: ..."]. *)
