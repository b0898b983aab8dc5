(** HTTP/1.1 over the shared {!Reactor} loop, with length-bounded
    request parsing (DESIGN.md §12). It serves the live telemetry
    endpoints ({!Alpenhorn_telemetry.Expose} supplies the handler) — the
    metrics plane of every server binary, next to its {!Rpc.Server}.

    Shape: {!create} binds and listens (port [0] picks an ephemeral port
    — read it back with {!port}); {!run} drives the loop until {!stop}.
    One domain runs the loop; {!stop} is safe from any other domain.
    The {!Reactor} owns the sockets; this module is the codec. Each
    connection carries one request: read until the header terminator
    (bounded by [max_request_bytes] — oversized requests get HTTP 431),
    parse the request line and headers, percent-decode the query, call
    the handler, write the response with [Connection: close]. A graceful
    {!stop} stops accepting, closes connections still sending their
    request, and finishes writing in-flight responses under the
    reactor's 2-second drain deadline.

    Telemetry: [net.requests{status}] counters, a [net.request_seconds]
    histogram (accept-to-last-byte, registry clock), the
    [net.open_connections] gauge and the [net.conns_refused] counter
    (connections the loop could not watch, {!Reactor}) — the listener
    observes itself through the same registry it usually serves.

    {!fetch} is the matching minimal HTTP/1.1 client (used by the [top]
    dashboard, the CI endpoint smoke test and the [--probe] self-check —
    no curl anywhere). *)

type request = {
  meth : string;  (** uppercased, e.g. ["GET"] *)
  path : string;  (** percent-decoded, query stripped, e.g. ["/metrics"] *)
  query : (string * string) list;  (** percent-decoded key/value pairs *)
  headers : (string * string) list;  (** names lowercased *)
}

type response = { status : int; content_type : string; body : string }

type handler = request -> response
(** Must not raise; a raising handler is answered with a plain 500 and
    the exception is swallowed (the loop must survive any request). *)

type t

val create : ?host:string -> ?max_request_bytes:int -> port:int -> handler -> t
(** Bind [host] (default ["127.0.0.1"]) on [port] ([0] = ephemeral) and
    listen. [max_request_bytes] (default 8192)
    bounds the buffered request head; longer requests are rejected with
    431 before parsing.
    @raise Unix.Unix_error when binding fails (port in use, permission). *)

val port : t -> int
(** The actually bound port — the ephemeral port when created with
    [port:0]. *)

val run : t -> unit
(** Serve until {!stop}, then drain in-flight responses and close every
    descriptor. Blocks; typically [Domain.spawn (fun () -> run t)]. *)

val stop : t -> unit
(** Request graceful shutdown from any domain; idempotent. {!run}
    returns once drained. *)

val close : t -> unit
(** Force-close every descriptor now — for a listener that was never
    {!run}. {!run} calls it on exit. Idempotent. *)

val fetch :
  ?timeout:float -> ?host:string -> port:int -> string -> (int * string, string) result
(** [fetch ~port path]: one blocking HTTP/1.1 GET against
    [host] (default ["127.0.0.1"]), returning [(status, body)].
    [timeout] (default 5 s) bounds connect, write and read. The [Error]
    string is prefixed with its failure class so callers (the fleet
    scraper's staleness logic) can distinguish a dead process from a
    hung one: ["refused: ..."] when nothing is listening,
    ["timeout: ..."] when a peer exists but never answers (including a
    server that accepts the connection and then goes silent), and
    ["read: ..."] / ["write: ..."] / ["error: ..."] /
    ["malformed response: ..."] otherwise. *)

val url_decode : string -> string
(** Percent-decoding with [+] as space; invalid escapes pass through
    verbatim. Exposed for tests. *)
