(** An in-process mixnet chain: announce keys, run every server's
    unwrap/noise/shuffle pass in order, distribute into mailboxes.

    This is the in-process deployment used by examples, tests and
    small-scale end-to-end benchmarks; the discrete-event simulator drives
    the same {!Server} objects with explicit timing instead. *)

module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params

type t

type stats = {
  real_in : int;  (** onions submitted by clients *)
  noise_added : int;  (** total noise messages across servers *)
  dropped : int;  (** cover traffic + undecryptable *)
  num_mailboxes : int;
}

exception Aborted of { server : int }
(** Raised by {!mix} when a server is down:
    the anytrust design (§4.5) cannot complete a round without every
    server, so the round aborts {e cleanly} — all per-round keys erased,
    no mailbox published (not even partially), a severity-[Error]
    [mix.round_abort] event logged — and the caller re-runs it after
    backoff ({!Alpenhorn_core.Deployment} owns that retry loop). A remote
    chain raises it too, when a mixer process stops answering. *)

val create : Params.t -> rng:Drbg.t -> chain_length:int -> t
val chain_length : t -> int
val servers : t -> Server.t array

(** {2 Fault injection (DESIGN.md §10)} *)

val crash_server : t -> server:int -> unit
(** {!Server.crash} by chain position: the next (or current) round run
    raises {!Aborted}. @raise Invalid_argument on a bad index. *)

val restart_server : t -> server:int -> unit
val server_down : t -> server:int -> bool

val abort_round : t -> unit
(** Erase every server's round key without processing anything — the
    explicit form of the cleanup {!Aborted} performs. Idempotent. *)

val begin_round : t -> Alpenhorn_dh.Dh.public list
(** Rotate every server's round key; returns the public keys, in chain
    order, for clients to onion-wrap against. *)

val mix :
  t ->
  noise_mu:float ->
  laplace_b:float ->
  num_mailboxes:int ->
  noise_body:Server.noise_body ->
  ?tracer:Alpenhorn_telemetry.Trace.t ->
  (string * Alpenhorn_telemetry.Trace.ctx option) array ->
  (string * Alpenhorn_telemetry.Trace.ctx option) array * int
(** Every server's unwrap/noise/shuffle pass in chain order, then erasure
    of all round keys. Returns the last hop's payloads, each with its
    out-of-band trace context (see {!Server.process_traced}), and the
    total noise added. Distribution is left to the caller.
    @raise Aborted when any server is down. *)

val publish :
  ?tracer:Alpenhorn_telemetry.Trace.t ->
  num_mailboxes:int ->
  (string * Alpenhorn_telemetry.Trace.ctx option) array ->
  (int * Alpenhorn_telemetry.Trace.ctx) list
(** Emit a [mailbox.publish] span for every traced payload of {!mix}'s
    output that addresses a mailbox, returning [(mailbox, ctx)] pairs whose
    [ctx] is that span — parent for the recipient's [client.scan]. *)

val run_round :
  t ->
  mode:[ `AddFriend | `Dialing ] ->
  noise_mu:float ->
  laplace_b:float ->
  num_mailboxes:int ->
  noise_body:Server.noise_body ->
  string array ->
  Mailbox.t * stats
(** {!mix} one batch end-to-end and distribute it into mailboxes.
    @raise Aborted when any server is down. *)

val run_round_traced :
  t ->
  mode:[ `AddFriend | `Dialing ] ->
  noise_mu:float ->
  laplace_b:float ->
  num_mailboxes:int ->
  noise_body:Server.noise_body ->
  ?tracer:Alpenhorn_telemetry.Trace.t ->
  (string * Alpenhorn_telemetry.Trace.ctx option) array ->
  Mailbox.t * stats * (int * Alpenhorn_telemetry.Trace.ctx) list
(** Like {!run_round} but each submission carries an optional out-of-band
    trace context (contexts never touch the wire). Returns additionally
    the {!publish}ed traced payloads. *)
