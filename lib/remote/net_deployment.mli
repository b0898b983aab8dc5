(** The RPC backend of the round engine: {!Alpenhorn_core.Deployment}
    runs every round, with the PKGs and mixnet servers reached over framed
    TCP RPC ({!Proto}) instead of function calls.

    Clients live in the orchestrator process — the client library is
    transport-agnostic — while each PKG and each mixnet chain position is
    a separate server (an OS process spawned by [alpenhorn_cli serve-pkg]
    / [serve-mixer], or an {!Alpenhorn_net.Rpc.Server} in a test domain).
    The engine distributes the last hop's payloads into mailboxes (or
    [Config.dial_shards] shards) in the orchestrator.

    {b Determinism.} Built from the same seed, this deployment reproduces
    the in-process one's client-visible protocol results — the same
    per-client events and session keys, round for round — provided both
    run the same fault schedule (client RNG consumption on aborted
    attempts must match). Noise bytes and post-respawn round keys differ;
    no client event depends on them.

    {b Faults.} The engine's fault schedule drives {e real process kills}:
    a crash entry invokes the mixer's [kill] callback, the abort is
    detected as a transport failure, and recovery invokes [restart]
    before the round re-runs.

    {b Tracing.} Given a tracer, each round runs under a root [net.round]
    span; every RPC emits a client-side [rpc.call] span and carries a
    child context to the server on the frame envelope
    ({!Alpenhorn_net.Framing.encode_traced}), so the fleet collector
    stitches one cross-process timeline per round. All span ids are
    minted on the orchestrator; servers replay carried identities
    verbatim. Contexts ride only the RPC envelope, never protocol
    payloads (DESIGN.md §9/§14). *)

module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Pkg = Alpenhorn_pkg.Pkg

type endpoint = { host : string; port : int }

type mixer = {
  mutable ep : endpoint;  (** updated by the recovery loop after [restart] *)
  kill : unit -> unit;  (** terminate the server (SIGKILL + reap, or server stop) *)
  restart : unit -> endpoint;  (** respawn it; returns the new endpoint *)
}

type t = Deployment.t

val create :
  ?call_timeout:float ->
  config:Config.t ->
  seed:string ->
  pkgs:endpoint array ->
  mixers:mixer array ->
  unit ->
  t
(** [pkgs] must have [config.n_pkgs] entries and [mixers]
    [config.chain_length] (mixer [i] serves position [i] of both chains).
    Connections are opened lazily and cached per endpoint. A PKG
    transport failure raises [Failure] (PKGs are trusted infrastructure
    in this harness; only mixers are killable).
    @raise Invalid_argument on a bad config or count mismatch. *)

(** {1 Engine functions, by their historical names} *)

val close : t -> unit
(** Close every cached connection (servers are not touched). *)

val new_client : t -> email:string -> callbacks:Client.callbacks -> Client.t
val register : t -> Client.t -> (unit, Pkg.error) result

val pkg_public_keys : t -> Alpenhorn_bls.Bls.public list
(** Fetched over RPC ({!Proto.pkg_info}), then treated as pre-distributed
    (§3.3). *)

val run_dialing_round :
  t ->
  ?tracer:Alpenhorn_telemetry.Trace.t ->
  ?participants:Client.t list ->
  unit ->
  Deployment.dial_stats

val dialing_round_number : t -> int
