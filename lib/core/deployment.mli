(** The Alpenhorn round engine: N PKGs, an add-friend mixnet chain, a
    dialing mixnet chain, registration, and any number of clients — all
    driven round by round.

    This is the real protocol end to end (every onion layer, IBE
    ciphertext, signature and Bloom filter is genuine). One engine runs
    every round whatever carries it: it sequences the round (§4–§5), runs
    the §10 fault injection and recovery loop, sizes and fills the
    mailboxes, and emits the round's telemetry. What differs by transport
    is a {!backend}, a record of closures. {!create} builds the in-process
    backend over {!Pkg} and {!Alpenhorn_mixnet.Chain} values, where the
    network collapses into function calls; [Alpenhorn_remote.Net_deployment]
    builds the one that reaches PKG and mixer processes over framed TCP
    RPC. The latency/bandwidth figures of §8 use {!Alpenhorn_sim} instead,
    which prices the same message flows with a hardware cost model. *)

module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Bls = Alpenhorn_bls.Bls
module Pkg = Alpenhorn_pkg.Pkg

type t

val create : config:Config.t -> seed:string -> t
(** The in-process deployment, with a simulated email provider for
    registration. *)

(** {1 Backends} *)

type pkg = {
  public_key : unit -> Bls.public;  (** the PKG's long-term signing key *)
  register : now:int -> email:string -> pk:Bls.public -> (unit, Pkg.error) result;
  confirmation_token : email:string -> string option;
      (** the latest token the PKG's email provider delivered to [email] *)
  confirm : now:int -> email:string -> token:string -> (unit, Pkg.error) result;
  commit : round:int -> string;  (** {!Pkg.begin_round} *)
  reveal : round:int -> (Alpenhorn_ibe.Ibe.master_public * string, Pkg.error) result;
  extract_batch :
    now:int ->
    round:int ->
    (string * Bls.signature) array ->
    (Alpenhorn_ibe.Ibe.identity_key * Bls.signature, Pkg.error) result array;
  end_round : round:int -> unit;  (** erase the round's master secret *)
}
(** One PKG as the engine reaches it. *)

type chain = {
  begin_round : unit -> Alpenhorn_dh.Dh.public list;
      (** every server announces a fresh round key; chain order *)
  mix :
    noise_mu:float ->
    laplace_b:float ->
    num_mailboxes:int ->
    mpk_agg:Alpenhorn_ibe.Ibe.master_public option ->
    tracer:Alpenhorn_telemetry.Trace.t option ->
    (string * Alpenhorn_telemetry.Trace.ctx option) array ->
    (string * Alpenhorn_telemetry.Trace.ctx option) array * int;
      (** Every hop in order, then erasure of the round keys: the last
          hop's payloads and the noise added. [mpk_agg] is [Some] for
          add-friend rounds (request-sized noise, IBE-encrypted under it
          when [Config.faithful_noise]) and [None] for dialing. Raises
          {!Alpenhorn_mixnet.Chain.Aborted} when a server is down. *)
  erase : unit -> unit;  (** erase every live server's round key *)
  crash : server:int -> unit;  (** take the server at this position down *)
  restart : unit -> unit;  (** bring every crashed server back *)
}
(** One mixnet chain as the engine reaches it. *)

type backend = {
  pkg_ops : pkg array;  (** [Config.n_pkgs] entries *)
  af_chain : chain;
  dial_chain : chain;
  with_round : 'a. Alpenhorn_telemetry.Trace.t option -> phase:string -> round:int -> (unit -> 'a) -> 'a;
      (** scope of one round, retries included, given the round's tracer *)
  close : unit -> unit;  (** release transport resources *)
}

val of_backend : config:Config.t -> seed:string -> backend -> t
(** An engine over another transport. Clients derive from [seed] exactly
    as under {!create}, so both produce the same client-visible results.
    @raise Invalid_argument on a bad config. *)

val close : t -> unit
(** The backend's [close]; nothing to release in-process. *)

(** {1 Deployment state} *)

val config : t -> Config.t
val params : t -> Params.t

val pkgs : t -> Pkg.t array
(** The in-process PKGs; empty over another backend. *)

val pkg_public_keys : t -> Bls.public list
val now : t -> int
val advance_clock : t -> seconds:int -> unit

val new_client : t -> email:string -> callbacks:Client.callbacks -> Client.t
(** Create a client wired to this deployment's PKG keys (does not
    register it). *)

val register : t -> Client.t -> (unit, Pkg.error) result
(** Fig 1 [Register]: register the client's long-term key with every PKG,
    completing the email-confirmation flow through the simulated provider
    (§4.6). *)

val inbox : t -> email:string -> (int * string) list
(** Tokens the simulated email provider of {!create} delivered to [email]:
    (pkg index, token) pairs, most recent first. For compromise tests. *)

(** {1 Fault injection and recovery (DESIGN.md §10)} *)

type fault_view = {
  fv_seed : string;  (** keys the deterministic backoff jitter *)
  fv_crash_attempts : round:int -> server:int -> int;
      (** the server is down for the round's first N attempts *)
  fv_stall_seconds : round:int -> server:int -> float;
      (** first-attempt processing delay; past the policy's
          [round_timeout] it aborts the round *)
  fv_client_offline : round:int -> client:int -> bool;
      (** client (by registration index) sits the round out *)
}
(** A fault schedule as plain closures. lib/core cannot see lib/sim, so
    {!Alpenhorn_sim.Faults} converts its schedule into this view
    ([Faults.deployment_view]); tests can also hand-roll one. *)

exception Round_failed of { phase : string; round : int; attempts : int }
(** Every attempt the retry policy allowed aborted. The deployment is
    left consistent: servers restarted, clients rolled back, nothing
    published — the next round can run normally. *)

val set_faults : t -> fault_view option -> unit
(** Install (or clear) the fault schedule applied to subsequent rounds.
    Faults are injected just after the chain announces its round keys —
    the server-dies-mid-round case the anytrust abort path (§4.5) exists
    for. An aborted round rolls every participant back and re-runs after
    deterministic exponential backoff (clock time, {!advance_clock});
    aborts, retries and recovery time land in the [faults.*] metrics.
    Any other exception from a round body (a participant whose extraction
    fails, a PKG that stops answering) erases the round's secrets — PKG
    master secrets and chain round keys (§4.4) — and propagates without a
    retry; one failing participant sinks the round (DESIGN.md §10). *)

val set_retry_policy : t -> Client.retry_policy -> unit
val retry_policy : t -> Client.retry_policy
(** Defaults to {!Client.default_retry_policy}. *)

type af_stats = {
  af_round : int;
  af_attempts : int;  (** 1 = no abort; [n] = recovered on the nth try *)
  requests_in : int;
  noise_added : int;
  dropped : int;
  num_mailboxes : int;
  mailbox_bytes : int array;
  events : (string * Client.af_event) list;  (** (client email, event) *)
}

val run_addfriend_round :
  t -> ?tracer:Alpenhorn_telemetry.Trace.t -> ?participants:Client.t list -> unit -> af_stats
(** One complete add-friend round (Algorithm 1): PKG key rotation with
    commit-reveal verification, per-client key extraction, submission,
    mixing with noise, mailbox distribution, download and scan, key
    erasure. [participants] defaults to every registered client.

    With [?tracer], sampled real submissions get stitched causal traces
    (client.submit → per-server mix.hop → mailbox.publish → client.scan);
    trace contexts ride out-of-band and the wire bytes are unchanged
    (DESIGN.md §9); a backend may add its own round-scoped tracing. The
    round also logs [round.start]/[round.close] events, runs under a
    [round.addfriend] span, counts [round.completed{phase}], records a
    time-series sample and sets the [mailbox.max_load] gauge for the SLO
    engine.

    Under a fault schedule ({!set_faults}) the round may abort and re-run;
    [af_attempts] reports how many tries it took.
    @raise Round_failed when the retry budget is exhausted. *)

type dial_stats = {
  dial_round : int;
  dial_attempts : int;  (** 1 = no abort; [n] = recovered on the nth try *)
  tokens_in : int;
  dial_noise_added : int;
  dial_dropped : int;
  dial_num_mailboxes : int;
  filter_bytes : int array;
  calls : (string * Client.dial_event) list;
}

val run_dialing_round :
  t -> ?tracer:Alpenhorn_telemetry.Trace.t -> ?participants:Client.t list -> unit -> dial_stats
(** One dialing round (§5); same observability hooks as
    {!run_addfriend_round}. Under a fault schedule, a round may abort and
    re-run (see {!set_faults}; [calls] then also carries events recovered
    by returning offline clients replaying archived filters).
    @raise Round_failed when the retry budget is exhausted. *)

val addfriend_round_number : t -> int
val dialing_round_number : t -> int

(** {1 Offline clients (§5.1)} *)

val archived_filter : t -> round:int -> email:string -> Alpenhorn_bloom.Bloom.t option
(** The dialing mailbox [email] would download for [round], if the archive
    still holds that round ([Config.dial_archive_rounds] retention). *)

val catch_up_client : t -> Client.t -> Client.dial_event list
(** Bring a client that skipped dialing rounds up to the current round:
    scan every archived round it missed, advance its keywheel past the
    expired ones (§5.1's give-up rule). *)
