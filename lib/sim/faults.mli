(** Deterministic fault schedules and the retry/backoff policy (DESIGN.md
    §10).

    Alpenhorn's anytrust design (§3, §4.5) means a round cannot complete
    when {e any} mixnet or PKG server is down: the paper aborts the round
    and has clients resubmit in the next one, and lets offline clients
    catch up on missed keywheel rounds (§5.3). A {!t} is the chaos
    harness's script for exercising exactly that machinery: a list of
    (round, fault) pairs — server crashes, stalls, link latency spikes and
    loss, client offline epochs — plus the seed that keyed any random
    generation. Everything is deterministic: the same schedule (and the
    same seed for backoff jitter) reproduces the same failure trace,
    event log included, byte for byte.

    The schedule is consumed two ways: {!Alpenhorn_sim.Round_sim} applies
    it on the DES clock (modeled timing), and
    {!Alpenhorn_core.Deployment.set_faults} applies it to the real
    in-process protocol (genuine abort/rollback/retry). Both key faults by
    the {e per-phase} round number — a fault at round 2 fires in the 2nd
    add-friend round and the 2nd dialing round alike. *)

type kind =
  | Server_crash of { server : int; attempts : int }
      (** the server is down for the round's first [attempts] tries and
          restarts before the next retry *)
  | Server_stall of { server : int; seconds : float }
      (** the server processes its batch [seconds] late (first attempt
          only); a stall past the policy's [round_timeout] aborts the
          round *)
  | Link_latency of { server : int; factor : float }
      (** the server's outbound link runs [factor] times slower *)
  | Link_loss of { server : int; fraction : float }
      (** the server's outbound link drops [fraction] of messages
          (simulator only — the in-process deployment has no lossy
          links) *)
  | Client_offline of { client : int; rounds : int }
      (** client [client] (by registration index) misses [rounds]
          consecutive rounds starting at the fault's round, then catches
          up (§5.3) *)

type fault = { round : int; kind : kind }

type t
(** An immutable schedule in canonical order. *)

val empty : t

val of_list : ?seed:string -> fault list -> t
(** Sorts into canonical order; [seed] (default ["faults"]) keys backoff
    jitter. @raise Invalid_argument on out-of-range fields. *)

val seed : t -> string
val to_list : t -> fault list
val is_empty : t -> bool

(** {1 Queries} Combined effect of every matching fault in the round:
    crash attempts take the max, stalls add, latency factors and loss
    survival rates multiply. All return the identity (0 / 0.0 / 1.0 /
    false) when nothing matches. *)

val crash_attempts : t -> round:int -> server:int -> int
val stall_seconds : t -> round:int -> server:int -> float
val latency_factor : t -> round:int -> server:int -> float
val loss_fraction : t -> round:int -> server:int -> float
val client_offline : t -> round:int -> client:int -> bool

(** {1 Textual schedules} ([--faults SPEC]) — semicolon-separated entries
    [kind@round:key=value,...]: [crash@2:server=1,attempts=2],
    [stall@3:server=0,seconds=45], [latency@1:server=2,factor=3],
    [loss@1:server=0,fraction=0.2], [offline@4:client=7,rounds=2].
    [attempts] and [rounds] default to 1. *)

val to_string : t -> string
(** Canonical spec; [parse (to_string t) = Ok t]. *)

val parse : ?seed:string -> string -> (t, string) result
val pp : Format.formatter -> t -> unit

val generate :
  seed:string ->
  rounds:int ->
  n_servers:int ->
  ?n_clients:int ->
  ?crash_p:float ->
  ?stall_p:float ->
  ?latency_p:float ->
  ?loss_p:float ->
  ?offline_p:float ->
  unit ->
  t
(** Seeded random schedule ([--fault-seed]): per round, each fault kind
    fires independently with its probability (crash/stall 0.3, latency/
    loss 0.2, offline 0.2 — offline only when [n_clients > 0]). Same seed,
    same schedule, forever. *)

(** {1 Retry policy} Bounded retry with exponential backoff and
    deterministic jitter. An alias of
    {!Alpenhorn_core.Client.retry_policy} (the policy lives in core for
    layering reasons; the simulator re-exports it). *)

type policy = Alpenhorn_core.Client.retry_policy = {
  max_attempts : int;  (** total tries per round, including the first *)
  base_delay : float;  (** seconds before the first retry *)
  backoff_factor : float;  (** delay multiplier per further retry *)
  max_delay : float;  (** backoff cap, before jitter *)
  jitter : float;  (** fraction in [0, 1]: delay varies by ±jitter *)
  round_timeout : float;  (** a round stalled past this is abandoned *)
}

val default_policy : policy
(** 4 attempts, 5 s base, x2 growth capped at 60 s, ±20% jitter, 600 s
    round timeout. *)

val backoff_delay : policy -> seed:string -> attempt:int -> float
(** Delay before re-running the round after failed [attempt] (>= 1):
    [min max_delay (base_delay * backoff_factor^(attempt-1))] jittered by
    ±[jitter], the jitter drawn from a DRBG keyed on [(seed, attempt)]
    only — deterministic under the sim clock and across reruns.
    @raise Invalid_argument on a malformed policy or [attempt < 1]. *)

val deployment_view : t -> Alpenhorn_core.Deployment.fault_view
(** The schedule as the closure record
    {!Alpenhorn_core.Deployment.set_faults} takes (link latency and loss
    are simulator-only and do not appear in the view). *)
