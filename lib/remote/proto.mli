(** The Alpenhorn RPC vocabulary (DESIGN.md §13): frame tags, payload
    codecs, and blocking client wrappers for the PKG and mixer server
    processes.

    Every response reuses its request's tag and opens with a status byte
    (0 = success, 1 = a {!Pkg.error} follows); {!Alpenhorn_net.Rpc}'s
    error tag is reserved for handler crashes. Group elements travel as
    canonical bytes and are re-validated on receipt — peers are never
    trusted to send well-formed points. [now] is explicit wherever the
    PKG consults a clock, because rounds run on the orchestrator's
    logical clock.

    Client wrappers return [(_, string) result] for transport/peer
    failures; the PKG ops that can fail at the protocol level
    ({!pkg_register}, {!pkg_confirm}, {!pkg_reveal}, {!pkg_extract})
    nest the {!Pkg.error} so the two failure kinds stay distinct. *)

module Framing = Alpenhorn_net.Framing
module Rpc = Alpenhorn_net.Rpc
module Params = Alpenhorn_pairing.Params
module Bls = Alpenhorn_bls.Bls
module Ibe = Alpenhorn_ibe.Ibe
module Dh = Alpenhorn_dh.Dh
module Pkg = Alpenhorn_pkg.Pkg

(** {1 Message tags} *)

val tag_pkg_info : int
val tag_pkg_register : int
val tag_pkg_inbox : int
val tag_pkg_confirm : int
val tag_pkg_begin_round : int
val tag_pkg_reveal : int
val tag_pkg_extract : int
val tag_pkg_end_round : int
val tag_mix_info : int
val tag_mix_new_round : int
val tag_mix_process : int
val tag_mix_end_round : int
val tag_mix_ping : int

val tag_name : int -> string
(** Human-readable span name for a request tag ([0x16] → ["pkg.extract"],
    [0x22] → ["mix.process"]); unknown tags render as ["rpc.0xNN"]. The
    traced server handlers name their spans with this, so a stitched
    cross-process trace reads as protocol steps. *)

(** A mixer process hosts one chain position of {e both} mixnet chains;
    requests select which. *)
type chain = Af | Dial

val chain_of_byte : int -> chain option

(** {1 Server-side helpers} *)

val respond : int -> ((Buffer.t -> unit, Pkg.error) result) -> Framing.frame
(** Build the [tag]ged response frame: status 0 plus the filled body, or
    status 1 plus the encoded error. *)

(** {1 PKG operations (client side)} *)

val pkg_info : Rpc.Client.t -> params:Params.t -> (Bls.public, string) result
(** The PKG's long-term signing key. *)

val pkg_register :
  Rpc.Client.t -> params:Params.t -> now:int -> email:string -> pk:Bls.public ->
  ((unit, Pkg.error) result, string) result

val pkg_inbox : Rpc.Client.t -> email:string -> (string list, string) result
(** Confirmation tokens the PKG's simulated email provider delivered to
    [email], most recent first. *)

val pkg_confirm :
  Rpc.Client.t -> now:int -> email:string -> token:string ->
  ((unit, Pkg.error) result, string) result

val pkg_begin_round : Rpc.Client.t -> round:int -> (string, string) result
(** Returns the commitment to the round's IBE master public key. *)

val pkg_reveal :
  Rpc.Client.t -> params:Params.t -> round:int ->
  ((Ibe.master_public * string, Pkg.error) result, string) result
(** Returns the master public key and the commitment opening. *)

val pkg_extract :
  Rpc.Client.t -> params:Params.t -> now:int -> round:int -> email:string ->
  signature:Bls.signature ->
  ((Ibe.identity_key * Bls.signature, Pkg.error) result, string) result

val pkg_end_round : Rpc.Client.t -> round:int -> (unit, string) result

(** {1 Mixer operations (client side)} *)

val mix_new_round : Rpc.Client.t -> params:Params.t -> chain:chain -> (Dh.public, string) result

val mix_process :
  Rpc.Client.t -> params:Params.t -> chain:chain -> downstream_pks:Dh.public list ->
  noise_mu:float -> laplace_b:float -> num_mailboxes:int -> mpk_agg:string ->
  batch:string array -> (string array * int, string) result
(** One unwrap/noise/shuffle hop; returns the outgoing batch and the
    noise count. [mpk_agg] (the serialized aggregate IBE master key)
    is non-empty only for faithful add-friend noise. *)

val mix_end_round : Rpc.Client.t -> chain:chain -> (unit, string) result
val mix_ping : Rpc.Client.t -> (unit, string) result
