(** Ephemeral Diffie-Hellman key exchange over the pairing curve's G1.

    Two uses in Alpenhorn: the [DialingKey] in friend requests, from which
    both clients derive the initial keywheel secret (§4.7), and the
    per-round onion-layer keys between clients and mixnet servers
    (Algorithm 1 step 3).

    Note: G1 on a supersingular curve has MOV reduction to [F_p²], so the
    effective DH security is that of a [~2·|p|]-bit finite field — below the
    128-bit target of the paper's deployment. Acceptable for this
    reproduction; swapping in X25519 would be a drop-in change behind this
    interface. *)

module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params

type secret = Bigint.t
type public = Alpenhorn_pairing.Curve.point

val keygen : Params.t -> Drbg.t -> secret * public
val public_of_secret : Params.t -> secret -> public

val shared_secret : Params.t -> secret -> public -> string
(** 32-byte shared key: KDF of the compressed shared point. Both sides
    compute the same value. The scalar is [sk] adjusted to a multiple of
    the cofactor without changing it mod q, so a peer key's small-order
    component, if any, does not affect the result and reveals nothing
    about [sk]: for [Q] in G1 and any [T] of order dividing the cofactor,
    the secret with [Q + T] is the secret with [Q].
    @raise Invalid_argument if the peer key is the point at infinity or
    has small order (which {!public_of_bytes} never returns). *)

val shared_secret_of_bytes : Params.t -> secret -> string -> string option
(** [shared_secret] with the peer key decoded from its bytes; [None]
    exactly where {!public_of_bytes} would be [None]. A small-order key
    is found by the shared point coming out as infinity, so this costs
    one cofactor multiplication less than decoding first. *)

val public_bytes : Params.t -> public -> string
val public_of_bytes : Params.t -> string -> public option
(** Rejects malformed encodings, off-curve points, the point at infinity
    and every other point whose order divides the cofactor (checked with
    a cofactor multiplication). *)

val public_size : Params.t -> int
