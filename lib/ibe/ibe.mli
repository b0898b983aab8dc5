(** Boneh-Franklin identity-based encryption with the Fujisaki-Okamoto
    transform (FullIdent), plus Alpenhorn's Anytrust-IBE aggregation (§4.2,
    Appendix A).

    The scheme is ciphertext-anonymous (§4.3): a ciphertext is a uniformly
    random G1 point plus pseudorandom bytes, revealing nothing about the
    recipient identity — the property Alpenhorn relies on for both mailbox
    privacy and mixnet noise generation.

    Anytrust aggregation is plain group linearity: encrypt under the {e sum}
    of the PKGs' master public keys; decrypt with the sum of the per-PKG
    identity keys. Compromising n−1 of n PKGs reveals nothing (Theorem 1 of
    the paper). *)

module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Pairing = Alpenhorn_pairing.Pairing
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve

type master_secret = Bigint.t
type master_public = Curve.point
type identity_key = Curve.point

val setup : Params.t -> Drbg.t -> master_secret * master_public
(** One PKG's master keypair: [s ∈ Z_q*], [s·g]. *)

val extract : Params.t -> master_secret -> string -> identity_key
(** [extract params msk id] = [s·H1(id)], the identity private key. *)

val aggregate_public : Params.t -> master_public list -> master_public
(** Sum of master public keys (Anytrust-IBE encryption key). *)

val aggregate_identity : Params.t -> identity_key list -> identity_key
(** Sum of per-PKG identity keys (Anytrust-IBE decryption key). *)

val ciphertext_overhead : Params.t -> int
(** Bytes added to the plaintext: compressed G1 point + 32-byte mask. *)

val encrypt : Params.t -> Drbg.t -> master_public -> id:string -> string -> string
(** FullIdent encryption of an arbitrary-length message to [id]. *)

type prepared
(** An identity key with its pairing coefficients precomputed
    ({!Pairing.with_prepared}); valid inside one {!with_prepared} call. *)

val with_prepared : Params.t -> identity_key -> (prepared -> 'a) -> 'a
(** [with_prepared params d_id f] prepares [d_id] once for many trial
    decryptions (a client's mailbox scan, §3.1 step 6) and calls [f]. The
    stored coefficients are zeroed when [f] returns or raises, so they
    never outlive the round identity key's erasure (§4.4). The point at
    infinity prepares a key that decrypts nothing. *)

val decrypt_prepared : ?plausible:(string -> bool) -> prepared -> string -> string option
(** [None] if the ciphertext is malformed, was encrypted to a different
    identity, or fails the Fujisaki-Okamoto consistency check. A
    plaintext for which [plausible] (default: always [true]) is [false]
    is rejected before that check, which saves the fixed-base
    multiplication on the ciphertexts of other recipients; every
    plaintext returned has passed the check. [plausible] sees
    unauthenticated bytes, so it must be a cheap byte-level test with no
    side effects. *)

val decrypt : Params.t -> identity_key -> string -> string option
(** One-shot {!decrypt_prepared} with no plausibility test. *)

val master_public_bytes : Params.t -> master_public -> string
val master_public_of_bytes : Params.t -> string -> master_public option
val identity_key_bytes : Params.t -> identity_key -> string
val identity_key_of_bytes : Params.t -> string -> identity_key option
