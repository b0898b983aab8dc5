(** Onion encryption for mixnet requests (Algorithm 1, step 3).

    A client wraps its fixed-size request once per mixnet server, innermost
    layer for the last server. Each layer is an ephemeral-DH box: a fresh
    client keypair per layer per message, ChaCha20+HMAC payload under the
    shared secret with that server's {e per-round} public key. Server round
    keys are erased at the end of the round, which is what gives mixnet
    metadata its forward secrecy. *)

module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params

val layer_overhead : Params.t -> int
(** Bytes added per wrap: ephemeral public key + AEAD tag. *)

val wrap : Params.t -> Drbg.t -> server_pks:Alpenhorn_dh.Dh.public list -> string -> string
(** Wrap for the given chain, first server's layer outermost. *)

val unwrap : Params.t -> sk:Alpenhorn_dh.Dh.secret -> string -> string option
(** Strip one layer with the server's round secret. [None] if malformed,
    not encrypted to this key, or carrying an ephemeral key whose order
    divides the cofactor ({!Alpenhorn_dh.Dh.shared_secret_of_bytes}). *)
