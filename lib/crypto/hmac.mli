(** HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).

    HMAC-SHA256 keyed with distinct one-byte labels implements the keywheel
    hash family H1/H2/H3 of the paper (Fig 4); HKDF derives onion-layer and
    session symmetric keys.

    An HMAC tag costs two SHA-256 compressions for the key (the ipad and
    opad blocks) plus one per 64-byte block of [msg || padding] and one
    for the outer hash. A {!prepare}d key pays the first two once, so each
    further tag on a short message costs two compressions. *)

type key
(** A prepared key: the SHA-256 midstates after the ipad and opad key
    blocks. It is secret-equivalent — anyone holding it can compute every
    tag under the key — so zero it with {!erase} when done. *)

val prepare : string -> key
(** Hash the key's ipad and opad blocks once. A key longer than 64 bytes
    is hashed first, as in [hmac_sha256]. *)

val mac : key -> string -> string
(** [mac (prepare key) msg = hmac_sha256 ~key msg]; 32 bytes. Works on
    copies of the midstates and never writes the key, so several domains
    may use one prepared key at once.
    @raise Invalid_argument if the key was erased. *)

val erase : key -> unit
(** Zero both midstates. Later [mac] calls on the key raise. *)

val is_erased : key -> bool
(** [true] when the key was erased and its midstates hold only zeros. *)

val hmac_sha256 : key:string -> string -> string
(** 32-byte tag: [mac] on a key prepared for this call and erased after. *)

val hkdf : ?salt:string -> info:string -> len:int -> string -> string
(** [hkdf ~info ~len ikm]: extract-then-expand convenience wrapper. The
    expand step prepares its pseudorandom key once for all output blocks. *)
