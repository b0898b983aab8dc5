(** HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).

    HMAC-SHA256 keyed with distinct one-byte labels implements the keywheel
    hash family H1/H2/H3 of the paper (Fig 4); HKDF derives onion-layer and
    session symmetric keys. *)

val hmac_sha256 : key:string -> string -> string
(** 32-byte tag. *)

val hkdf : ?salt:string -> info:string -> len:int -> string -> string
(** [hkdf ~info ~len ikm]: extract-then-expand convenience wrapper. *)
