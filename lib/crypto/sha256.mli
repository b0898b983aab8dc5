(** SHA-256 (FIPS 180-4), pure OCaml.

    Used for keywheel hashes, Bloom filter indices, mailbox assignment,
    IBE random oracles and HMAC. Validated against RFC 6234 test vectors.

    The compression function bounds-checks each 64-byte block once and
    then reads it with unchecked loads; it computes every Σ/σ rotation
    from one doubled word. A block costs 64 rounds of plain int
    arithmetic and allocates nothing. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> unit

val update_bytes : ctx -> bytes -> int -> int -> unit
(** [update_bytes ctx buf off len] hashes [buf[off, off+len)].
    @raise Invalid_argument if the slice is not inside [buf]; nothing is
    read or hashed then. *)

val finalize : ctx -> string
(** 32-byte digest. The context must not be reused afterwards. *)

val copy : ctx -> ctx
(** An independent context in the same state, e.g. a midstate after a
    key block. Reads [ctx] only, so several domains may copy one context
    at once. *)

val erase : ctx -> unit
(** Zero the chaining state, block buffer and schedule scratch. The
    context is dead afterwards: [update], [finalize] and [copy] raise
    [Invalid_argument]. *)

val is_erased : ctx -> bool
(** [true] when [ctx] was erased and holds only zeros. *)

val digest : string -> string
(** One-shot hash of a full string; 32 bytes. *)
