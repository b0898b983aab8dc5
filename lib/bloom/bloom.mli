(** Bloom filter encoding of dialing mailboxes (paper §5.2).

    The last mixnet server packs each dialing mailbox's 32-byte dial tokens
    into a Bloom filter so clients download ~48 bits per token instead of
    256. Parameters follow the paper: target false-positive rate 1e-10,
    which at the optimal operating point costs ~48 bits and ~33 hash
    functions per element. No false negatives: a call is never missed.

    Index derivation is deterministic from the element bytes (SHA-256
    expanded), so the server that builds the filter and the client that
    queries it need no shared state beyond the filter itself. *)

type t

val target_fp_rate : float
(** 1e-10, the paper's setting. *)

val bits_per_element : int
(** 48, the paper's setting. *)

val create : expected_elements:int -> t
(** Filter sized for [expected_elements] at the paper's operating point.
    At least one element is always provisioned. *)

val create_custom : bits:int -> hashes:int -> t
(** Explicit geometry, for ablations. *)

val add : t -> string -> unit

val mem : t -> string -> bool
(** Hashes [elem] once (SHA-256 of ["bloom" ^ elem]) and walks the index
    recurrence up to the first clear bit; builds no index array. *)

val indices : t -> string -> int array
(** The [num_hashes t] bit positions [add] sets for an element and [mem]
    tests, in order. Part of the wire format (server and client must
    agree); [mem t e] is [Array.for_all] of those bits being set. *)

val add_sub : t -> bytes -> pos:int -> len:int -> unit
(** [add] of the slice [buf[pos, pos+len)], hashed by streaming — no
    substring allocation. Byte-compatible with [add (Bytes.sub_string buf
    pos len)]; the flat-buffer sharded distribution path at 1M+ tokens.
    @raise Invalid_argument if the slice is not inside [buf]. *)

val mem_sub : t -> bytes -> pos:int -> len:int -> bool
(** Slice variant of [mem]; see {!add_sub}. *)

val fill_ratio : t -> float
(** Fraction of bits set — the direct load measurement behind
    {!false_positive_estimate} ([fill_ratio^k] is the empirical FP rate). *)

val size_bits : t -> int
val size_bytes : t -> int
val num_hashes : t -> int
val count : t -> int
(** Number of elements added. *)

val to_bytes : t -> string
(** Wire format: geometry header + bit array. *)

val of_bytes : string -> t option

val false_positive_estimate : t -> float
(** Expected FP rate at the current load. *)
