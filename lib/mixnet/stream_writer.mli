(** Bounded streaming writer for round state.

    Mailbox contents at million-user scale must not be materialized on the
    heap as one blob per round; they are streamed through a fixed-capacity
    buffer to a caller-supplied sink (a socket, a file, a counter).  The
    writer holds at most [capacity] bytes at any instant — {!peak_buffered}
    reports the high-water mark so tests and the scale SLO can assert the
    bound.

    Records framed with {!write_record} (u32be length + body) round-trip
    through {!iter_records}/{!fold_records}; that is the wire framing of
    sharded plain (add-friend) mailboxes. *)

type sink = bytes -> int -> int -> unit
(** [sink buf pos len] consumes [len] bytes of [buf] starting at [pos].
    The bytes are only valid during the call. *)

type t

val default_capacity : int
(** 64 KiB. *)

val create : ?capacity:int -> sink -> t
(** @raise Invalid_argument when [capacity < 8]. *)

val capacity : t -> int

val write : t -> string -> unit
(** Append [s], flushing to the sink whenever the buffer fills; input
    larger than the capacity is cut into capacity-sized flushes. *)

val write_record : t -> string -> unit
(** Append a u32be length prefix followed by the body. *)

val flush : t -> unit
(** Push any buffered bytes to the sink. *)

val written : t -> int
(** Total bytes handed to the sink so far (excludes still-buffered bytes). *)

val peak_buffered : t -> int
(** High-water mark of the bytes buffered awaiting flush — always
    [<= capacity]. *)

val iter_records : string -> (string -> unit) -> bool
(** Decode a concatenation of {!write_record} frames, calling [f] per body
    in order. Returns [false] when the blob is truncated or malformed
    (bodies before the corruption point are still delivered). *)

val fold_records : string -> ('a -> string -> 'a) -> 'a -> 'a * bool
(** Fold over record bodies; the boolean is {!iter_records}'s validity. *)

val counting_sink : unit -> sink * (unit -> int)
(** A sink that discards bytes but counts them — sizing passes and
    benchmarks that only need volume, not content. *)

val buffer_sink : Buffer.t -> sink
(** A sink appending into a [Buffer.t], for tests and small rounds. *)
