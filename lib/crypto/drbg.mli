(** Deterministic random bit generator built on ChaCha20.

    All randomness in this reproduction flows through explicit [Drbg]
    instances so that whole-system simulations are reproducible from a
    single seed. Production deployments would seed from the OS; the rest of
    the library only ever takes a [t] as a parameter (anytrust hygiene: each
    simulated server owns an independent instance). *)

type t

val create : seed:string -> t
(** Seed of any length; it is hashed into the DRBG key. *)

val derive : t -> string -> t
(** [derive t label] forks an independent generator; same [t]/[label] pair
    always yields the same stream. Used to give each simulated party its own
    deterministic randomness. *)

val bytes : t -> int -> string
val byte : t -> int
val int : t -> int -> int
(** [int t bound] uniform in [\[0, bound)] via rejection sampling. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bigint_below : t -> Alpenhorn_bigint.Bigint.t -> Alpenhorn_bigint.Bigint.t
val bigint_bits : t -> int -> Alpenhorn_bigint.Bigint.t

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates. The mixnet's secret permutation. *)

val laplace : t -> mu:float -> b:float -> float
(** Sample from the Laplace distribution with location [mu] and scale [b]
    (the Vuvuzela noise distribution; [b = 0] returns [mu] exactly, matching
    the paper's variance-free evaluation setting). *)
