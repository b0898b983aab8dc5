(** The modified Tate pairing ê : G1 × G1 → GT ⊂ F_p²*.

    [pair params a b] computes [f_{q,a}(φ(b))^((p²−1)/q)] by Miller's
    algorithm, where φ is the distortion map [(x, y) ↦ (ζx, y)]. The
    distortion map makes the pairing symmetric and non-degenerate on G1
    (ê(g, g) ≠ 1), which is what Boneh-Franklin IBE and BLS signatures
    need. Bilinearity: ê(aP, bQ) = ê(P, Q)^{ab}.

    [pair] runs the Miller loop over the fixed-limb Montgomery kernel
    ({!Mont}). One generator walks the multiples of the first argument
    in Jacobian coordinates and emits each step's line
    [l = a·y + b·x + c] and vertical [v = d·x + e] as five coefficients
    in F_p, which depend on the first argument only; evaluating them at
    φ(b) costs three multiplications. Denominator elimination does not
    apply (φ(b) has its x-coordinate outside F_p), so each vertical is
    folded in as a multiplication by its conjugate [v^p = N(v)/v]; the
    base-field factors [N(v)], like every Jacobian scaling, die in the
    final exponentiation, which is split as [(p − 1)·12l]: a conjugate,
    one F_p inversion and a 13-bit power. [pair] and {!pair_product}
    evaluate the coefficients as they are generated; {!with_prepared}
    stores them once for a fixed first argument (a round identity key)
    so each later pairing only evaluates. [pair_reference] is the affine
    Bigint+Barrett implementation all of them are property-tested
    against. *)

module Bigint = Alpenhorn_bigint.Bigint

val pair : Params.t -> Curve.point -> Curve.point -> Fp2.el
(** @raise Invalid_argument if either argument is the point at infinity
    (those never arise in honest protocol runs; ciphertext decoding rejects
    them earlier). *)

val pair_reference : Params.t -> Curve.point -> Curve.point -> Fp2.el
(** Affine reference implementation; agrees with [pair] exactly. *)

val pair_cached : Params.t -> Curve.point -> Curve.point -> Fp2.el
(** [pair] through the parameter set's bounded fixed-argument memo
    (FIFO-evicted, one cache per domain so parallel verifies never
    contend). Callers with recurring pairs — IBE encryption to a master
    key, BLS verification against known signers — use this; hit and miss
    counts land on the ["pairing.cache_hits"/"pairing.cache_misses"]
    telemetry counters. *)

val pair_product : Params.t -> (Curve.point * Curve.point) list -> Fp2.el
(** [pair_product params \[(a1,b1); …; (an,bn)\]] is [Π ê(ai, bi)],
    computed by driving all n Miller loops in lockstep over one shared
    accumulator — the per-iteration accumulator squarings are paid once
    for the whole product, not once per pair — followed by a single
    shared final exponentiation (the final powering is multiplicative in
    F_p²). n pairings therefore cost well under n standalone [pair]
    calls. The workhorse of [Bls.verify_batch]. Returns [Fp2.one] on the
    empty list.
    @raise Invalid_argument if any point is the point at infinity. *)

type prepared
(** The stored Miller-step coefficients of one first argument. Valid
    only inside the {!with_prepared} call that made it. *)

val with_prepared : Params.t -> Curve.point -> (prepared -> 'a) -> 'a
(** [with_prepared params a f] runs the generator for [a] once, writing
    every step's coefficients into the calling domain's flat line table
    (one [int array], reused by every later call on the domain; a nested
    call gets a fresh one), and calls [f] with it. Other domains may
    evaluate the handle while [f] runs. When [f] returns or raises, the
    table is zeroed — it holds key material — and the handle is dead.
    @raise Invalid_argument if [a] is the point at infinity. *)

val pair_prepared : prepared -> Curve.point -> Fp2.el
(** [pair_prepared (prepared for a) b] is [pair params a b], evaluating
    the stored coefficients at φ(b).
    @raise Invalid_argument if [b] is the point at infinity, or if the
    handle is used after its {!with_prepared} returned. *)

val prepared_table_is_clear : unit -> bool
(** [true] when the calling domain's line table holds only zeros: no
    prepared key survives a {!with_prepared} scope (§4.4 erasure). *)

val gt_pow : Params.t -> Fp2.el -> Bigint.t -> Fp2.el
(** [gt_pow params g k] is [g^k] on the Montgomery kernel (IBE
    encryption's [e(H(id), mpk)^r]); agrees with [Fp2.pow]. *)

val warmup : Params.t -> unit
(** Force lazily initialised shared state touched by pairing operations
    (fixed-base tables, Montgomery context, cache-counter handles) so that
    worker domains only ever read it. Called at the edge of every parallel
    region; idempotent. *)

val line_and_add :
  Field.t ->
  Curve.point ->
  Curve.point ->
  xq:Fp2.el ->
  yq:Fp2.el ->
  Fp2.el * Fp2.el * Curve.point
(** One reference Miller step: the line through [t] and [u] (tangent when
    equal, vertical when the sum is O — including the 2-torsion tangent)
    and the vertical at [t + u], both evaluated at [(xq, yq)]. Exposed for
    the regression tests. *)

val gt_bytes : Params.t -> Fp2.el -> string
(** Canonical serialization of a GT element, for hashing. *)

val hash_to_group : Params.t -> string -> Curve.point
(** Boneh-Franklin admissible encoding: hash the identity string to y,
    set x = (y² − 1)^(1/3), multiply by the cofactor; retry on degenerate
    outputs. Never returns the point at infinity. *)

val hash_to_scalar : Params.t -> string -> Bigint.t
(** Hash to a nonzero scalar in [\[1, q)]. *)
