(** Fixed-width Montgomery arithmetic over [F_p] — the multiplication
    kernel under the pairing stack's hot path.

    An {!el} is a flat little-endian array of exactly 8 31-bit limbs
    (248 bits) holding [a·R mod p] with [R = 2^248]; 31-bit limbs keep
    every CIOS partial product inside OCaml's 63-bit native [int]. A
    {!ctx} carries the modulus and the precomputed constants
    ([−p⁻¹ mod 2^31], [R² mod p]). With the width fixed, [mul] is the CIOS
    algorithm written out as eight straight-line rows over an accumulator
    held in local variables, and [add], [sub] and the final subtraction
    are written out limb by limb too: no loops, no scratch buffer, one
    allocation for the result.

    Values stay in Montgomery form across whole computations (Miller
    loops, scalar ladders, final exponentiations); only
    {!of_bigint}/{!to_bigint} pay the conversion. The generic
    Bigint+Barrett path in {!Field} remains the reference implementation;
    [test/test_mont.ml] cross-validates every operation against it.

    Every [mul]/[sqr] bumps the ["pairing.mont_mul"] telemetry counter on
    the default registry, which is how `bench smoke` proves the fast path
    is actually selected. Not constant-time (see {!Alpenhorn_crypto}).
    A [ctx] is immutable, so several domains can share one. *)

module Bigint = Alpenhorn_bigint.Bigint

type el = int array
(** One field element in Montgomery form, 8 limbs. Treat as opaque;
    aliasing is safe because no exported operation mutates its inputs. *)

type ctx

val create : Bigint.t -> ctx
(** Precompute a context for an odd modulus of at most 248 bits.
    @raise Invalid_argument if the modulus is even, not positive or
    wider than 248 bits. *)

val limbs : ctx -> int
(** The number of limbs in every element: 8. *)

val zero : ctx -> el
val one : ctx -> el

val of_bigint : ctx -> Bigint.t -> el
(** Any value (reduced mod p first, negatives included). *)

val to_bigint : ctx -> el -> Bigint.t
(** Back to a canonical value in [[0, p)]. *)

val is_zero : el -> bool
val equal : el -> el -> bool

val add : ctx -> el -> el -> el
val sub : ctx -> el -> el -> el
val neg : ctx -> el -> el

val mul : ctx -> el -> el -> el
(** CIOS Montgomery multiplication: [abR⁻¹ mod p]. *)

val sqr : ctx -> el -> el

(** {2 Elements stored in a flat table}

    A table of many elements (the prepared Miller lines of {!Pairing}) is
    one [int array] holding element [k] at limbs [[8k, 8k+8)]. These
    read one operand from such a table at a limb offset, so evaluating a
    stored element costs no copy. @raise Invalid_argument if the slice
    runs past the table. *)

val mul_at : ctx -> int array -> int -> el -> el
(** [mul_at ctx buf off b] is [mul ctx a b] for the [a] stored at [off]. *)

val add_at : ctx -> int array -> int -> el -> el
(** [add_at ctx buf off b] is [a + b] for the [a] stored at [off]. *)

val sub_at : ctx -> int array -> int -> el -> el
(** [sub_at ctx buf off b] is [a − b] for the [a] stored at [off]. *)

val store : ctx -> el -> int array -> int -> unit
(** [store ctx a buf off] writes [a] into the table at [off]. *)

val mul_small : ctx -> el -> int -> el
(** Multiply by a small non-negative plain integer (the 2/3/8 of the
    curve formulas) by double-and-add; counts no [mont_mul].
    @raise Invalid_argument outside [[0, 2^31)]. *)

val pow : ctx -> el -> Bigint.t -> el
(** Exponent is a plain (non-Montgomery) non-negative Bigint. Fixed 4-bit
    windows above 32 exponent bits, plain square-and-multiply below. *)

val inv : ctx -> el -> el
(** Fermat inversion [a^(p−2)]; p must be prime (true for every field
    this repo constructs). @raise Division_by_zero on zero. *)

(** [F_p² = F_p[i]/(i²+1)] with components in Montgomery form: the
    operations the pairing's final exponentiation and GT powers need,
    mirroring {!Fp2}. *)
module F2 : sig
  type f2 = { re : el; im : el }

  val one : ctx -> f2
  val mul : ctx -> f2 -> f2 -> f2
  val sqr : ctx -> f2 -> f2
  val mul_el : ctx -> f2 -> el -> f2
  val pow : ctx -> f2 -> Bigint.t -> f2
end
