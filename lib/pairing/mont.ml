(* Fixed-width Montgomery arithmetic kernel.

   Elements are flat little-endian arrays of exactly 8 limbs of 31 bits
   (248 bits), held in Montgomery form (a·R mod p with R = 2^248). Every
   modulus this repo uses fits: the test curve's 72-bit p and the
   production curve's 237-bit p. 31-bit limbs make every partial product
   fit a native 63-bit OCaml int: (2^31−1)² + 2·(2^31−1) = 2^62 − 1, so
   the CIOS rows need no overflow handling and no boxing. With the width
   fixed, every operation is written out limb by limb: no loop counters,
   no scratch buffer, and the accumulator lives in local variables. This
   is the multiplication that every pairing, IBE and BLS operation in the
   system bottoms out in; the generic Bigint + Barrett path in [Field]
   stays as the reference implementation the property tests compare
   against. *)

module Bigint = Alpenhorn_bigint.Bigint
module Tel = Alpenhorn_telemetry.Telemetry

let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1
let width = 8
let max_bits = limb_bits * width

type el = int array

type ctx = {
  p : int array; (* modulus, 8 limbs *)
  p0inv : int; (* -p⁻¹ mod 2^31 *)
  r2 : el; (* R² mod p: of_bigint multiplies by this *)
  one_m : el; (* R mod p = Montgomery form of 1 *)
  one_raw : el; (* plain 1; mont-mul by it converts out of Montgomery form *)
  pm2 : Bigint.t; (* p − 2, the Fermat inversion exponent *)
  p_big : Bigint.t;
  c_mul : Tel.Counter.t; (* kernel invocations ("pairing.mont_mul") *)
}

(* -p⁻¹ mod 2^31 by Newton's iteration: x ← x(2 − p₀x) doubles the number
   of correct low bits each step; x₀ = p₀ is correct mod 8 for odd p₀. *)
let neg_inv_limb p0 =
  let x = ref p0 in
  for _ = 1 to 5 do
    let t = (2 - (p0 * !x)) land mask in
    x := !x * t land mask
  done;
  (base - !x) land mask

let limbs_of_bigint x =
  let l = Bigint.to_limbs x in
  if Array.length l > width then invalid_arg "Mont: value wider than modulus";
  let a = Array.make width 0 in
  Array.blit l 0 a 0 (Array.length l);
  a

let create p_big =
  if Bigint.is_even p_big || Bigint.sign p_big <= 0 then
    invalid_arg "Mont.create: modulus must be odd and positive";
  if Bigint.numbits p_big > max_bits then invalid_arg "Mont.create: modulus wider than 248 bits";
  let p = limbs_of_bigint p_big in
  let r = Bigint.shift_left Bigint.one max_bits in
  {
    p;
    p0inv = neg_inv_limb p.(0);
    r2 = limbs_of_bigint (Bigint.rem (Bigint.mul r r) p_big);
    one_m = limbs_of_bigint (Bigint.rem r p_big);
    one_raw = limbs_of_bigint Bigint.one;
    pm2 = Bigint.sub p_big Bigint.two;
    p_big;
    c_mul = Tel.Counter.v Tel.default "pairing.mont_mul";
  }

let limbs _ = width
let zero _ = Array.make width 0
let one ctx = Array.copy ctx.one_m

let is_zero a = a.(0) lor a.(1) lor a.(2) lor a.(3) lor a.(4) lor a.(5) lor a.(6) lor a.(7) = 0

let equal a b =
  a.(0) = b.(0) && a.(1) = b.(1) && a.(2) = b.(2) && a.(3) = b.(3)
  && a.(4) = b.(4) && a.(5) = b.(5) && a.(6) = b.(6) && a.(7) = b.(7)

(* The element t0..t7 plus a carry limb t8, known to be below 2p: minus p
   when t8 is set or t ≥ p (a set t8 is cancelled by the final borrow),
   as is otherwise. *)
let reduce_once ctx t0 t1 t2 t3 t4 t5 t6 t7 t8 =
  let p = ctx.p in
  let p0 = Array.unsafe_get p 0 and p1 = Array.unsafe_get p 1 and p2 = Array.unsafe_get p 2
  and p3 = Array.unsafe_get p 3 and p4 = Array.unsafe_get p 4 and p5 = Array.unsafe_get p 5
  and p6 = Array.unsafe_get p 6 and p7 = Array.unsafe_get p 7 in
  if
    t8 <> 0
    ||
    if t7 <> p7 then t7 > p7
    else if t6 <> p6 then t6 > p6
    else if t5 <> p5 then t5 > p5
    else if t4 <> p4 then t4 > p4
    else if t3 <> p3 then t3 > p3
    else if t2 <> p2 then t2 > p2
    else if t1 <> p1 then t1 > p1
    else t0 >= p0
  then begin
    (* [s asr 31] is the borrow into the next limb: −1 or 0 *)
    let s = t0 - p0 in let r0 = s land mask in
    let s = t1 - p1 + (s asr 31) in let r1 = s land mask in
    let s = t2 - p2 + (s asr 31) in let r2 = s land mask in
    let s = t3 - p3 + (s asr 31) in let r3 = s land mask in
    let s = t4 - p4 + (s asr 31) in let r4 = s land mask in
    let s = t5 - p5 + (s asr 31) in let r5 = s land mask in
    let s = t6 - p6 + (s asr 31) in let r6 = s land mask in
    let s = t7 - p7 + (s asr 31) in let r7 = s land mask in
    [| r0; r1; r2; r3; r4; r5; r6; r7 |]
  end
  else [| t0; t1; t2; t3; t4; t5; t6; t7 |]

let check_slice name a off b =
  if off < 0 || off + width > Array.length a || Array.length b <> width then invalid_arg name

(* CIOS Montgomery multiplication: each of the 8 rows adds a_i·b to the
   accumulator t0..t9, then adds m·p for the m that clears the low limb
   and shifts down one limb. Inputs < p keep t < 2p, so one conditional
   subtraction finishes. *)
let mul_at ctx a off b =
  Tel.Counter.inc ctx.c_mul;
  check_slice "Mont.mul_at" a off b;
  let p = ctx.p and q = ctx.p0inv in
  let p0 = Array.unsafe_get p 0 and p1 = Array.unsafe_get p 1 and p2 = Array.unsafe_get p 2
  and p3 = Array.unsafe_get p 3 and p4 = Array.unsafe_get p 4 and p5 = Array.unsafe_get p 5
  and p6 = Array.unsafe_get p 6 and p7 = Array.unsafe_get p 7 in
  let b0 = Array.unsafe_get b 0 and b1 = Array.unsafe_get b 1 and b2 = Array.unsafe_get b 2
  and b3 = Array.unsafe_get b 3 and b4 = Array.unsafe_get b 4 and b5 = Array.unsafe_get b 5
  and b6 = Array.unsafe_get b 6 and b7 = Array.unsafe_get b 7 in
  let t0 = 0 and t1 = 0 and t2 = 0 and t3 = 0 and t4 = 0 and t5 = 0 and t6 = 0 and t7 = 0
  and t8 = 0 in
  let ai = Array.unsafe_get a off in
  let s = t0 + (ai * b0) in let t0 = s land mask in
  let s = t1 + (ai * b1) + (s lsr 31) in let t1 = s land mask in
  let s = t2 + (ai * b2) + (s lsr 31) in let t2 = s land mask in
  let s = t3 + (ai * b3) + (s lsr 31) in let t3 = s land mask in
  let s = t4 + (ai * b4) + (s lsr 31) in let t4 = s land mask in
  let s = t5 + (ai * b5) + (s lsr 31) in let t5 = s land mask in
  let s = t6 + (ai * b6) + (s lsr 31) in let t6 = s land mask in
  let s = t7 + (ai * b7) + (s lsr 31) in let t7 = s land mask in
  let s = t8 + (s lsr 31) in let t8 = s land mask and t9 = s lsr 31 in
  let m = t0 * q land mask in
  let s = t0 + (m * p0) in
  let s = t1 + (m * p1) + (s lsr 31) in let t0 = s land mask in
  let s = t2 + (m * p2) + (s lsr 31) in let t1 = s land mask in
  let s = t3 + (m * p3) + (s lsr 31) in let t2 = s land mask in
  let s = t4 + (m * p4) + (s lsr 31) in let t3 = s land mask in
  let s = t5 + (m * p5) + (s lsr 31) in let t4 = s land mask in
  let s = t6 + (m * p6) + (s lsr 31) in let t5 = s land mask in
  let s = t7 + (m * p7) + (s lsr 31) in let t6 = s land mask in
  let s = t8 + (s lsr 31) in let t7 = s land mask and t8 = t9 + (s lsr 31) in
  let ai = Array.unsafe_get a (off + 1) in
  let s = t0 + (ai * b0) in let t0 = s land mask in
  let s = t1 + (ai * b1) + (s lsr 31) in let t1 = s land mask in
  let s = t2 + (ai * b2) + (s lsr 31) in let t2 = s land mask in
  let s = t3 + (ai * b3) + (s lsr 31) in let t3 = s land mask in
  let s = t4 + (ai * b4) + (s lsr 31) in let t4 = s land mask in
  let s = t5 + (ai * b5) + (s lsr 31) in let t5 = s land mask in
  let s = t6 + (ai * b6) + (s lsr 31) in let t6 = s land mask in
  let s = t7 + (ai * b7) + (s lsr 31) in let t7 = s land mask in
  let s = t8 + (s lsr 31) in let t8 = s land mask and t9 = s lsr 31 in
  let m = t0 * q land mask in
  let s = t0 + (m * p0) in
  let s = t1 + (m * p1) + (s lsr 31) in let t0 = s land mask in
  let s = t2 + (m * p2) + (s lsr 31) in let t1 = s land mask in
  let s = t3 + (m * p3) + (s lsr 31) in let t2 = s land mask in
  let s = t4 + (m * p4) + (s lsr 31) in let t3 = s land mask in
  let s = t5 + (m * p5) + (s lsr 31) in let t4 = s land mask in
  let s = t6 + (m * p6) + (s lsr 31) in let t5 = s land mask in
  let s = t7 + (m * p7) + (s lsr 31) in let t6 = s land mask in
  let s = t8 + (s lsr 31) in let t7 = s land mask and t8 = t9 + (s lsr 31) in
  let ai = Array.unsafe_get a (off + 2) in
  let s = t0 + (ai * b0) in let t0 = s land mask in
  let s = t1 + (ai * b1) + (s lsr 31) in let t1 = s land mask in
  let s = t2 + (ai * b2) + (s lsr 31) in let t2 = s land mask in
  let s = t3 + (ai * b3) + (s lsr 31) in let t3 = s land mask in
  let s = t4 + (ai * b4) + (s lsr 31) in let t4 = s land mask in
  let s = t5 + (ai * b5) + (s lsr 31) in let t5 = s land mask in
  let s = t6 + (ai * b6) + (s lsr 31) in let t6 = s land mask in
  let s = t7 + (ai * b7) + (s lsr 31) in let t7 = s land mask in
  let s = t8 + (s lsr 31) in let t8 = s land mask and t9 = s lsr 31 in
  let m = t0 * q land mask in
  let s = t0 + (m * p0) in
  let s = t1 + (m * p1) + (s lsr 31) in let t0 = s land mask in
  let s = t2 + (m * p2) + (s lsr 31) in let t1 = s land mask in
  let s = t3 + (m * p3) + (s lsr 31) in let t2 = s land mask in
  let s = t4 + (m * p4) + (s lsr 31) in let t3 = s land mask in
  let s = t5 + (m * p5) + (s lsr 31) in let t4 = s land mask in
  let s = t6 + (m * p6) + (s lsr 31) in let t5 = s land mask in
  let s = t7 + (m * p7) + (s lsr 31) in let t6 = s land mask in
  let s = t8 + (s lsr 31) in let t7 = s land mask and t8 = t9 + (s lsr 31) in
  let ai = Array.unsafe_get a (off + 3) in
  let s = t0 + (ai * b0) in let t0 = s land mask in
  let s = t1 + (ai * b1) + (s lsr 31) in let t1 = s land mask in
  let s = t2 + (ai * b2) + (s lsr 31) in let t2 = s land mask in
  let s = t3 + (ai * b3) + (s lsr 31) in let t3 = s land mask in
  let s = t4 + (ai * b4) + (s lsr 31) in let t4 = s land mask in
  let s = t5 + (ai * b5) + (s lsr 31) in let t5 = s land mask in
  let s = t6 + (ai * b6) + (s lsr 31) in let t6 = s land mask in
  let s = t7 + (ai * b7) + (s lsr 31) in let t7 = s land mask in
  let s = t8 + (s lsr 31) in let t8 = s land mask and t9 = s lsr 31 in
  let m = t0 * q land mask in
  let s = t0 + (m * p0) in
  let s = t1 + (m * p1) + (s lsr 31) in let t0 = s land mask in
  let s = t2 + (m * p2) + (s lsr 31) in let t1 = s land mask in
  let s = t3 + (m * p3) + (s lsr 31) in let t2 = s land mask in
  let s = t4 + (m * p4) + (s lsr 31) in let t3 = s land mask in
  let s = t5 + (m * p5) + (s lsr 31) in let t4 = s land mask in
  let s = t6 + (m * p6) + (s lsr 31) in let t5 = s land mask in
  let s = t7 + (m * p7) + (s lsr 31) in let t6 = s land mask in
  let s = t8 + (s lsr 31) in let t7 = s land mask and t8 = t9 + (s lsr 31) in
  let ai = Array.unsafe_get a (off + 4) in
  let s = t0 + (ai * b0) in let t0 = s land mask in
  let s = t1 + (ai * b1) + (s lsr 31) in let t1 = s land mask in
  let s = t2 + (ai * b2) + (s lsr 31) in let t2 = s land mask in
  let s = t3 + (ai * b3) + (s lsr 31) in let t3 = s land mask in
  let s = t4 + (ai * b4) + (s lsr 31) in let t4 = s land mask in
  let s = t5 + (ai * b5) + (s lsr 31) in let t5 = s land mask in
  let s = t6 + (ai * b6) + (s lsr 31) in let t6 = s land mask in
  let s = t7 + (ai * b7) + (s lsr 31) in let t7 = s land mask in
  let s = t8 + (s lsr 31) in let t8 = s land mask and t9 = s lsr 31 in
  let m = t0 * q land mask in
  let s = t0 + (m * p0) in
  let s = t1 + (m * p1) + (s lsr 31) in let t0 = s land mask in
  let s = t2 + (m * p2) + (s lsr 31) in let t1 = s land mask in
  let s = t3 + (m * p3) + (s lsr 31) in let t2 = s land mask in
  let s = t4 + (m * p4) + (s lsr 31) in let t3 = s land mask in
  let s = t5 + (m * p5) + (s lsr 31) in let t4 = s land mask in
  let s = t6 + (m * p6) + (s lsr 31) in let t5 = s land mask in
  let s = t7 + (m * p7) + (s lsr 31) in let t6 = s land mask in
  let s = t8 + (s lsr 31) in let t7 = s land mask and t8 = t9 + (s lsr 31) in
  let ai = Array.unsafe_get a (off + 5) in
  let s = t0 + (ai * b0) in let t0 = s land mask in
  let s = t1 + (ai * b1) + (s lsr 31) in let t1 = s land mask in
  let s = t2 + (ai * b2) + (s lsr 31) in let t2 = s land mask in
  let s = t3 + (ai * b3) + (s lsr 31) in let t3 = s land mask in
  let s = t4 + (ai * b4) + (s lsr 31) in let t4 = s land mask in
  let s = t5 + (ai * b5) + (s lsr 31) in let t5 = s land mask in
  let s = t6 + (ai * b6) + (s lsr 31) in let t6 = s land mask in
  let s = t7 + (ai * b7) + (s lsr 31) in let t7 = s land mask in
  let s = t8 + (s lsr 31) in let t8 = s land mask and t9 = s lsr 31 in
  let m = t0 * q land mask in
  let s = t0 + (m * p0) in
  let s = t1 + (m * p1) + (s lsr 31) in let t0 = s land mask in
  let s = t2 + (m * p2) + (s lsr 31) in let t1 = s land mask in
  let s = t3 + (m * p3) + (s lsr 31) in let t2 = s land mask in
  let s = t4 + (m * p4) + (s lsr 31) in let t3 = s land mask in
  let s = t5 + (m * p5) + (s lsr 31) in let t4 = s land mask in
  let s = t6 + (m * p6) + (s lsr 31) in let t5 = s land mask in
  let s = t7 + (m * p7) + (s lsr 31) in let t6 = s land mask in
  let s = t8 + (s lsr 31) in let t7 = s land mask and t8 = t9 + (s lsr 31) in
  let ai = Array.unsafe_get a (off + 6) in
  let s = t0 + (ai * b0) in let t0 = s land mask in
  let s = t1 + (ai * b1) + (s lsr 31) in let t1 = s land mask in
  let s = t2 + (ai * b2) + (s lsr 31) in let t2 = s land mask in
  let s = t3 + (ai * b3) + (s lsr 31) in let t3 = s land mask in
  let s = t4 + (ai * b4) + (s lsr 31) in let t4 = s land mask in
  let s = t5 + (ai * b5) + (s lsr 31) in let t5 = s land mask in
  let s = t6 + (ai * b6) + (s lsr 31) in let t6 = s land mask in
  let s = t7 + (ai * b7) + (s lsr 31) in let t7 = s land mask in
  let s = t8 + (s lsr 31) in let t8 = s land mask and t9 = s lsr 31 in
  let m = t0 * q land mask in
  let s = t0 + (m * p0) in
  let s = t1 + (m * p1) + (s lsr 31) in let t0 = s land mask in
  let s = t2 + (m * p2) + (s lsr 31) in let t1 = s land mask in
  let s = t3 + (m * p3) + (s lsr 31) in let t2 = s land mask in
  let s = t4 + (m * p4) + (s lsr 31) in let t3 = s land mask in
  let s = t5 + (m * p5) + (s lsr 31) in let t4 = s land mask in
  let s = t6 + (m * p6) + (s lsr 31) in let t5 = s land mask in
  let s = t7 + (m * p7) + (s lsr 31) in let t6 = s land mask in
  let s = t8 + (s lsr 31) in let t7 = s land mask and t8 = t9 + (s lsr 31) in
  let ai = Array.unsafe_get a (off + 7) in
  let s = t0 + (ai * b0) in let t0 = s land mask in
  let s = t1 + (ai * b1) + (s lsr 31) in let t1 = s land mask in
  let s = t2 + (ai * b2) + (s lsr 31) in let t2 = s land mask in
  let s = t3 + (ai * b3) + (s lsr 31) in let t3 = s land mask in
  let s = t4 + (ai * b4) + (s lsr 31) in let t4 = s land mask in
  let s = t5 + (ai * b5) + (s lsr 31) in let t5 = s land mask in
  let s = t6 + (ai * b6) + (s lsr 31) in let t6 = s land mask in
  let s = t7 + (ai * b7) + (s lsr 31) in let t7 = s land mask in
  let s = t8 + (s lsr 31) in let t8 = s land mask and t9 = s lsr 31 in
  let m = t0 * q land mask in
  let s = t0 + (m * p0) in
  let s = t1 + (m * p1) + (s lsr 31) in let t0 = s land mask in
  let s = t2 + (m * p2) + (s lsr 31) in let t1 = s land mask in
  let s = t3 + (m * p3) + (s lsr 31) in let t2 = s land mask in
  let s = t4 + (m * p4) + (s lsr 31) in let t3 = s land mask in
  let s = t5 + (m * p5) + (s lsr 31) in let t4 = s land mask in
  let s = t6 + (m * p6) + (s lsr 31) in let t5 = s land mask in
  let s = t7 + (m * p7) + (s lsr 31) in let t6 = s land mask in
  let s = t8 + (s lsr 31) in let t7 = s land mask and t8 = t9 + (s lsr 31) in
  reduce_once ctx t0 t1 t2 t3 t4 t5 t6 t7 t8

let mul ctx a b = mul_at ctx a 0 b
let sqr ctx a = mul ctx a a

let add_at ctx a off b =
  check_slice "Mont.add_at" a off b;
  let s = Array.unsafe_get a off + Array.unsafe_get b 0 in
  let t0 = s land mask in
  let s = Array.unsafe_get a (off + 1) + Array.unsafe_get b 1 + (s lsr 31) in
  let t1 = s land mask in
  let s = Array.unsafe_get a (off + 2) + Array.unsafe_get b 2 + (s lsr 31) in
  let t2 = s land mask in
  let s = Array.unsafe_get a (off + 3) + Array.unsafe_get b 3 + (s lsr 31) in
  let t3 = s land mask in
  let s = Array.unsafe_get a (off + 4) + Array.unsafe_get b 4 + (s lsr 31) in
  let t4 = s land mask in
  let s = Array.unsafe_get a (off + 5) + Array.unsafe_get b 5 + (s lsr 31) in
  let t5 = s land mask in
  let s = Array.unsafe_get a (off + 6) + Array.unsafe_get b 6 + (s lsr 31) in
  let t6 = s land mask in
  let s = Array.unsafe_get a (off + 7) + Array.unsafe_get b 7 + (s lsr 31) in
  let t7 = s land mask in
  reduce_once ctx t0 t1 t2 t3 t4 t5 t6 t7 (s lsr 31)

let add ctx a b = add_at ctx a 0 b

(* a − b limb by limb with a signed borrow ([s asr 31], −1 or 0); a final
   borrow means a < b, and adding p back brings the result into [0, p)
   (the carry out of that addition cancels the borrow). *)
let sub_at ctx a off b =
  check_slice "Mont.sub_at" a off b;
  let s = Array.unsafe_get a off - Array.unsafe_get b 0 in
  let t0 = s land mask in
  let s = Array.unsafe_get a (off + 1) - Array.unsafe_get b 1 + (s asr 31) in
  let t1 = s land mask in
  let s = Array.unsafe_get a (off + 2) - Array.unsafe_get b 2 + (s asr 31) in
  let t2 = s land mask in
  let s = Array.unsafe_get a (off + 3) - Array.unsafe_get b 3 + (s asr 31) in
  let t3 = s land mask in
  let s = Array.unsafe_get a (off + 4) - Array.unsafe_get b 4 + (s asr 31) in
  let t4 = s land mask in
  let s = Array.unsafe_get a (off + 5) - Array.unsafe_get b 5 + (s asr 31) in
  let t5 = s land mask in
  let s = Array.unsafe_get a (off + 6) - Array.unsafe_get b 6 + (s asr 31) in
  let t6 = s land mask in
  let s = Array.unsafe_get a (off + 7) - Array.unsafe_get b 7 + (s asr 31) in
  let t7 = s land mask in
  if s >= 0 then [| t0; t1; t2; t3; t4; t5; t6; t7 |]
  else begin
    let p = ctx.p in
    let s = t0 + Array.unsafe_get p 0 in let r0 = s land mask in
    let s = t1 + Array.unsafe_get p 1 + (s lsr 31) in let r1 = s land mask in
    let s = t2 + Array.unsafe_get p 2 + (s lsr 31) in let r2 = s land mask in
    let s = t3 + Array.unsafe_get p 3 + (s lsr 31) in let r3 = s land mask in
    let s = t4 + Array.unsafe_get p 4 + (s lsr 31) in let r4 = s land mask in
    let s = t5 + Array.unsafe_get p 5 + (s lsr 31) in let r5 = s land mask in
    let s = t6 + Array.unsafe_get p 6 + (s lsr 31) in let r6 = s land mask in
    let s = t7 + Array.unsafe_get p 7 + (s lsr 31) in let r7 = s land mask in
    [| r0; r1; r2; r3; r4; r5; r6; r7 |]
  end

let sub ctx a b = sub_at ctx a 0 b

let store _ a buf off = Array.blit a 0 buf off width

let neg ctx a = if is_zero a then Array.copy a else sub ctx (zero ctx) a

(* a·k for a small non-negative int k by double-and-add over k's bits:
   the curve formulas' k ∈ {2, 3, 8} cost 1, 2 and 3 additions. *)
let mul_small ctx a k =
  if k < 0 || k >= base then invalid_arg "Mont.mul_small";
  if k = 0 then zero ctx
  else begin
    let top = ref 0 in
    while k lsr (!top + 1) <> 0 do
      incr top
    done;
    let acc = ref a in
    for i = !top - 1 downto 0 do
      acc := add ctx !acc !acc;
      if (k lsr i) land 1 = 1 then acc := add ctx !acc a
    done;
    !acc
  end

let of_bigint ctx x =
  let x =
    if Bigint.sign x < 0 || Bigint.compare x ctx.p_big >= 0 then Bigint.rem x ctx.p_big else x
  in
  mul ctx (limbs_of_bigint x) ctx.r2

let to_bigint ctx a = Bigint.of_limbs (mul ctx a ctx.one_raw)

(* Left-to-right exponentiation over any multiplication; [e] is a plain
   non-negative Bigint (not in Montgomery form). Exponents up to 32 bits
   (the 13-bit cofactor power) go bit by bit; longer ones (square and
   cube roots, Fermat inversion, GT powers) use fixed 4-bit windows over a
   table of a^0..a^15, which costs 14 products up front and then one
   product per nonzero window instead of one per set bit. *)
let pow_generic ~one ~mul ~sqr a e =
  let nb = Bigint.numbits e in
  if nb <= 32 then begin
    let acc = ref a in
    if nb = 0 then acc := one;
    for i = nb - 2 downto 0 do
      acc := sqr !acc;
      if Bigint.testbit e i then acc := mul !acc a
    done;
    !acc
  end
  else begin
    let tbl = Array.make 16 a in
    tbl.(0) <- one;
    for i = 2 to 15 do
      tbl.(i) <- mul tbl.(i - 1) a
    done;
    let digit w =
      let b = 4 * w in
      (if Bigint.testbit e b then 1 else 0)
      lor (if Bigint.testbit e (b + 1) then 2 else 0)
      lor (if Bigint.testbit e (b + 2) then 4 else 0)
      lor if Bigint.testbit e (b + 3) then 8 else 0
    in
    let nwin = (nb + 3) / 4 in
    let acc = ref tbl.(digit (nwin - 1)) in
    for w = nwin - 2 downto 0 do
      acc := sqr (sqr (sqr (sqr !acc)));
      let d = digit w in
      if d <> 0 then acc := mul !acc tbl.(d)
    done;
    !acc
  end

let pow ctx a e =
  if Bigint.sign e < 0 then invalid_arg "Mont.pow: negative exponent";
  pow_generic ~one:(one ctx) ~mul:(mul ctx) ~sqr:(sqr ctx) a e

let inv ctx a =
  if is_zero a then raise Division_by_zero;
  pow ctx a ctx.pm2

(* ---- F_p² = F_p[i]/(i² + 1), components in Montgomery form ----

   Mirrors [Fp2] (same Karatsuba 3-mult product) for the final
   exponentiation of the pairing and powers in GT. *)
module F2 = struct
  (* base-field operations, aliased before the names below shadow them *)
  let el_add = add
  and el_sub = sub
  and el_mul = mul
  and el_zero = zero
  and el_one = one

  type f2 = { re : el; im : el }

  let one ctx = { re = el_one ctx; im = el_zero ctx }

  let mul ctx a b =
    let t0 = el_mul ctx a.re b.re in
    let t1 = el_mul ctx a.im b.im in
    let t2 = el_mul ctx (el_add ctx a.re a.im) (el_add ctx b.re b.im) in
    { re = el_sub ctx t0 t1; im = el_sub ctx (el_sub ctx t2 t0) t1 }

  let sqr ctx a =
    let t0 = el_mul ctx (el_add ctx a.re a.im) (el_sub ctx a.re a.im) in
    let t1 = el_mul ctx a.re a.im in
    { re = t0; im = el_add ctx t1 t1 }

  let mul_el ctx a c = { re = el_mul ctx a.re c; im = el_mul ctx a.im c }

  let pow ctx a e =
    if Bigint.sign e < 0 then invalid_arg "Mont.F2.pow: negative exponent";
    pow_generic ~one:(one ctx) ~mul:(mul ctx) ~sqr:(sqr ctx) a e
end
