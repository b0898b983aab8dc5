(* Fixed-width Montgomery arithmetic kernel.

   Elements are flat little-endian arrays of exactly [ctx.n] limbs of 31
   bits, held in Montgomery form (a·R mod p with R = 2^(31n)). 31-bit
   limbs make every partial product fit a native 63-bit OCaml int:
   (2^31−1)² + 2·(2^31−1) = 2^62 − 1, so the CIOS inner loops need no
   overflow handling and no boxing. This is the multiplication that every
   pairing, IBE and BLS operation in the system bottoms out in; the
   generic Bigint + Barrett path in [Field] stays as the reference
   implementation the property tests compare against. *)

module Bigint = Alpenhorn_bigint.Bigint
module Tel = Alpenhorn_telemetry.Telemetry

let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1

type el = int array

type ctx = {
  n : int; (* limb count: ceil(numbits p / 31) *)
  p : int array; (* modulus, n limbs *)
  p0inv : int; (* -p⁻¹ mod 2^31 *)
  r2 : el; (* R² mod p: of_bigint multiplies by this *)
  one_m : el; (* R mod p = Montgomery form of 1 *)
  one_raw : el; (* plain 1; mont-mul by it converts out of Montgomery form *)
  pm2 : Bigint.t; (* p − 2, the Fermat inversion exponent *)
  p_big : Bigint.t;
  scratch : int array Domain.DLS.key; (* n+2 limbs reused by [mul], one per domain *)
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

let limbs_of_bigint n x =
  let l = Bigint.to_limbs x in
  if Array.length l > n then invalid_arg "Mont: value wider than modulus";
  let a = Array.make n 0 in
  Array.blit l 0 a 0 (Array.length l);
  a

let create p_big =
  if Bigint.is_even p_big || Bigint.sign p_big <= 0 then
    invalid_arg "Mont.create: modulus must be odd and positive";
  let n = (Bigint.numbits p_big + limb_bits - 1) / limb_bits in
  let p = limbs_of_bigint n p_big in
  let r = Bigint.shift_left Bigint.one (limb_bits * n) in
  let one_raw = Array.make n 0 in
  one_raw.(0) <- 1;
  {
    n;
    p;
    p0inv = neg_inv_limb p.(0);
    r2 = limbs_of_bigint n (Bigint.rem (Bigint.mul r r) p_big);
    one_m = limbs_of_bigint n (Bigint.rem r p_big);
    one_raw;
    pm2 = Bigint.sub p_big Bigint.two;
    p_big;
    scratch = Domain.DLS.new_key (fun () -> Array.make (n + 2) 0);
    c_mul = Tel.Counter.v Tel.default "pairing.mont_mul";
  }

let limbs ctx = ctx.n
let zero ctx = Array.make ctx.n 0
let one ctx = Array.copy ctx.one_m

let is_zero a =
  let rec go i = i < 0 || (Array.unsafe_get a i = 0 && go (i - 1)) in
  go (Array.length a - 1)

let equal a b =
  let rec go i = i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && go (i - 1)) in
  go (Array.length a - 1)

(* magnitude compare of an n-limb buffer against p *)
let geq_p ctx (t : int array) =
  let rec go i =
    if i < 0 then true
    else begin
      let ti = Array.unsafe_get t i and pi = Array.unsafe_get ctx.p i in
      if ti <> pi then ti > pi else go (i - 1)
    end
  in
  go (ctx.n - 1)

(* subtract p in place from an n-limb buffer; returns the final borrow *)
let sub_p_inplace ctx (t : int array) =
  let borrow = ref 0 in
  for i = 0 to ctx.n - 1 do
    let s = Array.unsafe_get t i - Array.unsafe_get ctx.p i - !borrow in
    if s < 0 then begin
      Array.unsafe_set t i (s + base);
      borrow := 1
    end
    else begin
      Array.unsafe_set t i s;
      borrow := 0
    end
  done;
  !borrow

(* CIOS Montgomery multiplication: interleaves the schoolbook product with
   per-word Montgomery reduction, keeping the accumulator at n+2 limbs.
   Inputs < p, output < p (one conditional final subtraction). *)
let mul_at ctx a off b =
  Tel.Counter.inc ctx.c_mul;
  let n = ctx.n and p = ctx.p and p0inv = ctx.p0inv and t = Domain.DLS.get ctx.scratch in
  if off < 0 || off + n > Array.length a then invalid_arg "Mont.mul_at";
  Array.fill t 0 (n + 2) 0;
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a (off + i) in
    (* t += ai · b *)
    let c = ref 0 in
    for j = 0 to n - 1 do
      let s = Array.unsafe_get t j + (ai * Array.unsafe_get b j) + !c in
      Array.unsafe_set t j (s land mask);
      c := s lsr limb_bits
    done;
    let s = Array.unsafe_get t n + !c in
    Array.unsafe_set t n (s land mask);
    Array.unsafe_set t (n + 1) (s lsr limb_bits);
    (* t := (t + m·p) / 2^31  with m chosen so t becomes divisible *)
    let m = Array.unsafe_get t 0 * p0inv land mask in
    let c = ref ((Array.unsafe_get t 0 + (m * Array.unsafe_get p 0)) lsr limb_bits) in
    for j = 1 to n - 1 do
      let s = Array.unsafe_get t j + (m * Array.unsafe_get p j) + !c in
      Array.unsafe_set t (j - 1) (s land mask);
      c := s lsr limb_bits
    done;
    let s = Array.unsafe_get t n + !c in
    Array.unsafe_set t (n - 1) (s land mask);
    Array.unsafe_set t n (Array.unsafe_get t (n + 1) + (s lsr limb_bits));
    Array.unsafe_set t (n + 1) 0
  done;
  (* t < 2p, so at most one subtraction; a set t.(n) bit is cancelled by
     the final borrow *)
  let r = Array.make n 0 in
  if t.(n) = 1 || geq_p ctx t then ignore (sub_p_inplace ctx t);
  Array.blit t 0 r 0 n;
  r

let mul ctx a b = mul_at ctx a 0 b
let sqr ctx a = mul ctx a a

let add_at ctx a off b =
  let n = ctx.n in
  if off < 0 || off + n > Array.length a then invalid_arg "Mont.add_at";
  let r = Array.make n 0 in
  let c = ref 0 in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get a (off + i) + Array.unsafe_get b i + !c in
    Array.unsafe_set r i (s land mask);
    c := s lsr limb_bits
  done;
  if !c = 1 || geq_p ctx r then ignore (sub_p_inplace ctx r);
  r

let add ctx a b = add_at ctx a 0 b

let sub_at ctx a off b =
  let n = ctx.n in
  if off < 0 || off + n > Array.length a then invalid_arg "Mont.sub_at";
  let r = Array.make n 0 in
  let borrow = ref 0 in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get a (off + i) - Array.unsafe_get b i - !borrow in
    if s < 0 then begin
      Array.unsafe_set r i (s + base);
      borrow := 1
    end
    else begin
      Array.unsafe_set r i s;
      borrow := 0
    end
  done;
  if !borrow = 1 then begin
    (* went negative: add p back (final carry cancels the borrow) *)
    let c = ref 0 in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get r i + Array.unsafe_get ctx.p i + !c in
      Array.unsafe_set r i (s land mask);
      c := s lsr limb_bits
    done
  end;
  r

let sub ctx a b = sub_at ctx a 0 b

let store ctx a buf off = Array.blit a 0 buf off ctx.n

let neg ctx a = if is_zero a then Array.copy a else sub ctx (zero ctx) a

(* a·k for a small non-negative int k (curve formulas use k ≤ 12): extend
   to n+1 limbs then subtract p until in range — at most k iterations. *)
let mul_small ctx a k =
  if k < 0 || k >= base then invalid_arg "Mont.mul_small";
  if k = 0 then zero ctx
  else begin
    let n = ctx.n in
    let r = Array.make n 0 in
    let c = ref 0 in
    for i = 0 to n - 1 do
      let s = (Array.unsafe_get a i * k) + !c in
      Array.unsafe_set r i (s land mask);
      c := s lsr limb_bits
    done;
    let hi = ref !c in
    while !hi > 0 || geq_p ctx r do
      hi := !hi - sub_p_inplace ctx r
    done;
    r
  end

let of_bigint ctx x =
  let x =
    if Bigint.sign x < 0 || Bigint.compare x ctx.p_big >= 0 then Bigint.rem x ctx.p_big else x
  in
  mul ctx (limbs_of_bigint ctx.n x) ctx.r2

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
