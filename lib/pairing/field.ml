module Bigint = Alpenhorn_bigint.Bigint

type t = {
  p : Bigint.t;
  k : int; (* Barrett shift: numbits p *)
  mu : Bigint.t; (* floor(2^(2k) / p) *)
  sqrt_exp : Bigint.t; (* (p+1)/4 *)
  cbrt_exp : Bigint.t; (* (2p-1)/3 *)
  nbytes : int;
  mont : Mont.ctx Lazy.t; (* fixed-limb Montgomery kernel for this modulus *)
}

let create p =
  let twelve = Bigint.of_int 12 in
  if not (Bigint.equal (Bigint.rem p twelve) (Bigint.of_int 11)) then
    invalid_arg "Field.create: modulus must be 11 mod 12";
  let k = Bigint.numbits p in
  {
    p;
    k;
    mu = Bigint.div (Bigint.shift_left Bigint.one (2 * k)) p;
    sqrt_exp = Bigint.div (Bigint.add p Bigint.one) (Bigint.of_int 4);
    cbrt_exp = Bigint.div (Bigint.sub (Bigint.mul_int p 2) Bigint.one) (Bigint.of_int 3);
    nbytes = (k + 7) / 8;
    mont = lazy (Mont.create p);
  }

let modulus f = f.p
let element_bytes f = f.nbytes
let mont_ctx f = Lazy.force f.mont

let reduce f x =
  if Bigint.sign x < 0 then Bigint.rem x f.p
  else if Bigint.numbits x > 2 * f.k then Bigint.rem x f.p
  else begin
    (* Barrett: q = ((x >> (k-1)) * mu) >> (k+1); r = x - q*p, then <= 2
       conditional subtractions. *)
    let q = Bigint.shift_right (Bigint.mul (Bigint.shift_right x (f.k - 1)) f.mu) (f.k + 1) in
    let r = ref (Bigint.sub x (Bigint.mul q f.p)) in
    while Bigint.compare !r f.p >= 0 do
      r := Bigint.sub !r f.p
    done;
    !r
  end

let add f a b =
  let s = Bigint.add a b in
  if Bigint.compare s f.p >= 0 then Bigint.sub s f.p else s

let sub f a b =
  let s = Bigint.sub a b in
  if Bigint.sign s < 0 then Bigint.add s f.p else s

let neg f a = if Bigint.is_zero a then a else Bigint.sub f.p a
let mul f a b = reduce f (Bigint.mul a b)
let sqr f a = mul f a a
let mul_int f a n = reduce f (Bigint.mul_int a n)
let inv f a = Bigint.mod_inv a f.p

let pow f base e =
  let nb = Bigint.numbits e in
  let acc = ref Bigint.one and b = ref (reduce f base) in
  for i = 0 to nb - 1 do
    if Bigint.testbit e i then acc := mul f !acc !b;
    b := sqr f !b
  done;
  !acc

let is_zero = Bigint.is_zero
let equal = Bigint.equal

(* Both roots are one exponentiation, run on the Montgomery kernel:
   point decoding ([Curve.of_bytes]) and [hash_to_group] call them on
   every ciphertext and identity. [pow] above stays the Barrett reference
   the tests compare them with. *)
let sqrt f a =
  let ctx = mont_ctx f in
  let am = Mont.of_bigint ctx a in
  let r = Mont.pow ctx am f.sqrt_exp in
  if Mont.equal (Mont.sqr ctx r) am then Some (Mont.to_bigint ctx r) else None

let cbrt f a =
  let ctx = mont_ctx f in
  Mont.to_bigint ctx (Mont.pow ctx (Mont.of_bigint ctx a) f.cbrt_exp)

let to_bytes f a = Bigint.to_bytes_be ~len:f.nbytes a

let of_bytes_opt f s =
  if String.length s <> f.nbytes then None
  else begin
    let v = Bigint.of_bytes_be s in
    if Bigint.compare v f.p >= 0 then None else Some v
  end

let of_bytes f s =
  match of_bytes_opt f s with
  | Some v -> v
  | None -> invalid_arg "Field.of_bytes: malformed"
