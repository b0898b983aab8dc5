module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Hmac = Alpenhorn_crypto.Hmac
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve

type secret = Bigint.t
type public = Curve.point

let keygen (params : Params.t) rng =
  let s = Bigint.add Bigint.one (Drbg.bigint_below rng (Bigint.sub params.q Bigint.one)) in
  (s, Params.mul_g params s)

let public_of_secret (params : Params.t) s = Params.mul_g params s

(* The curve group has order h·q for the cofactor h = 12l, and a decoded
   peer key is only known to lie on the curve. A key with a component T
   of order dividing h would make sk·P reveal sk mod ord(T), so the scalar
   used is the k with k ≡ sk (mod q) and k ≡ 0 (mod h): k·P = sk·P for P
   in G1, so honest keys give the same secret, and every small-order
   component is cleared, as X25519's clamping to multiples of 8 does. *)
let clearing_scalar (params : Params.t) sk =
  let h = params.cofactor in
  let minus_sk = Bigint.sub h (Bigint.rem sk h) in
  let t = Bigint.rem (Bigint.mul minus_sk (Bigint.mod_inv params.q h)) h in
  Bigint.add sk (Bigint.mul params.q t)

(* The shared point, or [Inf] exactly when [peer] has order dividing h:
   with peer = Q + T for Q in G1 and T of order dividing h, the cleared
   product is sk·Q, and sk is nonzero mod q. *)
let shared_point (params : Params.t) sk peer = Curve.mul params.fp (clearing_scalar params sk) peer
let kdf (params : Params.t) shared = Hmac.hkdf ~info:"alpenhorn-dh" ~len:32 (Curve.to_bytes params.fp shared)

let shared_secret params sk peer =
  match peer with
  | Curve.Inf -> invalid_arg "Dh.shared_secret: infinity"
  | _ -> (
    match shared_point params sk peer with
    | Curve.Inf -> invalid_arg "Dh.shared_secret: small-order peer key"
    | shared -> kdf params shared)

(* no separate small-order check: such a key shows up as an infinite
   shared point *)
let shared_secret_of_bytes (params : Params.t) sk s =
  match Curve.of_bytes params.fp s with
  | None | Some Curve.Inf -> None
  | Some peer -> (
    match shared_point params sk peer with Curve.Inf -> None | shared -> Some (kdf params shared))

let public_bytes (params : Params.t) pk = Curve.to_bytes params.fp pk

let public_of_bytes (params : Params.t) s =
  match Curve.of_bytes params.fp s with
  | None | Some Curve.Inf -> None
  | Some p when Curve.is_torsion params.fp params.cofactor p -> None
  | Some p -> Some p

let public_size (params : Params.t) = Curve.point_bytes params.fp
