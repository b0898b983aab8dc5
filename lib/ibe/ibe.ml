module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Sha256 = Alpenhorn_crypto.Sha256
module Hmac = Alpenhorn_crypto.Hmac
module Chacha20 = Alpenhorn_crypto.Chacha20
module Util = Alpenhorn_crypto.Util
module Pairing = Alpenhorn_pairing.Pairing
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve

type master_secret = Bigint.t
type master_public = Curve.point
type identity_key = Curve.point

let setup (params : Params.t) rng =
  let s = Bigint.add Bigint.one (Drbg.bigint_below rng (Bigint.sub params.q Bigint.one)) in
  (s, Params.mul_g params s)

let extract (params : Params.t) s id = Curve.mul params.fp s (Pairing.hash_to_group params id)

let aggregate_public (params : Params.t) pubs =
  List.fold_left (Curve.add params.fp) Curve.infinity pubs

let aggregate_identity = aggregate_public

(* FullIdent random oracles, all derived from SHA-256 with distinct labels. *)
let h2 gt_bytes = Sha256.digest ("bf-h2" ^ gt_bytes) (* GT -> 32-byte mask *)

let h3 (params : Params.t) sigma msg =
  (* (σ, m) -> scalar in [1, q): the FO encryption randomness *)
  Pairing.hash_to_scalar params ("bf-h3" ^ sigma ^ msg)

let h4 sigma = Sha256.digest ("bf-h4" ^ sigma) (* σ -> symmetric key *)

let stream_nonce = String.make 12 '\000'

let ciphertext_overhead (params : Params.t) = Curve.point_bytes params.fp + 32

let encrypt (params : Params.t) rng mpk ~id msg =
  let fp = params.fp in
  let sigma = Drbg.bytes rng 32 in
  let r = h3 params sigma msg in
  let u = Params.mul_g params r in
  (* e(H(id), mpk) is fixed per (recipient, PKG) — every request to the
     same master key hits the pairing cache *)
  let g_id = Pairing.pair_cached params (Pairing.hash_to_group params id) mpk in
  let mask = h2 (Pairing.gt_bytes params (Pairing.gt_pow params g_id r)) in
  let v = Util.xor sigma mask in
  let w = Chacha20.xor_stream ~key:(h4 sigma) ~nonce:stream_nonce msg in
  Curve.to_bytes fp u ^ v ^ w

(* [None] for the point at infinity: no ciphertext decrypts under it *)
type prepared = { params : Params.t; key : Pairing.prepared option }

let with_prepared (params : Params.t) d_id f =
  match d_id with
  | Curve.Inf -> f { params; key = None }
  | Curve.Affine _ -> Pairing.with_prepared params d_id (fun key -> f { params; key = Some key })

let decrypt_prepared ?(plausible = fun _ -> true) { params; key } ctxt =
  let fp = params.fp in
  let pb = Curve.point_bytes fp in
  match key with
  | None -> None
  | Some _ when String.length ctxt < pb + 32 -> None
  | Some key -> begin
    match Curve.of_bytes fp (String.sub ctxt 0 pb) with
    | None | Some Curve.Inf -> None
    | Some u ->
      let v = String.sub ctxt pb 32 in
      let w = String.sub ctxt (pb + 32) (String.length ctxt - pb - 32) in
      let mask = h2 (Pairing.gt_bytes params (Pairing.pair_prepared key u)) in
      let sigma = Util.xor v mask in
      let msg = Chacha20.xor_stream ~key:(h4 sigma) ~nonce:stream_nonce w in
      (* Fujisaki-Okamoto consistency check: U must equal rP. An
         implausible plaintext is rejected before it; any plaintext
         returned has passed it. *)
      if not (plausible msg) then None
      else if Curve.equal u (Params.mul_g params (h3 params sigma msg)) then Some msg
      else None
  end

let decrypt params d_id ctxt = with_prepared params d_id (fun prep -> decrypt_prepared prep ctxt)

let master_public_bytes (params : Params.t) pk = Curve.to_bytes params.fp pk
let master_public_of_bytes (params : Params.t) s = Curve.of_bytes params.fp s
let identity_key_bytes = master_public_bytes
let identity_key_of_bytes = master_public_of_bytes
