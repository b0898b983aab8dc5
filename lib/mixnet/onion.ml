module Drbg = Alpenhorn_crypto.Drbg
module Aead = Alpenhorn_crypto.Aead
module Params = Alpenhorn_pairing.Params
module Dh = Alpenhorn_dh.Dh

let zero_nonce = String.make 12 '\000'

let layer_overhead (params : Params.t) = Dh.public_size params + Aead.overhead

let wrap_one (params : Params.t) rng ~server_pk body =
  let esk, epk = Dh.keygen params rng in
  let key = Dh.shared_secret params esk server_pk in
  Dh.public_bytes params epk ^ Aead.seal ~key ~nonce:zero_nonce body

let wrap (params : Params.t) rng ~server_pks body =
  List.fold_left (fun acc pk -> wrap_one params rng ~server_pk:pk acc) body (List.rev server_pks)

let unwrap (params : Params.t) ~sk msg =
  let pklen = Dh.public_size params in
  if String.length msg < pklen + Aead.overhead then None
  else begin
    match Dh.shared_secret_of_bytes params sk (String.sub msg 0 pklen) with
    | None -> None
    | Some key -> Aead.open_ ~key ~nonce:zero_nonce (String.sub msg pklen (String.length msg - pklen))
  end
