(* Pinned per-operation work: how many Montgomery multiplications
   ("pairing.mont_mul") each pairing-stack operation costs on the
   production curve, on fixed inputs. A change to the field kernel must
   leave every count as it is; a change to an algorithm above it has to
   update a number here, in plain sight. *)

module B = Alpenhorn_bigint.Bigint
module Tel = Alpenhorn_telemetry.Telemetry
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Pairing = Alpenhorn_pairing.Pairing
module Ibe = Alpenhorn_ibe.Ibe
module Dh = Alpenhorn_dh.Dh
module Wire = Alpenhorn_core.Wire

let mont_muls f =
  let c = Tel.Counter.v Tel.default "pairing.mont_mul" in
  let before = Tel.Counter.value c in
  ignore (Sys.opaque_identity (f ()));
  Tel.Counter.value c - before

let pinned name expected f =
  Alcotest.test_case name `Quick (fun () ->
      let pr = Params.production () in
      Params.force_tables pr;
      Alcotest.(check int) (name ^ ": pairing.mont_mul") expected (f pr))

let scalar pr = Drbg.bigint_below (Drbg.create ~seed:"workcounts-scalar") pr.Params.q

let suite =
  [
    pinned "Curve.mul, fixed scalar" 2_847 (fun pr ->
        let k = scalar pr in
        mont_muls (fun () -> Curve.mul pr.Params.fp k pr.Params.g));
    pinned "Params.mul_g" 1_144 (fun pr ->
        let k = scalar pr in
        mont_muls (fun () -> Params.mul_g pr k));
    pinned "Pairing.pair" 7_341 (fun pr ->
        let q = Pairing.hash_to_group pr "alice@example.org" in
        mont_muls (fun () -> Pairing.pair pr pr.Params.g q));
    pinned "prepared IBE trial, other recipient" 3_968 (fun pr ->
        let rng = Drbg.create ~seed:"workcounts-ibe" in
        let msk, mpk = Ibe.setup pr rng in
        let d_id = Ibe.extract pr msk "bob@example.org" in
        let msg = String.make (Wire.request_plaintext_size pr) 'm' in
        let ctxt = Ibe.encrypt pr rng mpk ~id:"alice@example.org" msg in
        let plausible = Wire.plausible_request pr in
        Ibe.with_prepared pr d_id (fun prep ->
            mont_muls (fun () -> Ibe.decrypt_prepared ~plausible prep ctxt)));
    pinned "Pairing.hash_to_group" 913 (fun pr ->
        mont_muls (fun () -> Pairing.hash_to_group pr "alice@example.org"));
    pinned "Dh.public_of_bytes" 439 (fun pr ->
        let _, pk = Dh.keygen pr (Drbg.create ~seed:"workcounts-dh") in
        let s = Dh.public_bytes pr pk in
        mont_muls (fun () -> Dh.public_of_bytes pr s));
    pinned "Dh.shared_secret" 2_951 (fun pr ->
        let rng = Drbg.create ~seed:"workcounts-dh" in
        let sk, _ = Dh.keygen pr rng in
        let _, pk = Dh.keygen pr rng in
        mont_muls (fun () -> Dh.shared_secret pr sk pk));
  ]
