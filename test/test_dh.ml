(* Diffie-Hellman over G1. *)

module B = Alpenhorn_bigint.Bigint
module Field = Alpenhorn_pairing.Field
module Curve = Alpenhorn_pairing.Curve
module Params = Alpenhorn_pairing.Params
module Dh = Alpenhorn_dh.Dh
module Drbg = Alpenhorn_crypto.Drbg

let params = lazy (Params.test ())
let p () = Lazy.force params

let unit_tests =
  [
    Alcotest.test_case "both sides derive the same secret" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"dh1" in
        let ska, pka = Dh.keygen pr rng in
        let skb, pkb = Dh.keygen pr rng in
        Alcotest.(check string) "agree" (Dh.shared_secret pr ska pkb) (Dh.shared_secret pr skb pka));
    Alcotest.test_case "secret is 32 bytes" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"dh2" in
        let ska, _ = Dh.keygen pr rng in
        let _, pkb = Dh.keygen pr rng in
        Alcotest.(check int) "len" 32 (String.length (Dh.shared_secret pr ska pkb)));
    Alcotest.test_case "different peers different secrets" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"dh3" in
        let ska, _ = Dh.keygen pr rng in
        let _, pkb = Dh.keygen pr rng in
        let _, pkc = Dh.keygen pr rng in
        Alcotest.(check bool) "differ" false
          (Dh.shared_secret pr ska pkb = Dh.shared_secret pr ska pkc));
    Alcotest.test_case "rejects the point at infinity" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"dh4" in
        let ska, _ = Dh.keygen pr rng in
        Alcotest.check_raises "infinity" (Invalid_argument "Dh.shared_secret: infinity") (fun () ->
            ignore (Dh.shared_secret pr ska Curve.Inf));
        (* the wire decoder also refuses an infinity encoding *)
        let inf_bytes = Curve.to_bytes pr.Params.fp Curve.Inf in
        Alcotest.(check bool) "of_bytes inf" true (Dh.public_of_bytes pr inf_bytes = None));
    Alcotest.test_case "public key bytes roundtrip" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"dh5" in
        let _, pk = Dh.keygen pr rng in
        Alcotest.(check bool) "roundtrip" true
          (match Dh.public_of_bytes pr (Dh.public_bytes pr pk) with
           | Some p2 -> Curve.equal p2 pk
           | None -> false);
        Alcotest.(check int) "size" (Dh.public_size pr) (String.length (Dh.public_bytes pr pk)));
  ]

let prop name ?(count = 20) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "agreement for arbitrary keypairs" QCheck.(int_range 0 100_000) (fun seed ->
        let pr = p () in
        let rng = Drbg.create ~seed:(string_of_int seed) in
        let ska, pka = Dh.keygen pr rng in
        let skb, pkb = Dh.keygen pr rng in
        Dh.shared_secret pr ska pkb = Dh.shared_secret pr skb pka);
  ]

(* ---- small-order peer keys, on the production curve ----

   The curve group has order p + 1 = h·q with the cofactor h = 12l =
   5256 = 2³·3²·73, and decoding checks only that a point is on the
   curve. Multiplying by a raw secret key would let a peer key with a
   small-order component learn the key modulo that component's order. *)

let prod = lazy (Params.production ())

(* (p − 1, 0): x = −1 is the only root of x³ + 1, so this is the one
   point of order 2 *)
let order_two pr =
  let f = pr.Params.fp in
  Curve.make f ~x:(B.sub (Field.modulus f) B.one) ~y:B.zero

(* q·R for random curve points R: points whose order divides h, other
   than infinity, from the order-3 point (0, 1) up to the order-657 and
   order-5256 parts *)
let small_order_points pr ~seed n =
  let f = pr.Params.fp in
  let rng = Drbg.create ~seed in
  let rec point () =
    let y = Drbg.bigint_below rng (Field.modulus f) in
    let y2m1 = Field.sub f (Field.sqr f y) B.one in
    if Field.is_zero y2m1 then point ()
    else
      match Curve.mul f pr.Params.q (Curve.make f ~x:(Field.cbrt f y2m1) ~y) with
      | Curve.Inf -> point ()
      | t -> t
  in
  order_two pr :: Curve.make f ~x:B.zero ~y:B.one :: List.init n (fun _ -> point ())

(* a secret key with the given parity: an odd key is what order 2 exposes *)
let keygen_odd pr rng =
  let rec go () =
    let ((sk, _) as kp) = Dh.keygen pr rng in
    if B.is_even sk then go () else kp
  in
  go ()

let small_order_tests =
  [
    Alcotest.test_case "small-order keys are rejected when decoded" `Quick (fun () ->
        let pr = Lazy.force prod in
        let f = pr.Params.fp in
        let two = Curve.to_bytes f (order_two pr) in
        Alcotest.(check char) "order 2 encodes as x = p - 1, parity 0" '\x00'
          two.[String.length two - 1];
        Alcotest.(check bool) "order 2 rejected" true (Dh.public_of_bytes pr two = None);
        List.iter
          (fun t ->
            Alcotest.(check bool) "order divides h" true (Curve.is_torsion f pr.Params.cofactor t);
            Alcotest.(check bool) "rejected" true (Dh.public_of_bytes pr (Curve.to_bytes f t) = None);
            Alcotest.(check bool) "no secret from its bytes" true
              (Dh.shared_secret_of_bytes pr B.one (Curve.to_bytes f t) = None);
            Alcotest.check_raises "shared_secret refuses it"
              (Invalid_argument "Dh.shared_secret: small-order peer key") (fun () ->
                ignore (Dh.shared_secret pr B.one t)))
          (small_order_points pr ~seed:"dh-small-reject" 4));
    Alcotest.test_case "a small-order component does not change the secret" `Quick (fun () ->
        let pr = Lazy.force prod in
        let f = pr.Params.fp in
        let rng = Drbg.create ~seed:"dh-small-component" in
        let sk, _ = keygen_odd pr rng in
        let _, q = Dh.keygen pr rng in
        let expected = Dh.shared_secret pr sk q in
        List.iter
          (fun t ->
            let qt = Curve.add f q t in
            Alcotest.(check string) "secret with Q + T = secret with Q" expected
              (Dh.shared_secret pr sk qt);
            (* Q + T is not itself of small order, so it decodes *)
            match Dh.public_of_bytes pr (Curve.to_bytes f qt) with
            | Some decoded ->
              Alcotest.(check string) "decoded" expected (Dh.shared_secret pr sk decoded);
              Alcotest.(check (option string)) "from bytes" (Some expected)
                (Dh.shared_secret_of_bytes pr sk (Curve.to_bytes f qt))
            | None -> Alcotest.fail "Q + T rejected")
          (small_order_points pr ~seed:"dh-small-component" 3));
  ]

let suite = unit_tests @ property_tests @ small_order_tests
