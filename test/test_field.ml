(* F_p and F_p² arithmetic against bignum reference computations and the
   field axioms. *)

module B = Alpenhorn_bigint.Bigint
module Field = Alpenhorn_pairing.Field
module Fp2 = Alpenhorn_pairing.Fp2
module Drbg = Alpenhorn_crypto.Drbg

let params = lazy (Alpenhorn_pairing.Params.test ())
let fp () = (Lazy.force params).Alpenhorn_pairing.Params.fp

let gen_el =
  QCheck.Gen.map
    (fun seed ->
      let rng = Drbg.create ~seed:(string_of_int seed) in
      Drbg.bigint_below rng (Field.modulus (fp ())))
    QCheck.Gen.(int_range 0 1_000_000)

let arb_el = QCheck.make ~print:B.to_string gen_el

let arb_fp2 =
  QCheck.make
    ~print:(fun (e : Fp2.el) -> B.to_string e.Fp2.re ^ "+" ^ B.to_string e.Fp2.im ^ "i")
    QCheck.Gen.(map2 Fp2.make gen_el gen_el)

let unit_tests =
  [
    Alcotest.test_case "create rejects bad modulus" `Quick (fun () ->
        Alcotest.check_raises "13 mod 12 = 1"
          (Invalid_argument "Field.create: modulus must be 11 mod 12") (fun () ->
            ignore (Field.create (B.of_int 13))));
    Alcotest.test_case "reduce matches rem" `Quick (fun () ->
        let f = fp () in
        let p = Field.modulus f in
        let rng = Drbg.create ~seed:"reduce" in
        for _ = 1 to 50 do
          let x = Drbg.bigint_bits rng (2 * B.numbits p - 2) in
          Alcotest.(check string) "barrett" (B.to_string (B.rem x p)) (B.to_string (Field.reduce f x))
        done);
    Alcotest.test_case "sqrt of squares" `Quick (fun () ->
        let f = fp () in
        let rng = Drbg.create ~seed:"sqrt" in
        for _ = 1 to 20 do
          let x = Drbg.bigint_below rng (Field.modulus f) in
          let sq = Field.sqr f x in
          match Field.sqrt f sq with
          | None -> Alcotest.fail "square had no root"
          | Some r -> Alcotest.(check bool) "root squares back" true (Field.equal (Field.sqr f r) sq)
        done);
    Alcotest.test_case "sqrt rejects non-residues" `Quick (fun () ->
        (* -1 is a non-residue when p ≡ 3 mod 4 *)
        let f = fp () in
        Alcotest.(check bool) "sqrt(-1) = None" true (Field.sqrt f (Field.neg f B.one) = None));
    Alcotest.test_case "cbrt is cube-inverse" `Quick (fun () ->
        let f = fp () in
        let rng = Drbg.create ~seed:"cbrt" in
        for _ = 1 to 20 do
          let x = Drbg.bigint_below rng (Field.modulus f) in
          let cube = Field.mul f (Field.sqr f x) x in
          Alcotest.(check string) "cbrt(x^3) = x" (B.to_string x) (B.to_string (Field.cbrt f cube))
        done);
    Alcotest.test_case "Montgomery sqrt and cbrt match the Barrett pow reference" `Quick
      (fun () ->
        (* both moduli, random inputs (about half of them non-residues)
           plus 0, 1 and p − 1 *)
        List.iter
          (fun f ->
            let p = Field.modulus f in
            let sqrt_exp = B.div (B.add p B.one) (B.of_int 4)
            and cbrt_exp = B.div (B.sub (B.mul_int p 2) B.one) (B.of_int 3) in
            let rng = Drbg.create ~seed:"mont-roots" in
            let residues = ref 0 and non_residues = ref 0 in
            let inputs = B.zero :: B.one :: B.sub p B.one :: List.init 60 (fun _ -> Drbg.bigint_below rng p) in
            List.iter
              (fun a ->
                let r = Field.pow f a sqrt_exp in
                let expected = if B.equal (Field.sqr f r) a then Some r else None in
                (match (expected, Field.sqrt f a) with
                 | None, None -> incr non_residues
                 | Some e, Some got ->
                   incr residues;
                   Alcotest.(check string) "sqrt" (B.to_string e) (B.to_string got)
                 | _ -> Alcotest.fail ("sqrt residuosity differs at " ^ B.to_string a));
                Alcotest.(check string) "cbrt"
                  (B.to_string (Field.pow f a cbrt_exp))
                  (B.to_string (Field.cbrt f a)))
              inputs;
            Alcotest.(check bool) "both kinds seen" true (!residues > 10 && !non_residues > 10))
          [ fp (); (Alpenhorn_pairing.Params.production ()).Alpenhorn_pairing.Params.fp ]);
    Alcotest.test_case "element bytes roundtrip" `Quick (fun () ->
        let f = fp () in
        let rng = Drbg.create ~seed:"fbytes" in
        let x = Drbg.bigint_below rng (Field.modulus f) in
        Alcotest.(check string) "roundtrip" (B.to_string x)
          (B.to_string (Field.of_bytes f (Field.to_bytes f x)));
        Alcotest.check_raises "non-canonical" (Invalid_argument "Field.of_bytes: malformed")
          (fun () -> ignore (Field.of_bytes f (String.make (Field.element_bytes f) '\xff'))));
    Alcotest.test_case "of_bytes_opt is total" `Quick (fun () ->
        let f = fp () in
        let n = Field.element_bytes f in
        (* wrong widths *)
        Alcotest.(check bool) "short" true (Field.of_bytes_opt f (String.make (n - 1) '\x00') = None);
        Alcotest.(check bool) "long" true (Field.of_bytes_opt f (String.make (n + 1) '\x00') = None);
        Alcotest.(check bool) "empty" true (Field.of_bytes_opt f "" = None);
        (* non-canonical: exactly p, and all-ones *)
        Alcotest.(check bool) "p itself" true
          (Field.of_bytes_opt f (B.to_bytes_be ~len:n (Field.modulus f)) = None);
        Alcotest.(check bool) "all ones" true (Field.of_bytes_opt f (String.make n '\xff') = None);
        (* canonical boundary: p - 1 decodes *)
        let pm1 = B.sub (Field.modulus f) B.one in
        (match Field.of_bytes_opt f (B.to_bytes_be ~len:n pm1) with
        | Some v -> Alcotest.(check bool) "p-1 roundtrips" true (Field.equal v pm1)
        | None -> Alcotest.fail "p-1 should decode"));
    Alcotest.test_case "fp2 one and zero" `Quick (fun () ->
        let f = fp () in
        Alcotest.(check bool) "1*1=1" true (Fp2.equal (Fp2.mul f Fp2.one Fp2.one) Fp2.one);
        Alcotest.(check bool) "0+0=0" true (Fp2.is_zero (Fp2.add f Fp2.zero Fp2.zero));
        Alcotest.(check bool) "one in base field" true (Fp2.in_base_field Fp2.one));
    Alcotest.test_case "fp2 i^2 = -1" `Quick (fun () ->
        let f = fp () in
        let i = Fp2.make B.zero B.one in
        let minus_one = Fp2.of_fp (Field.neg f B.one) in
        Alcotest.(check bool) "i*i" true (Fp2.equal (Fp2.mul f i i) minus_one));
    Alcotest.test_case "fp2 conj multiplies to norm" `Quick (fun () ->
        let f = fp () in
        let rng = Drbg.create ~seed:"conj" in
        let a = Fp2.make (Drbg.bigint_below rng (Field.modulus f)) (Drbg.bigint_below rng (Field.modulus f)) in
        let n = Fp2.mul f a (Fp2.conj f a) in
        Alcotest.(check bool) "norm is in F_p" true (Fp2.in_base_field n));
    Alcotest.test_case "fp2 bytes roundtrip" `Quick (fun () ->
        let f = fp () in
        let rng = Drbg.create ~seed:"fp2bytes" in
        let a = Fp2.make (Drbg.bigint_below rng (Field.modulus f)) (Drbg.bigint_below rng (Field.modulus f)) in
        Alcotest.(check bool) "roundtrip" true
          (match Fp2.of_bytes f (Fp2.to_bytes f a) with
           | Some b -> Fp2.equal a b
           | None -> false));
  ]

(* Barrett fast-path boundary audit: reduce switches to Bigint.rem exactly
   when numbits x > 2k; exercise the boundary (2k-1, 2k, 2k+1 bits), zero
   exponents, and non-canonical inverses against the bignum reference. *)
let boundary_tests =
  [
    Alcotest.test_case "reduce at the 2k-bit boundary" `Quick (fun () ->
        let f = fp () in
        let p = Field.modulus f in
        let k = B.numbits p in
        let rng = Drbg.create ~seed:"barrett-boundary" in
        List.iter
          (fun bits ->
            for _ = 1 to 40 do
              (* force the top bit so numbits is exactly [bits] *)
              let x = B.add (Drbg.bigint_bits rng (bits - 1)) (B.shift_left B.one (bits - 1)) in
              Alcotest.(check string)
                (Printf.sprintf "numbits=%d" bits)
                (B.to_string (B.rem x p))
                (B.to_string (Field.reduce f x))
            done)
          [ (2 * k) - 1; 2 * k; (2 * k) + 1 ];
        (* degenerate small inputs *)
        Alcotest.(check string) "reduce 0" "0" (B.to_string (Field.reduce f B.zero));
        Alcotest.(check string) "reduce p" "0" (B.to_string (Field.reduce f p));
        Alcotest.(check string) "reduce (p-1)"
          (B.to_string (B.sub p B.one))
          (B.to_string (Field.reduce f (B.sub p B.one)));
        Alcotest.(check string) "reduce -1 wraps"
          (B.to_string (B.sub p B.one))
          (B.to_string (Field.reduce f (B.neg B.one))));
    Alcotest.test_case "pow with zero exponent" `Quick (fun () ->
        let f = fp () in
        let rng = Drbg.create ~seed:"pow-zero" in
        Alcotest.(check string) "0^0 = 1" "1" (B.to_string (Field.pow f B.zero B.zero));
        for _ = 1 to 10 do
          let a = Drbg.bigint_below rng (Field.modulus f) in
          Alcotest.(check string) "a^0 = 1" "1" (B.to_string (Field.pow f a B.zero))
        done);
    Alcotest.test_case "inv accepts non-canonical input" `Quick (fun () ->
        (* mod_inv reduces its argument first, so a and a+p must agree *)
        let f = fp () in
        let p = Field.modulus f in
        let rng = Drbg.create ~seed:"inv-noncanon" in
        for _ = 1 to 20 do
          let a = Drbg.bigint_below rng p in
          if not (B.is_zero a) then begin
            let i1 = Field.inv f a in
            let i2 = Field.inv f (B.add a p) in
            let i3 = Field.inv f (B.sub a (B.mul p p)) in
            Alcotest.(check string) "inv (a+p)" (B.to_string i1) (B.to_string i2);
            Alcotest.(check string) "inv (a-p²)" (B.to_string i1) (B.to_string i3);
            Alcotest.(check string) "a · a⁻¹ = 1" "1" (B.to_string (Field.mul f a i1))
          end
        done;
        Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Field.inv f B.zero));
        Alcotest.check_raises "inv p" Division_by_zero (fun () -> ignore (Field.inv f p)));
  ]

let prop name ?(count = 60) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "fp add inverse" arb_el (fun a ->
        let f = fp () in
        Field.is_zero (Field.add f a (Field.neg f a)));
    prop "fp mul inverse" arb_el (fun a ->
        let f = fp () in
        QCheck.assume (not (Field.is_zero a));
        Field.equal (Field.mul f a (Field.inv f a)) B.one);
    prop "fp mul distributes" QCheck.(triple arb_el arb_el arb_el) (fun (a, b, c) ->
        let f = fp () in
        Field.equal (Field.mul f a (Field.add f b c)) (Field.add f (Field.mul f a b) (Field.mul f a c)));
    prop "fp pow adds exponents" QCheck.(triple arb_el (QCheck.int_range 0 50) (QCheck.int_range 0 50))
      (fun (a, m, n) ->
        let f = fp () in
        Field.equal
          (Field.mul f (Field.pow f a (B.of_int m)) (Field.pow f a (B.of_int n)))
          (Field.pow f a (B.of_int (m + n))));
    prop "fp2 mul comm" QCheck.(pair arb_fp2 arb_fp2) (fun (a, b) ->
        let f = fp () in
        Fp2.equal (Fp2.mul f a b) (Fp2.mul f b a));
    prop "fp2 mul assoc" QCheck.(triple arb_fp2 arb_fp2 arb_fp2) (fun (a, b, c) ->
        let f = fp () in
        Fp2.equal (Fp2.mul f (Fp2.mul f a b) c) (Fp2.mul f a (Fp2.mul f b c)));
    prop "fp2 sqr matches mul" arb_fp2 (fun a ->
        let f = fp () in
        Fp2.equal (Fp2.sqr f a) (Fp2.mul f a a));
    prop "fp2 inv is inverse" arb_fp2 (fun a ->
        let f = fp () in
        QCheck.assume (not (Fp2.is_zero a));
        Fp2.equal (Fp2.mul f a (Fp2.inv f a)) Fp2.one);
    prop "fp2 distributivity" QCheck.(triple arb_fp2 arb_fp2 arb_fp2) (fun (a, b, c) ->
        let f = fp () in
        Fp2.equal (Fp2.mul f a (Fp2.add f b c)) (Fp2.add f (Fp2.mul f a b) (Fp2.mul f a c)));
    prop "fp2 pow adds exponents" QCheck.(triple arb_fp2 (QCheck.int_range 0 30) (QCheck.int_range 0 30))
      (fun (a, m, n) ->
        let f = fp () in
        Fp2.equal
          (Fp2.mul f (Fp2.pow f a (B.of_int m)) (Fp2.pow f a (B.of_int n)))
          (Fp2.pow f a (B.of_int (m + n))));
  ]

let suite = unit_tests @ boundary_tests @ property_tests
