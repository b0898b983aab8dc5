(* The Tate pairing: bilinearity, non-degeneracy, hash-to-group. *)

module B = Alpenhorn_bigint.Bigint
module Curve = Alpenhorn_pairing.Curve
module Fp2 = Alpenhorn_pairing.Fp2
module Params = Alpenhorn_pairing.Params
module Pairing = Alpenhorn_pairing.Pairing
module Drbg = Alpenhorn_crypto.Drbg

let params = lazy (Params.test ())
let p () = Lazy.force params

let unit_tests =
  [
    Alcotest.test_case "parameter sets validate" `Quick (fun () ->
        Params.validate (Params.test ());
        (* of_named resolves both presets *)
        ignore (Params.of_named "test");
        Alcotest.check_raises "unknown set" (Invalid_argument "Params.of_named: nope") (fun () ->
            ignore (Params.of_named "nope")));
    Alcotest.test_case "non-degeneracy: e(g,g) <> 1" `Quick (fun () ->
        let pr = p () in
        Alcotest.(check bool) "e(g,g)" false
          (Fp2.equal (Pairing.pair pr pr.Params.g pr.Params.g) Fp2.one));
    Alcotest.test_case "pairing value has order q" `Quick (fun () ->
        let pr = p () in
        let e = Pairing.pair pr pr.Params.g pr.Params.g in
        Alcotest.(check bool) "e^q = 1" true (Fp2.equal (Fp2.pow pr.Params.fp e pr.Params.q) Fp2.one));
    Alcotest.test_case "rejects infinity" `Quick (fun () ->
        let pr = p () in
        Alcotest.check_raises "left" (Invalid_argument "Pairing.pair: point at infinity") (fun () ->
            ignore (Pairing.pair pr Curve.Inf pr.Params.g)));
    Alcotest.test_case "symmetry: e(a,b) = e(b,a)" `Quick (fun () ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        let a = Curve.mul f (B.of_int 123) g and b = Curve.mul f (B.of_int 456) g in
        Alcotest.(check bool) "symmetric" true (Fp2.equal (Pairing.pair pr a b) (Pairing.pair pr b a)));
    Alcotest.test_case "hash_to_group produces order-q curve points" `Quick (fun () ->
        let pr = p () in
        List.iter
          (fun id ->
            let h = Pairing.hash_to_group pr id in
            Alcotest.(check bool) (id ^ " on curve") true (Curve.is_on_curve pr.Params.fp h);
            Alcotest.(check bool) (id ^ " not inf") false (Curve.equal h Curve.Inf);
            Alcotest.(check bool) (id ^ " order q") true
              (Curve.equal (Curve.mul pr.Params.fp pr.Params.q h) Curve.Inf))
          [ "alice@example.org"; "bob@example.org"; ""; "x"; String.make 200 'z' ]);
    Alcotest.test_case "hash_to_group deterministic and collision-free on sample" `Quick (fun () ->
        let pr = p () in
        let h1 = Pairing.hash_to_group pr "alice@example.org" in
        let h2 = Pairing.hash_to_group pr "alice@example.org" in
        let h3 = Pairing.hash_to_group pr "bob@example.org" in
        Alcotest.(check bool) "deterministic" true (Curve.equal h1 h2);
        Alcotest.(check bool) "distinct ids distinct points" false (Curve.equal h1 h3));
    Alcotest.test_case "hash_to_scalar in range and deterministic" `Quick (fun () ->
        let pr = p () in
        let s1 = Pairing.hash_to_scalar pr "msg" and s2 = Pairing.hash_to_scalar pr "msg" in
        Alcotest.(check bool) "deterministic" true (B.equal s1 s2);
        Alcotest.(check bool) "in (0, q)" true (B.sign s1 > 0 && B.compare s1 pr.Params.q < 0);
        Alcotest.(check bool) "differs by msg" false
          (B.equal s1 (Pairing.hash_to_scalar pr "other")));
    Alcotest.test_case "gt serialization is canonical" `Quick (fun () ->
        let pr = p () in
        let e = Pairing.pair pr pr.Params.g pr.Params.g in
        Alcotest.(check string) "same bytes" (Pairing.gt_bytes pr e) (Pairing.gt_bytes pr e));
  ]

(* regression: the 2-torsion point (-1, 0) used to hit the tangent branch
   with y = 0 and raise Division_by_zero; the tangent there is vertical *)
let two_torsion_tests =
  let tt pr = Curve.make pr.Params.fp ~x:(Alpenhorn_pairing.Field.neg pr.Params.fp B.one) ~y:B.zero in
  [
    Alcotest.test_case "line_and_add doubles 2-torsion as a vertical" `Quick (fun () ->
        let pr = p () in
        let f = pr.Params.fp in
        let t = tt pr in
        let xq = Fp2.mul_fp f pr.Params.zeta (B.of_int 7) and yq = Fp2.of_fp (B.of_int 9) in
        let l, v, sum = Pairing.line_and_add f t t ~xq ~yq in
        Alcotest.(check bool) "t + t = O" true (Curve.equal sum Curve.Inf);
        Alcotest.(check bool) "v = 1" true (Fp2.equal v Fp2.one);
        (* the vertical through x = -1, evaluated at xq *)
        Alcotest.(check bool) "l = xq + 1" true
          (Fp2.equal l (Fp2.sub f xq (Fp2.of_fp (Alpenhorn_pairing.Field.neg f B.one)))));
    Alcotest.test_case "Curve.double of 2-torsion is O" `Quick (fun () ->
        let pr = p () in
        Alcotest.(check bool) "double" true (Curve.equal (Curve.double pr.Params.fp (tt pr)) Curve.Inf));
    Alcotest.test_case "pairing with a 2-torsion first argument does not raise" `Quick (fun () ->
        let pr = p () in
        let t = tt pr in
        (* the Miller loop doubles through y = 0 immediately; both paths
           must survive and agree *)
        Alcotest.(check bool) "fast = reference" true
          (Fp2.equal (Pairing.pair pr t pr.Params.g) (Pairing.pair_reference pr t pr.Params.g)));
  ]

let fast_path_tests =
  [
    Alcotest.test_case "fast pairing equals reference on random points" `Quick (fun () ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        let rng = Drbg.create ~seed:"pair-fast" in
        for i = 1 to 12 do
          let a = Curve.mul f (Drbg.bigint_below rng pr.Params.q) g in
          let b =
            if i mod 2 = 0 then Pairing.hash_to_group pr (string_of_int i)
            else Curve.mul f (Drbg.bigint_below rng pr.Params.q) g
          in
          match (a, b) with
          | Curve.Inf, _ | _, Curve.Inf -> ()
          | _ ->
            Alcotest.(check bool) "fast = reference" true
              (Fp2.equal (Pairing.pair pr a b) (Pairing.pair_reference pr a b))
        done);
    Alcotest.test_case "fast pairing equals reference on the production curve" `Slow (fun () ->
        let pr = Params.production () in
        let h = Pairing.hash_to_group pr "production-probe" in
        Alcotest.(check bool) "fast = reference" true
          (Fp2.equal (Pairing.pair pr pr.Params.g h) (Pairing.pair_reference pr pr.Params.g h)));
    Alcotest.test_case "pair_cached equals pair and hits on repeats" `Quick (fun () ->
        let pr = p () in
        let module Tel = Alpenhorn_telemetry.Telemetry in
        let h = Pairing.hash_to_group pr "cache-probe" in
        ignore (Tel.Snapshot.take ~reset:true Tel.default);
        let e1 = Pairing.pair_cached pr h pr.Params.g in
        let e2 = Pairing.pair_cached pr h pr.Params.g in
        Alcotest.(check bool) "cached = direct" true (Fp2.equal e1 (Pairing.pair pr h pr.Params.g));
        Alcotest.(check bool) "stable" true (Fp2.equal e1 e2);
        let snap = Tel.Snapshot.take Tel.default in
        Alcotest.(check bool) "at least one hit" true
          (Tel.Snapshot.counter_sum snap "pairing.cache_hits" >= 1);
        Alcotest.(check bool) "at least one miss" true
          (Tel.Snapshot.counter_sum snap "pairing.cache_misses" >= 1));
  ]

(* The three Montgomery paths — [pair] (coefficients evaluated as they
   are generated), [pair_prepared] (stored once) and [pair_product] —
   against the affine reference, on random pairs and on first arguments
   whose Miller walk takes the degenerate steps: the 2-torsion point
   (-1, 0), whose first tangent is vertical, and the 3-torsion point
   (0, 1), whose walk passes through O. Every walk of an order-q point
   ends with T = -P at the last addition. *)
let coefficient_paths_tests =
  let degenerate pr =
    let f = pr.Params.fp in
    [
      Curve.make f ~x:(Alpenhorn_pairing.Field.neg f B.one) ~y:B.zero;
      Curve.make f ~x:B.zero ~y:B.one;
    ]
  in
  let random_pairs pr n =
    let f = pr.Params.fp and g = pr.Params.g in
    let rng = Drbg.create ~seed:"pair-paths" in
    List.init n (fun i ->
        let a = Curve.mul f (B.add B.one (Drbg.bigint_below rng (B.sub pr.Params.q B.one))) g in
        let b =
          if i mod 2 = 0 then Pairing.hash_to_group pr (string_of_int i)
          else Curve.mul f (B.add B.one (Drbg.bigint_below rng (B.sub pr.Params.q B.one))) g
        in
        (a, b))
  in
  let check_paths pr pairs =
    List.iter
      (fun (a, b) ->
        let reference = Pairing.pair_reference pr a b in
        Alcotest.(check bool) "pair = reference" true (Fp2.equal (Pairing.pair pr a b) reference);
        Alcotest.(check bool) "pair_product [a, b] = reference" true
          (Fp2.equal (Pairing.pair_product pr [ (a, b) ]) reference);
        Pairing.with_prepared pr a (fun prep ->
            Alcotest.(check bool) "prepared = reference" true
              (Fp2.equal (Pairing.pair_prepared prep b) reference);
            (* the table is reusable: a second evaluation agrees *)
            Alcotest.(check bool) "prepared twice" true
              (Fp2.equal (Pairing.pair_prepared prep b) reference)))
      pairs;
    let product =
      List.fold_left
        (fun acc (a, b) -> Fp2.mul pr.Params.fp acc (Pairing.pair_reference pr a b))
        Fp2.one pairs
    in
    Alcotest.(check bool) "pair_product = product of references" true
      (Fp2.equal (Pairing.pair_product pr pairs) product)
  in
  [
    Alcotest.test_case "pair, prepared and product equal the reference" `Quick (fun () ->
        let pr = p () in
        check_paths pr (random_pairs pr 8));
    Alcotest.test_case "pair, prepared and product equal the reference on degenerate steps"
      `Quick (fun () ->
        let pr = p () in
        check_paths pr (List.map (fun t -> (t, pr.Params.g)) (degenerate pr)));
    Alcotest.test_case "prepared paths on the production curve" `Slow (fun () ->
        let pr = Params.production () in
        check_paths pr (random_pairs pr 2));
    Alcotest.test_case "prepared table is zeroed on exit, also on an exception" `Quick (fun () ->
        let pr = p () in
        let g = pr.Params.g in
        let kept = ref None in
        Pairing.with_prepared pr g (fun prep ->
            kept := Some prep;
            Alcotest.(check bool) "table in use holds the key" false
              (Pairing.prepared_table_is_clear ());
            (* a nested scope on the same domain gets its own table *)
            Pairing.with_prepared pr g (fun inner -> ignore (Pairing.pair_prepared inner g));
            Alcotest.(check bool) "outer table intact after nested scope" true
              (Fp2.equal (Pairing.pair_prepared prep g) (Pairing.pair_reference pr g g)));
        Alcotest.(check bool) "zero after return" true (Pairing.prepared_table_is_clear ());
        (match !kept with
         | None -> Alcotest.fail "no handle"
         | Some prep ->
           Alcotest.check_raises "dead handle"
             (Invalid_argument "Pairing.pair_prepared: outside with_prepared") (fun () ->
               ignore (Pairing.pair_prepared prep g)));
        Alcotest.check_raises "trial raises" (Failure "trial") (fun () ->
            Pairing.with_prepared pr g (fun prep ->
                ignore (Pairing.pair_prepared prep g);
                failwith "trial"));
        Alcotest.(check bool) "zero after raise" true (Pairing.prepared_table_is_clear ()));
    Alcotest.test_case "gt_pow matches Fp2.pow" `Quick (fun () ->
        let pr = p () in
        let e = Pairing.pair pr pr.Params.g (Pairing.hash_to_group pr "gt-pow") in
        let rng = Drbg.create ~seed:"gt-pow" in
        List.iter
          (fun k ->
            Alcotest.(check bool) (B.to_string k) true
              (Fp2.equal (Pairing.gt_pow pr e k) (Fp2.pow pr.Params.fp e k)))
          (B.zero :: B.one :: B.of_int 77 :: List.init 6 (fun _ -> Drbg.bigint_below rng pr.Params.q)));
  ]

let prop name ?(count = 15) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "bilinearity in the first argument" QCheck.(pair (int_range 1 500) (int_range 1 500))
      (fun (a, b) ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        let lhs = Pairing.pair pr (Curve.mul f (B.of_int a) g) (Curve.mul f (B.of_int b) g) in
        let rhs = Fp2.pow f (Pairing.pair pr g g) (B.of_int (a * b)) in
        Fp2.equal lhs rhs);
    prop "pairing with hashed points is bilinear" QCheck.(pair (int_range 1 300) small_string)
      (fun (a, id) ->
        let pr = p () in
        let f = pr.Params.fp in
        let h = Pairing.hash_to_group pr id in
        let lhs = Pairing.pair pr (Curve.mul f (B.of_int a) pr.Params.g) h in
        let rhs = Fp2.pow f (Pairing.pair pr pr.Params.g h) (B.of_int a) in
        Fp2.equal lhs rhs);
    prop "e(aP, bQ) = e(bP, aQ)" QCheck.(pair (int_range 1 200) (int_range 1 200)) (fun (a, b) ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        let h = Pairing.hash_to_group pr "swap-test" in
        Fp2.equal
          (Pairing.pair pr (Curve.mul f (B.of_int a) g) (Curve.mul f (B.of_int b) h))
          (Pairing.pair pr (Curve.mul f (B.of_int b) g) (Curve.mul f (B.of_int a) h)));
  ]

let suite =
  unit_tests @ two_torsion_tests @ fast_path_tests @ coefficient_paths_tests @ property_tests
