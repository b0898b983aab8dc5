(* Crypto primitives against RFC test vectors plus behavioural properties. *)

module C = Alpenhorn_crypto
module Sha256 = C.Sha256
module Hmac = C.Hmac
module Chacha20 = C.Chacha20
module Aead = C.Aead
module Drbg = C.Drbg
module Util = C.Util

let hex = Util.to_hex

let sha256_vectors =
  (* FIPS 180-4 / RFC 6234 *)
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
  ]

let unit_tests =
  [
    Alcotest.test_case "sha256 vectors" `Quick (fun () ->
        List.iter
          (fun (input, expect) ->
            Alcotest.(check string) ("sha256 of " ^ input) expect (hex (Sha256.digest input)))
          sha256_vectors);
    Alcotest.test_case "sha256 million a's" `Slow (fun () ->
        Alcotest.(check string) "million"
          "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
          (hex (Sha256.digest (String.make 1_000_000 'a'))));
    Alcotest.test_case "sha256 incremental equals one-shot" `Quick (fun () ->
        let data = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
        List.iter
          (fun chunk ->
            let ctx = Sha256.init () in
            let rec feed pos =
              if pos < String.length data then begin
                let n = Stdlib.min chunk (String.length data - pos) in
                Sha256.update ctx (String.sub data pos n);
                feed (pos + n)
              end
            in
            feed 0;
            Alcotest.(check string)
              (Printf.sprintf "chunk=%d" chunk)
              (hex (Sha256.digest data))
              (hex (Sha256.finalize ctx)))
          [ 1; 7; 63; 64; 65; 128; 1000 ]);
    Alcotest.test_case "sha256 padding boundaries" `Quick (fun () ->
        (* lengths straddling the 55/56/64-byte padding edges must all differ *)
        let digests = List.map (fun n -> Sha256.digest (String.make n 'x')) [ 54; 55; 56; 57; 63; 64; 65 ] in
        let uniq = List.sort_uniq compare digests in
        Alcotest.(check int) "all distinct" (List.length digests) (List.length uniq));
    Alcotest.test_case "hmac rfc4231 cases" `Quick (fun () ->
        Alcotest.(check string) "case 1"
          "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
          (hex (Hmac.hmac_sha256 ~key:(String.make 20 '\x0b') "Hi There"));
        Alcotest.(check string) "case 2"
          "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
          (hex (Hmac.hmac_sha256 ~key:"Jefe" "what do ya want for nothing?"));
        (* case 6: key longer than block size *)
        Alcotest.(check string) "case 6 long key"
          "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
          (hex
             (Hmac.hmac_sha256 ~key:(String.make 131 '\xaa')
                "Test Using Larger Than Block-Size Key - Hash Key First")));
    Alcotest.test_case "hkdf rfc5869 case 1" `Quick (fun () ->
        let ikm = Util.of_hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b" in
        let salt = Util.of_hex "000102030405060708090a0b0c" in
        let info = Util.of_hex "f0f1f2f3f4f5f6f7f8f9" in
        Alcotest.(check string) "okm"
          "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
          (hex (Hmac.hkdf ~salt ~info ~len:42 ikm)));
    Alcotest.test_case "sha256 update_bytes rejects slices outside the buffer" `Quick (fun () ->
        let buf = Bytes.make 64 'b' in
        List.iter
          (fun (off, len) ->
            let ctx = Sha256.init () in
            Sha256.update ctx "prefix";
            Alcotest.check_raises
              (Printf.sprintf "off=%d len=%d" off len)
              (Invalid_argument "Sha256.update_bytes")
              (fun () -> Sha256.update_bytes ctx buf off len);
            (* a rejected slice hashes nothing *)
            Alcotest.(check string) "context untouched" (hex (Sha256.digest "prefix"))
              (hex (Sha256.finalize ctx)))
          [ (-1, 1); (0, -1); (0, 65); (1, 64); (60, 5); (65, 0); (max_int, 1); (1, max_int) ]);
    (* Known answers computed with the original byte-at-a-time kernel: every
       message length 0..300 and every HMAC key length 0..131, folded into
       one digest each, so the rewritten kernel cannot drift unnoticed. *)
    Alcotest.test_case "sha256, hmac and hkdf known-answer sweeps" `Quick (fun () ->
        let acc = Sha256.init () in
        for n = 0 to 300 do
          Sha256.update acc
            (Sha256.digest (String.init n (fun i -> Char.chr (((i * 7) + n) land 0xff))))
        done;
        Alcotest.(check string) "sha256 lengths 0..300"
          "60d63ff40b5558727a9b786ac0be9300f7ca58fd9ddd3b2f3681b369018a87dc"
          (hex (Sha256.finalize acc));
        let acc = Sha256.init () in
        for kl = 0 to 131 do
          Sha256.update acc
            (Hmac.hmac_sha256
               ~key:(String.init kl (fun i -> Char.chr ((i + kl) land 0xff)))
               (String.make (kl + 50) 'm'))
        done;
        Alcotest.(check string) "hmac key lengths 0..131"
          "f55860667e9569c0d83f884230f5bf3c56adeb678b087a7c8e1c5d816f036169"
          (hex (Sha256.finalize acc));
        Alcotest.(check string) "hkdf 100 bytes"
          ("fe8f9615d2374c0d17f77d1aeaf408c2e75fe0466073d0def23c733e2f862dfd6814c925"
         ^ "4418fa112fe862ed399c4b25fdadeaae292fad99bb17d22f96564592abdc5737225fc050"
         ^ "2567d4eafdc012bd0f06cc3afac9d4b7f372af9a9e95a6dcfaf90709")
          (hex (Hmac.hkdf ~salt:"salt" ~info:"info" ~len:100 "ikm")));
    Alcotest.test_case "drbg derive known answer" `Quick (fun () ->
        let d = Drbg.derive (Drbg.create ~seed:"pin-seed") "pin-label" in
        Alcotest.(check string) "32 bytes"
          "9578bf090f65a0aea2f5e354a0f7fcbef86ab7161d89029cc57b58816786b2db"
          (hex (Drbg.bytes d 32)));
    Alcotest.test_case "hmac prepared key equals one-shot, keys 0..131 x messages 0..200" `Quick
      (fun () ->
        for kl = 0 to 131 do
          let key = String.init kl (fun i -> Char.chr (((3 * i) + kl) land 0xff)) in
          let k = Hmac.prepare key in
          for ml = 0 to 200 do
            let msg = String.init ml (fun i -> Char.chr ((i + (5 * ml)) land 0xff)) in
            if Hmac.mac k msg <> Hmac.hmac_sha256 ~key msg then
              Alcotest.failf "key length %d, message length %d" kl ml
          done;
          Hmac.erase k
        done);
    Alcotest.test_case "hmac erase zeroes the prepared key and kills it" `Quick (fun () ->
        let k = Hmac.prepare (String.make 32 'k') in
        ignore (Hmac.mac k "before");
        Alcotest.(check bool) "live key is not clear" false (Hmac.is_erased k);
        Hmac.erase k;
        Alcotest.(check bool) "midstates zeroed" true (Hmac.is_erased k);
        Alcotest.check_raises "mac after erase"
          (Invalid_argument "Sha256: context used after erase")
          (fun () -> ignore (Hmac.mac k "after")));
    Alcotest.test_case "one prepared key shared by 4 domains gives the sequential tags" `Quick
      (fun () ->
        let module Parallel = Alpenhorn_parallel.Parallel in
        let k = Hmac.prepare (String.make 32 'p') in
        let msgs = Array.init 2000 (fun i -> "keywheel-h2" ^ Util.be32 i ^ "owner@example.org") in
        let sequential = Array.map (Hmac.mac k) msgs in
        let pool = Parallel.create ~domains:4 in
        let parallel =
          Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () ->
              Parallel.map pool (Hmac.mac k) msgs)
        in
        Alcotest.(check (array string)) "same tags" sequential parallel;
        Alcotest.(check string) "midstates unchanged"
          (Hmac.hmac_sha256 ~key:(String.make 32 'p') msgs.(7))
          (Hmac.mac k msgs.(7)));
    Alcotest.test_case "chacha20 rfc8439" `Quick (fun () ->
        let key = Util.of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
        let nonce = Util.of_hex "000000000000004a00000000" in
        let pt =
          "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the \
           future, sunscreen would be it."
        in
        let ct = Chacha20.xor_stream ~key ~nonce ~counter:1 pt in
        Alcotest.(check string) "first block"
          "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
          (String.sub (hex ct) 0 64);
        Alcotest.(check string) "decrypt" pt (Chacha20.xor_stream ~key ~nonce ~counter:1 ct));
    Alcotest.test_case "chacha20 rejects bad key/nonce sizes" `Quick (fun () ->
        Alcotest.check_raises "key" (Invalid_argument "Chacha20.block: key") (fun () ->
            ignore (Chacha20.block ~key:"short" ~nonce:(String.make 12 '\000') ~counter:0));
        Alcotest.check_raises "nonce" (Invalid_argument "Chacha20.block: nonce") (fun () ->
            ignore (Chacha20.block ~key:(String.make 32 'k') ~nonce:"short" ~counter:0)));
    Alcotest.test_case "aead roundtrip and tamper detection" `Quick (fun () ->
        let key = String.make 32 'k' and nonce = String.make 12 'n' in
        let ct = Aead.seal ~key ~nonce ~ad:"header" "payload" in
        Alcotest.(check int) "overhead" (String.length "payload" + Aead.overhead) (String.length ct);
        Alcotest.(check (option string)) "open" (Some "payload") (Aead.open_ ~key ~nonce ~ad:"header" ct);
        Alcotest.(check (option string)) "wrong ad" None (Aead.open_ ~key ~nonce ~ad:"other" ct);
        Alcotest.(check (option string)) "wrong key" None
          (Aead.open_ ~key:(String.make 32 'x') ~nonce ~ad:"header" ct);
        let flipped = Bytes.of_string ct in
        Bytes.set flipped 0 (Char.chr (Char.code (Bytes.get flipped 0) lxor 1));
        Alcotest.(check (option string)) "bit flip" None
          (Aead.open_ ~key ~nonce ~ad:"header" (Bytes.to_string flipped));
        Alcotest.(check (option string)) "truncated" None
          (Aead.open_ ~key ~nonce ~ad:"header" (String.sub ct 0 3)));
    Alcotest.test_case "aead empty message" `Quick (fun () ->
        let key = String.make 32 'k' and nonce = String.make 12 'n' in
        let ct = Aead.seal ~key ~nonce "" in
        Alcotest.(check (option string)) "empty" (Some "") (Aead.open_ ~key ~nonce ct));
    Alcotest.test_case "drbg determinism and derivation" `Quick (fun () ->
        let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
        Alcotest.(check string) "same seed same stream" (hex (Drbg.bytes a 64)) (hex (Drbg.bytes b 64));
        let c = Drbg.create ~seed:"t" in
        Alcotest.(check bool) "different seed differs" false
          (Drbg.bytes (Drbg.create ~seed:"s") 64 = Drbg.bytes c 64);
        let d1 = Drbg.derive (Drbg.create ~seed:"s") "x" in
        let d2 = Drbg.derive (Drbg.create ~seed:"s") "x" in
        let d3 = Drbg.derive (Drbg.create ~seed:"s") "y" in
        Alcotest.(check string) "derive deterministic" (hex (Drbg.bytes d1 32)) (hex (Drbg.bytes d2 32));
        Alcotest.(check bool) "derive label matters" false (Drbg.bytes d1 32 = Drbg.bytes d3 32));
    Alcotest.test_case "drbg int bounds" `Quick (fun () ->
        let rng = Drbg.create ~seed:"bounds" in
        for _ = 1 to 1000 do
          let v = Drbg.int rng 7 in
          Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
        done;
        Alcotest.check_raises "zero bound" (Invalid_argument "Drbg.int") (fun () ->
            ignore (Drbg.int rng 0)));
    Alcotest.test_case "drbg float in [0,1)" `Quick (fun () ->
        let rng = Drbg.create ~seed:"floats" in
        for _ = 1 to 1000 do
          let f = Drbg.float rng in
          Alcotest.(check bool) "in range" true (f >= 0.0 && f < 1.0)
        done);
    Alcotest.test_case "laplace b=0 is deterministic" `Quick (fun () ->
        let rng = Drbg.create ~seed:"lap" in
        Alcotest.(check (float 0.0)) "mu exactly" 5.0 (Drbg.laplace rng ~mu:5.0 ~b:0.0));
    Alcotest.test_case "laplace sample mean near mu" `Quick (fun () ->
        let rng = Drbg.create ~seed:"lap2" in
        let n = 20_000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Drbg.laplace rng ~mu:100.0 ~b:10.0
        done;
        let mean = !sum /. float_of_int n in
        Alcotest.(check bool) "mean within 1" true (Float.abs (mean -. 100.0) < 1.0));
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let rng = Drbg.create ~seed:"shuffle" in
        let a = Array.init 100 Fun.id in
        Drbg.shuffle rng a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "multiset preserved" (Array.init 100 Fun.id) sorted;
        Alcotest.(check bool) "actually shuffled" false (a = Array.init 100 Fun.id));
    Alcotest.test_case "util hex roundtrip and errors" `Quick (fun () ->
        Alcotest.(check string) "roundtrip" "\x00\xff\x10" (Util.of_hex (Util.to_hex "\x00\xff\x10"));
        Alcotest.check_raises "odd length" (Invalid_argument "Util.of_hex") (fun () ->
            ignore (Util.of_hex "abc"));
        Alcotest.check_raises "bad char" (Invalid_argument "Util.of_hex") (fun () ->
            ignore (Util.of_hex "zz")));
    Alcotest.test_case "util const_time_eq" `Quick (fun () ->
        Alcotest.(check bool) "equal" true (Util.const_time_eq "abc" "abc");
        Alcotest.(check bool) "differs" false (Util.const_time_eq "abc" "abd");
        Alcotest.(check bool) "length" false (Util.const_time_eq "abc" "abcd"));
    Alcotest.test_case "util be32/be64" `Quick (fun () ->
        Alcotest.(check int) "be32" 0xdeadbeef (Util.read_be32 (Util.be32 0xdeadbeef) 0);
        Alcotest.(check int) "be64" 0x1234567890ab (Util.read_be64 (Util.be64 0x1234567890ab) 0));
  ]

let prop name ?(count = 50) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "chacha20 xor_stream is an involution"
      QCheck.(pair small_string (int_range 0 1000))
      (fun (msg, seed) ->
        let rng = Drbg.create ~seed:(string_of_int seed) in
        let key = Drbg.bytes rng 32 and nonce = Drbg.bytes rng 12 in
        Chacha20.xor_stream ~key ~nonce (Chacha20.xor_stream ~key ~nonce msg) = msg);
    prop "aead roundtrips arbitrary messages"
      QCheck.(pair string (int_range 0 1000))
      (fun (msg, seed) ->
        let rng = Drbg.create ~seed:(string_of_int seed) in
        let key = Drbg.bytes rng 32 and nonce = Drbg.bytes rng 12 in
        Aead.open_ ~key ~nonce (Aead.seal ~key ~nonce msg) = Some msg);
    prop "xor self-inverse" QCheck.(pair small_string small_string) (fun (a, b) ->
        QCheck.assume (String.length a = String.length b);
        Util.xor (Util.xor a b) b = a);
    prop "hmac differs on key and message" QCheck.(int_range 0 10_000) (fun seed ->
        let rng = Drbg.create ~seed:(string_of_int seed) in
        let k1 = Drbg.bytes rng 32 and k2 = Drbg.bytes rng 32 and m = Drbg.bytes rng 20 in
        Hmac.hmac_sha256 ~key:k1 m <> Hmac.hmac_sha256 ~key:k2 m);
  ]

let suite = unit_tests @ property_tests
