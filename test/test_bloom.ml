(* Bloom filter: no false negatives, bounded false positives, wire format. *)

module Bloom = Alpenhorn_bloom.Bloom
module Drbg = Alpenhorn_crypto.Drbg

let unit_tests =
  [
    Alcotest.test_case "paper operating point" `Quick (fun () ->
        Alcotest.(check int) "48 bits/element" 48 Bloom.bits_per_element;
        Alcotest.(check (float 1e-12)) "fp target" 1e-10 Bloom.target_fp_rate;
        let f = Bloom.create ~expected_elements:1000 in
        Alcotest.(check int) "sized" (48 * 1000) (Bloom.size_bits f);
        Alcotest.(check int) "hashes" 33 (Bloom.num_hashes f));
    Alcotest.test_case "membership basics" `Quick (fun () ->
        let f = Bloom.create ~expected_elements:10 in
        Alcotest.(check bool) "empty" false (Bloom.mem f "token");
        Bloom.add f "token";
        Alcotest.(check bool) "added" true (Bloom.mem f "token");
        Alcotest.(check int) "count" 1 (Bloom.count f));
    Alcotest.test_case "no false negatives over 5000 tokens" `Quick (fun () ->
        let rng = Drbg.create ~seed:"bloom-neg" in
        let f = Bloom.create ~expected_elements:5000 in
        let tokens = List.init 5000 (fun _ -> Drbg.bytes rng 32) in
        List.iter (Bloom.add f) tokens;
        List.iter (fun t -> Alcotest.(check bool) "present" true (Bloom.mem f t)) tokens);
    Alcotest.test_case "false positive rate is tiny at design load" `Quick (fun () ->
        let rng = Drbg.create ~seed:"bloom-fp" in
        let f = Bloom.create ~expected_elements:2000 in
        for _ = 1 to 2000 do
          Bloom.add f (Drbg.bytes rng 32)
        done;
        (* with target 1e-10, 20k probes should hit zero false positives *)
        let fps = ref 0 in
        for _ = 1 to 20_000 do
          if Bloom.mem f (Drbg.bytes rng 32) then incr fps
        done;
        Alcotest.(check int) "no false positives observed" 0 !fps;
        Alcotest.(check bool) "estimate below target" true
          (Bloom.false_positive_estimate f < 1e-8));
    Alcotest.test_case "serialization roundtrip preserves membership" `Quick (fun () ->
        let rng = Drbg.create ~seed:"bloom-ser" in
        let f = Bloom.create ~expected_elements:100 in
        let tokens = List.init 100 (fun _ -> Drbg.bytes rng 32) in
        List.iter (Bloom.add f) tokens;
        match Bloom.of_bytes (Bloom.to_bytes f) with
        | None -> Alcotest.fail "decode failed"
        | Some g ->
          Alcotest.(check int) "bits" (Bloom.size_bits f) (Bloom.size_bits g);
          Alcotest.(check int) "count" (Bloom.count f) (Bloom.count g);
          List.iter (fun t -> Alcotest.(check bool) "member" true (Bloom.mem g t)) tokens);
    Alcotest.test_case "of_bytes rejects garbage" `Quick (fun () ->
        Alcotest.(check bool) "empty" true (Bloom.of_bytes "" = None);
        Alcotest.(check bool) "short" true (Bloom.of_bytes "abc" = None);
        Alcotest.(check bool) "truncated" true
          (let f = Bloom.create ~expected_elements:10 in
           let b = Bloom.to_bytes f in
           Bloom.of_bytes (String.sub b 0 (String.length b - 1)) = None));
    Alcotest.test_case "custom geometry" `Quick (fun () ->
        let f = Bloom.create_custom ~bits:256 ~hashes:4 in
        Bloom.add f "x";
        Alcotest.(check bool) "works" true (Bloom.mem f "x");
        Alcotest.(check int) "bits" 256 (Bloom.size_bits f);
        Alcotest.check_raises "invalid" (Invalid_argument "Bloom.create_custom") (fun () ->
            ignore (Bloom.create_custom ~bits:0 ~hashes:1)));
    Alcotest.test_case "wire size matches the 48-bit/token accounting" `Quick (fun () ->
        (* §5.2: the whole point is 48 bits/token vs 256-bit raw tokens *)
        let n = 1000 in
        let f = Bloom.create ~expected_elements:n in
        let bytes = String.length (Bloom.to_bytes f) in
        Alcotest.(check bool) "6 bytes/token + header" true (bytes <= (n * 6) + 16);
        Alcotest.(check bool) "well under raw 32 bytes/token" true (bytes * 5 < n * 32));
  ]

(* The dialing benchmark's shape: mailboxes of 203 tokens (48·203 bits, a
   size with many divisors). Under plain double hashing an element whose
   second hash shares a large factor with the size set only a few bits. *)
let index_tests =
  let random_token st = String.init 32 (fun _ -> Char.chr (Random.State.int st 256)) in
  [
    Alcotest.test_case "every element sets at least k/2 distinct bits" `Quick (fun () ->
        let st = Random.State.make [| 0x5eed |] in
        let k = Bloom.num_hashes (Bloom.create ~expected_elements:203) in
        let fewest = ref k in
        for _ = 1 to 100_000 do
          let f = Bloom.create ~expected_elements:203 in
          Bloom.add f (random_token st);
          let distinct =
            int_of_float (Float.round (Bloom.fill_ratio f *. float_of_int (Bloom.size_bits f)))
          in
          fewest := Stdlib.min !fewest distinct
        done;
        Alcotest.(check bool)
          (Printf.sprintf "fewest distinct bits %d >= k/2" !fewest)
          true
          (2 * !fewest >= k));
    Alcotest.test_case "no false positives in 10^6 probes of 20 mailbox filters" `Quick (fun () ->
        let st = Random.State.make [| 0xb100 |] in
        let filters =
          Array.init 20 (fun _ ->
              let f = Bloom.create ~expected_elements:203 in
              for _ = 1 to 203 do
                Bloom.add f (random_token st)
              done;
              f)
        in
        let hits = ref 0 in
        for i = 1 to 1_000_000 do
          if Bloom.mem filters.(i mod 20) (random_token st) then incr hits
        done;
        Alcotest.(check int) "false positives" 0 !hits);
  ]

let prop name ?(count = 30) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "anything added is found" QCheck.(small_list small_string) (fun items ->
        let f = Bloom.create ~expected_elements:(Stdlib.max 1 (List.length items)) in
        List.iter (Bloom.add f) items;
        List.for_all (Bloom.mem f) items);
    prop "roundtrip through bytes" QCheck.(small_list small_string) (fun items ->
        let f = Bloom.create ~expected_elements:(Stdlib.max 1 (List.length items)) in
        List.iter (Bloom.add f) items;
        match Bloom.of_bytes (Bloom.to_bytes f) with
        | None -> false
        | Some g -> List.for_all (Bloom.mem g) items);
  ]

let suite = unit_tests @ index_tests @ property_tests
