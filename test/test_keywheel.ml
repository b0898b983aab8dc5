(* The keywheel: evolution, synchronization, forward secrecy semantics. *)

module Keywheel = Alpenhorn_keywheel.Keywheel

let secret = String.make 32 's'
let secret2 = String.make 32 't'

let unit_tests =
  [
    Alcotest.test_case "caller token matches callee expectation" `Quick (fun () ->
        let a = Keywheel.create ~owner:"alice@x" and b = Keywheel.create ~owner:"bob@x" in
        Keywheel.add_friend a ~email:"bob@x" ~secret ~round:3;
        Keywheel.add_friend b ~email:"alice@x" ~secret ~round:3;
        Keywheel.advance_to a ~round:7;
        Keywheel.advance_to b ~round:7;
        (* alice's outgoing token to bob is exactly what bob scans for *)
        let expected =
          Keywheel.expected_tokens b ~max_intents:2
          |> List.filter_map (fun (peer, intent, tok) ->
                 if peer = "alice@x" && intent = 1 then Some tok else None)
        in
        (match (Keywheel.dial_token a ~email:"bob@x" ~intent:1, expected) with
         | Some t1, [ t2 ] -> Alcotest.(check string) "token agrees" t1 t2
         | _ -> Alcotest.fail "missing token");
        Alcotest.(check (option string)) "session agrees"
          (Keywheel.session_key a ~email:"bob@x")
          (Keywheel.session_key b ~email:"alice@x"));
    Alcotest.test_case "tokens are directional" `Quick (fun () ->
        (* alice->bob and bob->alice tokens differ even with identical wheel
           state, so a caller never sees their own call as incoming *)
        let a = Keywheel.create ~owner:"alice@x" and b = Keywheel.create ~owner:"bob@x" in
        Keywheel.add_friend a ~email:"bob@x" ~secret ~round:0;
        Keywheel.add_friend b ~email:"alice@x" ~secret ~round:0;
        Alcotest.(check bool) "directional" false
          (Keywheel.dial_token a ~email:"bob@x" ~intent:0
          = Keywheel.dial_token b ~email:"alice@x" ~intent:0));
    Alcotest.test_case "tokens differ by intent and round" `Quick (fun () ->
        let a = Keywheel.create ~owner:"alice@x" in
        Keywheel.add_friend a ~email:"bob@x" ~secret ~round:0;
        let t0 = Keywheel.dial_token a ~email:"bob@x" ~intent:0 in
        let t1 = Keywheel.dial_token a ~email:"bob@x" ~intent:1 in
        Alcotest.(check bool) "intents differ" false (t0 = t1);
        Keywheel.advance_to a ~round:1;
        let t0' = Keywheel.dial_token a ~email:"bob@x" ~intent:0 in
        Alcotest.(check bool) "rounds differ" false (t0 = t0'));
    Alcotest.test_case "token differs from session key" `Quick (fun () ->
        let a = Keywheel.create ~owner:"alice@x" in
        Keywheel.add_friend a ~email:"bob@x" ~secret ~round:0;
        Alcotest.(check bool) "separation" false
          (Keywheel.dial_token a ~email:"bob@x" ~intent:0 = Keywheel.session_key a ~email:"bob@x"));
    Alcotest.test_case "future entries are dormant until the clock catches up" `Quick (fun () ->
        let a = Keywheel.create ~owner:"alice@x" in
        Keywheel.add_friend a ~email:"chris@x" ~secret ~round:28 (* Fig 5 *);
        Alcotest.(check (option string)) "dormant" None
          (Keywheel.dial_token a ~email:"chris@x" ~intent:0);
        Keywheel.advance_to a ~round:26;
        Alcotest.(check (option string)) "still dormant" None
          (Keywheel.dial_token a ~email:"chris@x" ~intent:0);
        Alcotest.(check (option int)) "entry not advanced" (Some 28)
          (Keywheel.entry_round a ~email:"chris@x");
        Keywheel.advance_to a ~round:28;
        Alcotest.(check bool) "live at 28" true
          (Keywheel.dial_token a ~email:"chris@x" ~intent:0 <> None));
    Alcotest.test_case "cannot rewind" `Quick (fun () ->
        let a = Keywheel.create ~owner:"alice@x" in
        Keywheel.advance_to a ~round:5;
        Alcotest.check_raises "rewind" (Invalid_argument "Keywheel.advance_to: cannot rewind")
          (fun () -> Keywheel.advance_to a ~round:4));
    Alcotest.test_case "remove_friend erases the entry" `Quick (fun () ->
        let a = Keywheel.create ~owner:"alice@x" in
        Keywheel.add_friend a ~email:"bob@x" ~secret ~round:0;
        Keywheel.remove_friend a ~email:"bob@x";
        Alcotest.(check (option string)) "gone" None (Keywheel.dial_token a ~email:"bob@x" ~intent:0);
        Alcotest.(check int) "count" 0 (Keywheel.friend_count a));
    Alcotest.test_case "expected_tokens enumerates friends x intents" `Quick (fun () ->
        let a = Keywheel.create ~owner:"alice@x" in
        Keywheel.add_friend a ~email:"bob@x" ~secret ~round:0;
        Keywheel.add_friend a ~email:"carol@x" ~secret:secret2 ~round:0;
        Keywheel.add_friend a ~email:"future@x" ~secret ~round:99;
        let tokens = Keywheel.expected_tokens a ~max_intents:3 in
        Alcotest.(check int) "2 live friends x 3 intents" 6 (List.length tokens);
        let uniq = List.sort_uniq compare (List.map (fun (_, _, t) -> t) tokens) in
        Alcotest.(check int) "all distinct" 6 (List.length uniq));
    Alcotest.test_case "peek_token_at matches a stepped wheel" `Quick (fun () ->
        let a = Keywheel.create ~owner:"alice@x" in
        Keywheel.add_friend a ~email:"bob@x" ~secret ~round:2;
        Keywheel.advance_to a ~round:9;
        Alcotest.(check (option string)) "oracle"
          (Some (Keywheel.peek_token_at ~secret ~from_round:2 ~at_round:9 ~callee:"bob@x" ~intent:1))
          (Keywheel.dial_token a ~email:"bob@x" ~intent:1));
    Alcotest.test_case "forward secrecy: old keys are unrecoverable from state" `Quick (fun () ->
        (* After advancing, the wheel's stored key is the new one; the old
           token can no longer be produced by any API. *)
        let a = Keywheel.create ~owner:"alice@x" in
        Keywheel.add_friend a ~email:"bob@x" ~secret ~round:0;
        let old_token = Keywheel.dial_token a ~email:"bob@x" ~intent:0 in
        Keywheel.advance_to a ~round:1;
        Alcotest.(check bool) "token changed" false
          (Keywheel.dial_token a ~email:"bob@x" ~intent:0 = old_token));
    Alcotest.test_case "rejects bad secrets and rounds" `Quick (fun () ->
        let a = Keywheel.create ~owner:"alice@x" in
        Alcotest.check_raises "short secret"
          (Invalid_argument "Keywheel.add_friend: secret must be 32 bytes") (fun () ->
            Keywheel.add_friend a ~email:"x@y" ~secret:"short" ~round:0);
        Alcotest.check_raises "negative round"
          (Invalid_argument "Keywheel.add_friend: negative round") (fun () ->
            Keywheel.add_friend a ~email:"x@y" ~secret ~round:(-1)));
    Alcotest.test_case "re-adding a friend replaces the entry" `Quick (fun () ->
        let a = Keywheel.create ~owner:"alice@x" in
        Keywheel.add_friend a ~email:"bob@x" ~secret ~round:0;
        Keywheel.add_friend a ~email:"bob@x" ~secret:secret2 ~round:5;
        Alcotest.(check (option int)) "new round" (Some 5) (Keywheel.entry_round a ~email:"bob@x");
        Alcotest.(check int) "still one entry" 1 (Keywheel.friend_count a));
    (* Known answers from the original one-shot HMAC derivation: H2 via
       dial_token and expected_tokens, H3 via session_key, and H1 via the
       round-8 session key and token, whose wheel key is H1 of the secret. *)
    Alcotest.test_case "H1/H2/H3 known answers" `Quick (fun () ->
        let hex = Alpenhorn_crypto.Util.to_hex in
        let secret = String.init 32 (fun i -> Char.chr (0xa0 + i)) in
        let w = Keywheel.create ~owner:"bob@example.org" in
        Keywheel.add_friend w ~email:"alice@example.org" ~secret ~round:7;
        Keywheel.advance_to w ~round:7;
        let get = function Some v -> hex v | None -> Alcotest.fail "missing" in
        Alcotest.(check string) "H2 dial_token, round 7, intent 3"
          "fc7bafad23678a595a320fb9c79a4b28e2d6444e349c7929c2d151530e1789bd"
          (get (Keywheel.dial_token w ~email:"alice@example.org" ~intent:3));
        Alcotest.(check string) "H3 session_key, round 7"
          "6c1e2cd67af6292134142f983b0fd595299948f8edff7c977c327b56e75652da"
          (get (Keywheel.session_key w ~email:"alice@example.org"));
        Alcotest.(check (list (triple string int string)))
          "H2 expected_tokens, round 7"
          [
            ( "alice@example.org", 0,
              "a77ca8efeaf4edff2f9c9a576d447748a589bc00b2cf0dd33f6080fa40ce27e1" );
            ( "alice@example.org", 1,
              "757658fbf3c4a701d205a7bfc74dbb355e0c98d56811bab08ec561d855538ebb" );
          ]
          (List.map (fun (e, i, t) -> (e, i, hex t)) (Keywheel.expected_tokens w ~max_intents:2));
        Keywheel.advance_to w ~round:8;
        Alcotest.(check string) "H3 after H1, round 8"
          "8d1ee1ac61f77b35fa7e3e716786e4c7ad55e0c861c75b15e212cdba0024a0aa"
          (get (Keywheel.session_key w ~email:"alice@example.org"));
        Alcotest.(check string) "H2 after H1, round 8, intent 0"
          "d31e1e8df3aeffd212242d5a21ac6ed2255f3128c848d06a8f9abc594181d382"
          (get (Keywheel.dial_token w ~email:"alice@example.org" ~intent:0));
        Alcotest.(check string) "peek_token_at, rounds 7 -> 10"
          "694534ce1bb419951a5143af299966f1bb76c8d76950fbca12f92eed723ad508"
          (hex
             (Keywheel.peek_token_at ~secret ~from_round:7 ~at_round:10
                ~callee:"carol@example.org" ~intent:1)));
  ]

let prop name ?(count = 30) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "advancing in steps equals advancing at once"
      QCheck.(pair (int_range 0 20) (int_range 0 20))
      (fun (r1, r2) ->
        let target = r1 + r2 in
        let a = Keywheel.create ~owner:"alice@x" and b = Keywheel.create ~owner:"alice@x" in
        Keywheel.add_friend a ~email:"f@x" ~secret ~round:0;
        Keywheel.add_friend b ~email:"f@x" ~secret ~round:0;
        Keywheel.advance_to a ~round:r1;
        Keywheel.advance_to a ~round:target;
        Keywheel.advance_to b ~round:target;
        Keywheel.dial_token a ~email:"f@x" ~intent:0 = Keywheel.dial_token b ~email:"f@x" ~intent:0);
    prop "tokens at distinct rounds are distinct" QCheck.(pair (int_range 0 50) (int_range 0 50))
      (fun (r1, r2) ->
        QCheck.assume (r1 <> r2);
        Keywheel.peek_token_at ~secret ~from_round:0 ~at_round:r1 ~callee:"c@x" ~intent:0
        <> Keywheel.peek_token_at ~secret ~from_round:0 ~at_round:r2 ~callee:"c@x" ~intent:0);
  ]

let suite = unit_tests @ property_tests
