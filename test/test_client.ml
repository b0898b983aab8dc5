(* Client-side unit tests: wire format, request verification, submission
   uniformity. Full protocol flows live in test_integration.ml. *)

module B = Alpenhorn_bigint.Bigint
module Curve = Alpenhorn_pairing.Curve
module Params = Alpenhorn_pairing.Params
module Bls = Alpenhorn_bls.Bls
module Dh = Alpenhorn_dh.Dh
module Drbg = Alpenhorn_crypto.Drbg
module Config = Alpenhorn_core.Config
module Wire = Alpenhorn_core.Wire
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Pkg = Alpenhorn_pkg.Pkg

let params = lazy (Params.test ())
let p () = Lazy.force params

let sample_request seed =
  let pr = p () in
  let rng = Drbg.create ~seed in
  let sk, pk = Bls.keygen pr rng in
  let _, dh_pk = Dh.keygen pr rng in
  let skeleton =
    {
      Wire.sender_email = "alice@example.org";
      sender_key = pk;
      sender_sig = Curve.infinity;
      pkg_sigs = Curve.infinity;
      dialing_key = dh_pk;
      dialing_round = 42;
    }
  in
  (sk, { skeleton with Wire.sender_sig = Bls.sign pr sk (Wire.sender_sig_message pr skeleton) })

let unit_tests =
  [
    Alcotest.test_case "wire roundtrip (Fig 3)" `Quick (fun () ->
        let pr = p () in
        let _, req = sample_request "w1" in
        (* pkg_sigs must be a decodable point: use a real signature *)
        let rng = Drbg.create ~seed:"w1b" in
        let sk2, _ = Bls.keygen pr rng in
        let req = { req with Wire.pkg_sigs = Bls.sign pr sk2 "att" } in
        match Wire.decode_request pr (Wire.encode_request pr req) with
        | None -> Alcotest.fail "decode failed"
        | Some got ->
          Alcotest.(check string) "email" req.Wire.sender_email got.Wire.sender_email;
          Alcotest.(check int) "round" req.Wire.dialing_round got.Wire.dialing_round;
          Alcotest.(check bool) "key" true (Curve.equal req.Wire.sender_key got.Wire.sender_key);
          Alcotest.(check bool) "sig" true (Curve.equal req.Wire.sender_sig got.Wire.sender_sig);
          Alcotest.(check bool) "dh" true (Curve.equal req.Wire.dialing_key got.Wire.dialing_key));
    Alcotest.test_case "requests are fixed size regardless of email length" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"w2" in
        let sk2, _ = Bls.keygen pr rng in
        let _, base = sample_request "w2a" in
        let base = { base with Wire.pkg_sigs = Bls.sign pr sk2 "a" } in
        let short = { base with Wire.sender_email = "a@b" } in
        let long = { base with Wire.sender_email = String.make 60 'x' ^ "@y.z" } in
        Alcotest.(check int) "same size"
          (String.length (Wire.encode_request pr short))
          (String.length (Wire.encode_request pr long));
        Alcotest.(check int) "declared size" (Wire.request_plaintext_size pr)
          (String.length (Wire.encode_request pr short)));
    Alcotest.test_case "oversized email rejected" `Quick (fun () ->
        let pr = p () in
        let _, req = sample_request "w3" in
        let req = { req with Wire.sender_email = String.make 100 'e' } in
        Alcotest.check_raises "too long" (Invalid_argument "Wire.encode_request: email too long")
          (fun () -> ignore (Wire.encode_request pr req)));
    Alcotest.test_case "decode rejects wrong-size and corrupt input" `Quick (fun () ->
        let pr = p () in
        Alcotest.(check bool) "empty" true (Wire.decode_request pr "" = None);
        Alcotest.(check bool) "short" true (Wire.decode_request pr "abc" = None);
        Alcotest.(check bool) "garbage of right size" true
          (Wire.decode_request pr (String.make (Wire.request_plaintext_size pr) '\xee') = None));
    Alcotest.test_case "client basics: queues, friends, self-friend" `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"client-basics" in
        let c = Deployment.new_client d ~email:"me@x" ~callbacks:Client.null_callbacks in
        Alcotest.(check string) "email" "me@x" (Client.email c);
        Alcotest.check_raises "self" (Invalid_argument "Client.add_friend: cannot friend yourself")
          (fun () -> Client.add_friend c ~email:"me@x" ());
        Client.add_friend c ~email:"you@x" ();
        Client.add_friend c ~email:"you@x" () (* duplicate is a no-op *);
        Alcotest.(check int) "one pending" 1 (Client.pending_add_friends c);
        Alcotest.(check bool) "not a friend yet" false (Client.is_friend c ~email:"you@x");
        Alcotest.check_raises "intent out of range" (Invalid_argument "Client.call: intent")
          (fun () -> Client.call c ~email:"you@x" ~intent:99));
    Alcotest.test_case "verify_request detects forged PKG attestations" `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"client-verify" in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
        (match Deployment.register d alice with Ok () -> () | Error _ -> assert false);
        (match Deployment.register d bob with Ok () -> () | Error _ -> assert false);
        (* run a real round so alice obtains genuine PKG attestation material;
           capture bob's view by hand-building a request *)
        Client.add_friend alice ~email:"bob@x" ();
        let stats = Deployment.run_addfriend_round d () in
        Alcotest.(check bool) "bob accepted" true
          (List.exists
             (function _, Client.Friend_request_accepted _ -> true | _ -> false)
             stats.Deployment.events);
        (* a self-signed request without PKG attestation must fail ok1 *)
        let pr = Deployment.params d in
        let rng = Drbg.create ~seed:"forger" in
        let fsk, fpk = Bls.keygen pr rng in
        let _, dh_pk = Dh.keygen pr rng in
        let skeleton =
          {
            Wire.sender_email = "mallory@x";
            sender_key = fpk;
            sender_sig = Curve.infinity;
            pkg_sigs = Bls.sign pr fsk "not an attestation";
            dialing_key = dh_pk;
            dialing_round = 3;
          }
        in
        let forged =
          { skeleton with Wire.sender_sig = Bls.sign pr fsk (Wire.sender_sig_message pr skeleton) }
        in
        (match Client.verify_request bob ~round:2 forged with
         | Error `Bad_pkg_sigs -> ()
         | Ok () -> Alcotest.fail "forged attestation accepted"
         | Error `Bad_sender_sig -> Alcotest.fail "wrong error"));
    Alcotest.test_case "submissions are uniform: cover vs real same length" `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"uniform" in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
        (match Deployment.register d alice with Ok () -> () | Error _ -> assert false);
        (match Deployment.register d bob with Ok () -> () | Error _ -> assert false);
        (* alice has a queued request, bob sends cover: capture both onions *)
        Client.add_friend alice ~email:"bob@x" ();
        let pkgs = Deployment.pkgs d in
        let round = 1 in
        let commitments = Array.map (fun pkg -> Pkg.begin_round pkg ~round) pkgs in
        ignore commitments;
        Array.iter (fun pkg -> ignore (Pkg.reveal_round pkg ~round)) pkgs;
        let mpks =
          Array.to_list pkgs |> List.map (fun pkg -> Option.get (Pkg.master_public pkg ~round))
        in
        let mpk_agg = Alpenhorn_ibe.Ibe.aggregate_public (Deployment.params d) mpks in
        let rng = Drbg.create ~seed:"uniform-keys" in
        let server_pks = [ snd (Dh.keygen (Deployment.params d) rng) ] in
        let ctx c =
          match Client.begin_addfriend_round c ~round ~now:0 ~pkgs with
          | Ok ctx -> ctx
          | Error e -> Alcotest.failf "begin: %s" (Pkg.error_to_string e)
        in
        let real =
          Client.addfriend_submission alice (ctx alice) ~mpk_agg ~num_mailboxes:2 ~server_pks
        in
        let cover =
          Client.addfriend_submission bob (ctx bob) ~mpk_agg ~num_mailboxes:2 ~server_pks
        in
        Alcotest.(check int) "same size" (String.length real) (String.length cover));
    Alcotest.test_case "dialing submissions are uniform too" `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"uniform-dial" in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let rng = Drbg.create ~seed:"uniform-dial-keys" in
        let server_pks = [ snd (Dh.keygen (Deployment.params d) rng) ] in
        (* no friends: cover traffic *)
        let cover = Client.dialing_submission alice ~num_mailboxes:1 ~server_pks in
        (* with a live friend and a queued call: real token *)
        Alpenhorn_keywheel.Keywheel.add_friend (Client.keywheel alice) ~email:"bob@x"
          ~secret:(String.make 32 's') ~round:0;
        Client.call alice ~email:"bob@x" ~intent:0;
        let real = Client.dialing_submission alice ~num_mailboxes:1 ~server_pks in
        Alcotest.(check int) "same size" (String.length cover) (String.length real));
    Alcotest.test_case "sender_sig binds the dialing key (MITM swap rejected)" `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"client-swap" in
        let pr = Deployment.params d in
        let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
        (* register a raw keypair for mallory directly with the PKGs so the
           request carries genuine attestations — swapping the DH half must
           then fail on the sender signature, not on PKGSigs *)
        let rng = Drbg.create ~seed:"client-swap-keys" in
        let msk, mpk = Bls.keygen pr rng in
        let email = "mallory@x" in
        let now = Deployment.now d in
        Array.iter
          (fun pkg ->
            match Pkg.register pkg ~now ~email ~pk:mpk with
            | Ok () -> ()
            | Error e -> Alcotest.failf "register: %s" (Pkg.error_to_string e))
          (Deployment.pkgs d);
        List.iter
          (fun (i, token) ->
            match Pkg.confirm (Deployment.pkgs d).(i) ~now ~email ~token with
            | Ok () -> ()
            | Error e -> Alcotest.failf "confirm: %s" (Pkg.error_to_string e))
          (Deployment.inbox d ~email);
        let round = 1 in
        Array.iter (fun pkg -> ignore (Pkg.begin_round pkg ~round)) (Deployment.pkgs d);
        Array.iter
          (fun pkg ->
            match Pkg.reveal_round pkg ~round with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "reveal: %s" (Pkg.error_to_string e))
          (Deployment.pkgs d);
        let ext_sig = Bls.sign pr msk (Pkg.extraction_request_message ~email ~round) in
        let atts =
          Array.to_list (Deployment.pkgs d)
          |> List.map (fun pkg ->
                 match Pkg.extract pkg ~now ~round ~email ~signature:ext_sig with
                 | Ok (_, att) -> att
                 | Error e -> Alcotest.failf "extract: %s" (Pkg.error_to_string e))
        in
        let _, dh_pk = Dh.keygen pr rng in
        let skeleton =
          {
            Wire.sender_email = email;
            sender_key = mpk;
            sender_sig = Curve.infinity;
            pkg_sigs = Bls.aggregate pr atts;
            dialing_key = dh_pk;
            dialing_round = 7;
          }
        in
        let req =
          { skeleton with Wire.sender_sig = Bls.sign pr msk (Wire.sender_sig_message pr skeleton) }
        in
        (match Client.verify_request bob ~round req with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "genuine request rejected");
        (* an in-path attacker re-wraps the request around their own DH key *)
        let _, evil_dh = Dh.keygen pr (Drbg.create ~seed:"client-swap-evil") in
        let swapped = { req with Wire.dialing_key = evil_dh } in
        match Client.verify_request bob ~round swapped with
        | Error `Bad_sender_sig -> ()
        | Ok () -> Alcotest.fail "swapped dialing key accepted (MITM)"
        | Error `Bad_pkg_sigs -> Alcotest.fail "wrong error: PKGSigs must still verify");
    Alcotest.test_case "decode_request rejects nonzero email padding" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"pad" in
        let sk2, _ = Bls.keygen pr rng in
        let _, req = sample_request "pad-req" in
        let req = { req with Wire.pkg_sigs = Bls.sign pr sk2 "att"; sender_email = "a@b" } in
        let enc = Wire.encode_request pr req in
        Alcotest.(check bool) "canonical form decodes" true (Wire.decode_request pr enc <> None);
        (* byte 0 is the email length; bytes 1+len .. max_email_length are
           padding and must be all-zero — anything else is a covert channel *)
        let len = Char.code enc.[0] in
        Alcotest.(check int) "email length" 3 len;
        let tweaked = Bytes.of_string enc in
        Bytes.set tweaked (1 + len) 'Z';
        Alcotest.(check bool) "nonzero padding rejected" true
          (Wire.decode_request pr (Bytes.to_string tweaked) = None));
    Alcotest.test_case "remove_friend erases all traces" `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"remove" in
        let c = Deployment.new_client d ~email:"me@x" ~callbacks:Client.null_callbacks in
        Alpenhorn_keywheel.Keywheel.add_friend (Client.keywheel c) ~email:"bob@x"
          ~secret:(String.make 32 's') ~round:0;
        Alcotest.(check bool) "friend" true (Client.is_friend c ~email:"bob@x");
        Client.remove_friend c ~email:"bob@x";
        Alcotest.(check bool) "gone" false (Client.is_friend c ~email:"bob@x");
        Alcotest.(check (option reject)) "no pinned key" None (Client.pinned_key c ~email:"bob@x"));
  ]

(* ---- the prepared add-friend scan against a reference decryption ---- *)

module Ibe = Alpenhorn_ibe.Ibe
module Pairing = Alpenhorn_pairing.Pairing
module Sha256 = Alpenhorn_crypto.Sha256
module Chacha20 = Alpenhorn_crypto.Chacha20
module Util = Alpenhorn_crypto.Util

(* FullIdent decryption written out from the scheme (§4.2) on the affine
   reference pairing, with no plausibility test: the plaintext, and
   whether it passes the Fujisaki-Okamoto check. *)
let reference_decrypt pr d_id ctxt =
  let pb = Curve.point_bytes pr.Params.fp in
  if String.length ctxt < pb + 32 then None
  else
    match Curve.of_bytes pr.Params.fp (String.sub ctxt 0 pb) with
    | None | Some Curve.Inf -> None
    | Some u ->
      let mask = Sha256.digest ("bf-h2" ^ Pairing.gt_bytes pr (Pairing.pair_reference pr d_id u)) in
      let sigma = Util.xor (String.sub ctxt pb 32) mask in
      let msg =
        Chacha20.xor_stream
          ~key:(Sha256.digest ("bf-h4" ^ sigma))
          ~nonce:(String.make 12 '\000')
          (String.sub ctxt (pb + 32) (String.length ctxt - pb - 32))
      in
      let r = Pairing.hash_to_scalar pr ("bf-h3" ^ sigma ^ msg) in
      Some (msg, Curve.equal u (Params.mul_g pr r))

(* One add-friend round for bob, built by hand from a fixed seed so two
   calls give identical worlds: bob's round state, his aggregated identity
   key, and a mailbox holding three genuine requests (one with a bit
   flipped in the last plaintext byte, which stays a plausible request but
   fails the FO check), faithful IBE noise, random bytes, bit-flipped U,
   v and w, a request for another identity, and a ciphertext for bob whose
   plaintext is not a request. *)
let scan_world () =
  let d = Deployment.create ~config:Config.test ~seed:"scan-accepted" in
  let pr = Deployment.params d in
  let pkgs = Deployment.pkgs d in
  let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
  (match Deployment.register d bob with Ok () -> () | Error _ -> assert false);
  let rng = Drbg.create ~seed:"scan-accepted-keys" in
  let now = Deployment.now d in
  let senders =
    List.map
      (fun email ->
        let sk, pk = Bls.keygen pr rng in
        Array.iter
          (fun pkg ->
            match Pkg.register pkg ~now ~email ~pk with
            | Ok () -> ()
            | Error e -> Alcotest.failf "register: %s" (Pkg.error_to_string e))
          pkgs;
        List.iter
          (fun (i, token) ->
            match Pkg.confirm pkgs.(i) ~now ~email ~token with
            | Ok () -> ()
            | Error e -> Alcotest.failf "confirm: %s" (Pkg.error_to_string e))
          (Deployment.inbox d ~email);
        (email, sk, pk))
      [ "mallory@x"; "trent@x"; "victor@x" ]
  in
  let round = 1 in
  Array.iter (fun pkg -> ignore (Pkg.begin_round pkg ~round)) pkgs;
  Array.iter (fun pkg -> ignore (Pkg.reveal_round pkg ~round)) pkgs;
  let mpk_agg =
    Ibe.aggregate_public pr
      (Array.to_list pkgs |> List.map (fun pkg -> Option.get (Pkg.master_public pkg ~round)))
  in
  let request (email, sk, pk) =
    let signature = Bls.sign pr sk (Pkg.extraction_request_message ~email ~round) in
    let atts =
      Array.to_list pkgs
      |> List.map (fun pkg ->
             match Pkg.extract pkg ~now ~round ~email ~signature with
             | Ok (_, att) -> att
             | Error e -> Alcotest.failf "extract: %s" (Pkg.error_to_string e))
    in
    let skeleton =
      {
        Wire.sender_email = email;
        sender_key = pk;
        sender_sig = Curve.infinity;
        pkg_sigs = Bls.aggregate pr atts;
        dialing_key = snd (Dh.keygen pr rng);
        dialing_round = 5;
      }
    in
    Wire.encode_request pr
      { skeleton with Wire.sender_sig = Bls.sign pr sk (Wire.sender_sig_message pr skeleton) }
  in
  let shares = ref [] in
  let af =
    match
      Client.begin_addfriend_round_with bob ~round ~n_pkgs:(Array.length pkgs)
        ~extract:(fun i ~email ~signature ->
          let r = Pkg.extract pkgs.(i) ~now ~round ~email ~signature in
          (match r with Ok (share, _) -> shares := share :: !shares | Error _ -> ());
          r)
    with
    | Ok af -> af
    | Error e -> Alcotest.failf "begin: %s" (Pkg.error_to_string e)
  in
  let d_id = Ibe.aggregate_identity pr !shares in
  let to_bob plaintext = Ibe.encrypt pr rng mpk_agg ~id:"bob@x" plaintext in
  let flip ctxt i =
    let b = Bytes.of_string ctxt in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  let pb = Curve.point_bytes pr.Params.fp in
  let size = Wire.request_plaintext_size pr in
  let real = List.map (fun s -> to_bob (request s)) senders in
  let mailbox =
    [
      List.nth real 0;
      Ibe.encrypt pr rng mpk_agg ~id:"noise@x" (Drbg.bytes rng size);
      flip (List.nth real 1) 0;
      List.nth real 1;
      flip (List.nth real 0) pb;
      flip (List.nth real 0) (pb + 32);
      Drbg.bytes rng (String.length (List.nth real 0));
      Ibe.encrypt pr rng mpk_agg ~id:"carol@x" (request (List.nth senders 0));
      flip (List.nth real 2) (String.length (List.nth real 2) - 1);
      to_bob (Drbg.bytes rng size);
      List.nth real 2;
    ]
  in
  (pr, bob, af, d_id, mailbox)

let scan_tests =
  [
    Alcotest.test_case "prepared scan accepts exactly the reference set" `Quick (fun () ->
        let pr, bob, af, d_id, mailbox = scan_world () in
        let decodes = function
          | Some msg -> Wire.decode_request pr msg <> None
          | None -> false
        in
        let reference =
          List.map
            (fun c ->
              match reference_decrypt pr d_id c with
              | Some (msg, true) -> Some msg
              | Some (_, false) | None -> None)
            mailbox
        in
        let prepared =
          Ibe.with_prepared pr d_id (fun key ->
              List.map (Ibe.decrypt_prepared ~plausible:(Wire.plausible_request pr) key) mailbox)
        in
        let accepted outs = List.filter decodes outs in
        let indices outs = List.concat (List.mapi (fun i o -> if decodes o then [ i ] else []) outs) in
        Alcotest.(check (list int)) "reference accepts the genuine requests" [ 0; 3; 10 ]
          (indices reference);
        Alcotest.(check (list int)) "same accepted set" (indices reference) (indices prepared);
        Alcotest.(check (list (option string))) "same plaintexts" (accepted reference)
          (accepted prepared);
        (* the constructed edge cases are what they claim to be *)
        (match reference_decrypt pr d_id (List.nth mailbox 8) with
         | Some (msg, fo) ->
           Alcotest.(check bool) "flipped last byte: plausible" true (Wire.plausible_request pr msg);
           Alcotest.(check bool) "flipped last byte: fails FO" false fo
         | None -> Alcotest.fail "flipped last byte did not decrypt");
        (match reference_decrypt pr d_id (List.nth mailbox 9) with
         | Some (msg, fo) ->
           Alcotest.(check bool) "random body: passes FO" true fo;
           Alcotest.(check bool) "random body: not a request" false (decodes (Some msg))
         | None -> Alcotest.fail "random body did not decrypt");
        (* the client scan emits for the whole mailbox what an identical
           client emits for the reference-accepted ciphertexts alone *)
        let events = Client.scan_addfriend_mailbox bob af mailbox in
        Alcotest.(check bool) "prepared table erased" true (Pairing.prepared_table_is_clear ());
        let _, bob', af', _, mailbox' = scan_world () in
        Alcotest.(check (list string)) "identical worlds" mailbox mailbox';
        let reference_events =
          Client.scan_addfriend_mailbox bob' af'
            (List.filteri (fun i _ -> List.mem i (indices reference)) mailbox')
        in
        Alcotest.(check int) "three requests accepted" 3
          (List.length
             (List.filter (function Client.Friend_request_accepted _ -> true | _ -> false) events));
        Alcotest.(check bool) "same events" true (events = reference_events));
  ]

let suite = unit_tests @ scan_tests
