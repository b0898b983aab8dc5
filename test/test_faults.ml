(* Chaos suite (DESIGN.md §10): deterministic fault schedules, anytrust
   abort/retry with rollback, rate-limit token un-spending, and keywheel
   offline catch-up — every failure either recovers or aborts cleanly,
   and a faulted-then-recovered run delivers what a fault-free one
   does. *)

module Params = Alpenhorn_pairing.Params
module Blind = Alpenhorn_bls.Blind
module Ratelimit = Alpenhorn_mixnet.Ratelimit
module Keywheel = Alpenhorn_keywheel.Keywheel
module Entry = Alpenhorn_core.Entry
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Costmodel = Alpenhorn_sim.Costmodel
module Round_sim = Alpenhorn_sim.Round_sim
module Faults = Alpenhorn_sim.Faults
module Drbg = Alpenhorn_crypto.Drbg
module Tel = Alpenhorn_telemetry.Telemetry
module Events = Alpenhorn_telemetry.Events

let params = lazy (Params.test ())
let p () = Lazy.force params

let no_faults =
  {
    Deployment.fv_seed = "none";
    fv_crash_attempts = (fun ~round:_ ~server:_ -> 0);
    fv_stall_seconds = (fun ~round:_ ~server:_ -> 0.0);
    fv_client_offline = (fun ~round:_ ~client:_ -> false);
  }

(* ---- schedule unit tests ---- *)

let schedule_tests =
  [
    Alcotest.test_case "spec grammar round-trips" `Quick (fun () ->
        let spec =
          "crash@2:server=1,attempts=2;stall@3:server=0,seconds=45;latency@1:server=2,factor=3;loss@1:server=0,fraction=0.2;offline@4:client=7,rounds=2"
        in
        let t = match Faults.parse spec with Ok t -> t | Error e -> Alcotest.fail e in
        let reparsed =
          match Faults.parse (Faults.to_string t) with Ok t -> t | Error e -> Alcotest.fail e
        in
        Alcotest.(check bool) "canonical fixpoint" true
          (Faults.to_list t = Faults.to_list reparsed);
        Alcotest.(check string) "canonical string stable" (Faults.to_string t)
          (Faults.to_string reparsed));
    Alcotest.test_case "parse rejects malformed specs" `Quick (fun () ->
        List.iter
          (fun spec ->
            match Faults.parse spec with
            | Ok _ -> Alcotest.failf "accepted %S" spec
            | Error _ -> ())
          [ "crash"; "frob@1:server=0"; "crash@zero:server=0"; "crash@1:server=-1" ]);
    Alcotest.test_case "generate is deterministic in the seed" `Quick (fun () ->
        let g () = Faults.generate ~seed:"gen-1" ~rounds:5 ~n_servers:3 ~n_clients:10 () in
        Alcotest.(check string) "same seed, same schedule" (Faults.to_string (g ()))
          (Faults.to_string (g ()));
        let other = Faults.generate ~seed:"gen-2" ~rounds:5 ~n_servers:3 ~n_clients:10 () in
        Alcotest.(check bool) "different seed, different schedule" false
          (Faults.to_string (g ()) = Faults.to_string other));
    Alcotest.test_case "queries combine multiple faults" `Quick (fun () ->
        let t =
          Faults.of_list
            [
              { Faults.round = 1; kind = Faults.Server_crash { server = 0; attempts = 2 } };
              { Faults.round = 1; kind = Faults.Server_crash { server = 0; attempts = 1 } };
              { Faults.round = 1; kind = Faults.Server_stall { server = 0; seconds = 10.0 } };
              { Faults.round = 1; kind = Faults.Server_stall { server = 0; seconds = 5.0 } };
              { Faults.round = 1; kind = Faults.Link_latency { server = 1; factor = 2.0 } };
              { Faults.round = 1; kind = Faults.Link_latency { server = 1; factor = 3.0 } };
              { Faults.round = 1; kind = Faults.Link_loss { server = 1; fraction = 0.5 } };
              { Faults.round = 1; kind = Faults.Link_loss { server = 1; fraction = 0.5 } };
              { Faults.round = 2; kind = Faults.Client_offline { client = 4; rounds = 3 } };
            ]
        in
        Alcotest.(check int) "crash attempts take the max" 2
          (Faults.crash_attempts t ~round:1 ~server:0);
        Alcotest.(check (float 1e-9)) "stalls add" 15.0 (Faults.stall_seconds t ~round:1 ~server:0);
        Alcotest.(check (float 1e-9)) "latency factors multiply" 6.0
          (Faults.latency_factor t ~round:1 ~server:1);
        Alcotest.(check (float 1e-9)) "loss survival rates multiply" 0.75
          (Faults.loss_fraction t ~round:1 ~server:1);
        Alcotest.(check int) "unaffected server" 0 (Faults.crash_attempts t ~round:1 ~server:2);
        List.iter
          (fun (round, expect) ->
            Alcotest.(check bool)
              (Printf.sprintf "offline round %d" round)
              expect
              (Faults.client_offline t ~round ~client:4))
          [ (1, false); (2, true); (3, true); (4, true); (5, false) ];
        Alcotest.(check bool) "other client online" false
          (Faults.client_offline t ~round:2 ~client:5));
    Alcotest.test_case "backoff is deterministic, jittered and capped" `Quick (fun () ->
        let policy = Faults.default_policy in
        let d1 = Faults.backoff_delay policy ~seed:"s" ~attempt:1 in
        Alcotest.(check (float 1e-12)) "same (seed, attempt), same delay" d1
          (Faults.backoff_delay policy ~seed:"s" ~attempt:1);
        Alcotest.(check bool) "different attempt, different delay" false
          (d1 = Faults.backoff_delay policy ~seed:"s" ~attempt:2);
        for attempt = 1 to 8 do
          let raw =
            Float.min policy.Faults.max_delay
              (policy.Faults.base_delay
              *. (policy.Faults.backoff_factor ** float_of_int (attempt - 1)))
          in
          let d = Faults.backoff_delay policy ~seed:"bounds" ~attempt in
          Alcotest.(check bool)
            (Printf.sprintf "attempt %d within jitter band" attempt)
            true
            (d >= raw *. (1.0 -. policy.Faults.jitter) -. 1e-9
            && d <= raw *. (1.0 +. policy.Faults.jitter) +. 1e-9)
        done;
        Alcotest.check_raises "attempt 0 rejected"
          (Invalid_argument "Client.backoff_delay: attempt must be >= 1") (fun () ->
            ignore (Faults.backoff_delay policy ~seed:"s" ~attempt:0)));
  ]

(* ---- simulator chaos corpus ---- *)

let corpus_seeds = [ "chaos-1"; "chaos-2"; "chaos-3"; "chaos-4"; "chaos-5" ]

let replay ?events ~faults () =
  let m = Costmodel.paper_machine in
  let pc = Costmodel.protocol_costs (p ()) in
  let af =
    Round_sim.addfriend m ?events ~faults pc ~n_users:5_000 ~n_servers:3 ~noise_mu:1000.0
      ~active_fraction:0.05 ~chunks:2
  in
  let dial =
    Round_sim.dialing m ?events ~faults pc ~n_users:5_000 ~n_servers:3 ~noise_mu:2000.0
      ~active_fraction:0.05 ~friends:50 ~intents:4 ~chunks:2
  in
  (af, dial)

let sim_tests =
  [
    Alcotest.test_case "chaos corpus: every replay recovers or aborts cleanly" `Quick (fun () ->
        let policy = Faults.default_policy in
        List.iter
          (fun seed ->
            let faults = Faults.generate ~seed ~rounds:1 ~n_servers:3 () in
            let af, dial = replay ~faults () in
            List.iter
              (fun (phase, (tl : Round_sim.timeline)) ->
                let name s = Printf.sprintf "%s/%s %s" seed phase s in
                Alcotest.(check bool)
                  (name "attempts within budget")
                  true
                  (tl.Round_sim.attempts >= 1
                  && tl.Round_sim.attempts <= policy.Faults.max_attempts);
                if tl.Round_sim.completed then
                  Alcotest.(check bool) (name "completed run published") true
                    (tl.Round_sim.publish > 0.0
                    && tl.Round_sim.client_done >= tl.Round_sim.publish)
                else begin
                  (* clean abort: budget exhausted, nothing published *)
                  Alcotest.(check int)
                    (name "failed run used every attempt")
                    policy.Faults.max_attempts tl.Round_sim.attempts;
                  Alcotest.(check (float 0.0)) (name "failed run published nothing") 0.0
                    tl.Round_sim.publish
                end)
              [ ("addfriend", af); ("dialing", dial) ])
          corpus_seeds);
    Alcotest.test_case "same fault seed, byte-identical event log" `Quick (fun () ->
        let run () =
          let ring = Events.create ~capacity:1024 Tel.default in
          let faults = Faults.generate ~seed:"chaos-identical" ~rounds:1 ~n_servers:3 () in
          ignore (replay ~events:ring ~faults ());
          Events.to_jsonl ring
        in
        let log1 = run () and log2 = run () in
        Alcotest.(check bool) "log non-trivial" true (String.length log1 > 0);
        Alcotest.(check string) "byte-identical" log1 log2);
    Alcotest.test_case "crash delays publish by backoff plus re-run" `Quick (fun () ->
        let clean_af, _ = replay ~faults:Faults.empty () in
        let faults =
          Faults.of_list [ { Faults.round = 1; kind = Server_crash { server = 1; attempts = 1 } } ]
        in
        let af, _ = replay ~faults () in
        Alcotest.(check int) "clean run is one attempt" 1 clean_af.Round_sim.attempts;
        Alcotest.(check int) "crashed run recovers on the second" 2 af.Round_sim.attempts;
        Alcotest.(check bool) "recovered" true af.Round_sim.completed;
        Alcotest.(check bool) "publish pushed past the clean run" true
          (af.Round_sim.publish > clean_af.Round_sim.publish));
    Alcotest.test_case "stall past the round timeout aborts, short stall does not" `Quick
      (fun () ->
        let stall seconds =
          Faults.of_list [ { Faults.round = 1; kind = Server_stall { server = 0; seconds } } ]
        in
        let policy = Faults.default_policy in
        let timed_out, _ = replay ~faults:(stall (policy.Faults.round_timeout +. 100.0)) () in
        Alcotest.(check int) "timeout costs the first attempt" 2 timed_out.Round_sim.attempts;
        Alcotest.(check bool) "still recovers" true timed_out.Round_sim.completed;
        let slow, _ = replay ~faults:(stall 30.0) () in
        Alcotest.(check int) "short stall completes in one" 1 slow.Round_sim.attempts);
    Alcotest.test_case "link latency slows the faulted run" `Quick (fun () ->
        let clean_af, _ = replay ~faults:Faults.empty () in
        let faults =
          Faults.of_list [ { Faults.round = 1; kind = Link_latency { server = 0; factor = 4.0 } } ]
        in
        let af, _ = replay ~faults () in
        Alcotest.(check int) "latency alone never aborts" 1 af.Round_sim.attempts;
        Alcotest.(check bool) "publish later than clean" true
          (af.Round_sim.publish > clean_af.Round_sim.publish));
    Alcotest.test_case "empty schedule matches the fault-free replay exactly" `Quick (fun () ->
        let ring1 = Events.create ~capacity:1024 Tel.default in
        let ring2 = Events.create ~capacity:1024 Tel.default in
        let af1, dial1 = replay ~events:ring1 ~faults:Faults.empty () in
        let m = Costmodel.paper_machine in
        let pc = Costmodel.protocol_costs (p ()) in
        let af2 =
          Round_sim.addfriend m ~events:ring2 pc ~n_users:5_000 ~n_servers:3 ~noise_mu:1000.0
            ~active_fraction:0.05 ~chunks:2
        in
        let dial2 =
          Round_sim.dialing m ~events:ring2 pc ~n_users:5_000 ~n_servers:3 ~noise_mu:2000.0
            ~active_fraction:0.05 ~friends:50 ~intents:4 ~chunks:2
        in
        Alcotest.(check bool) "timelines equal" true (af1 = af2 && dial1 = dial2);
        Alcotest.(check string) "event logs equal" (Events.to_jsonl ring1) (Events.to_jsonl ring2));
  ]

(* ---- real-deployment recovery ---- *)

let new_pair d =
  let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
  let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
  List.iter
    (fun c -> match Deployment.register d c with Ok () -> () | Error _ -> assert false)
    [ alice; bob ];
  (alice, bob)

let deployment_tests =
  [
    Alcotest.test_case "crashed server: clean abort, retry, same deliveries as twin" `Quick
      (fun () ->
        let run faulted =
          let d = Deployment.create ~config:Config.test ~seed:"chaos-dep" in
          let alice, bob = new_pair d in
          if faulted then begin
            let faults =
              Faults.of_list
                [ { Faults.round = 1; kind = Server_crash { server = 1; attempts = 1 } } ]
            in
            Deployment.set_faults d (Some (Faults.deployment_view faults))
          end;
          Client.add_friend alice ~email:"bob@x" ();
          let s1 = Deployment.run_addfriend_round d () in
          let s2 = Deployment.run_addfriend_round d () in
          (s1, s2, Client.is_friend alice ~email:"bob@x", Client.is_friend bob ~email:"alice@x")
        in
        let f1, f2, fa, fb = run true in
        let c1, c2, ca, cb = run false in
        Alcotest.(check int) "faulted round recovered on attempt 2" 2 f1.Deployment.af_attempts;
        Alcotest.(check int) "clean second round" 1 f2.Deployment.af_attempts;
        Alcotest.(check int) "twin never retried" 1 c1.Deployment.af_attempts;
        Alcotest.(check bool) "both friendships hold" true (fa && fb && ca && cb);
        (* recovery must not change what got delivered: same (client, event)
           pairs as the fault-free twin, both rounds *)
        Alcotest.(check bool) "round-1 events match twin" true
          (List.sort compare f1.Deployment.events = List.sort compare c1.Deployment.events);
        Alcotest.(check bool) "round-2 events match twin" true
          (List.sort compare f2.Deployment.events = List.sort compare c2.Deployment.events));
    Alcotest.test_case "exhausted retry budget raises Round_failed, deployment stays usable"
      `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"chaos-fail" in
        let alice, bob = new_pair d in
        Deployment.set_retry_policy d
          { Client.default_retry_policy with Client.max_attempts = 2 };
        let faults =
          Faults.of_list [ { Faults.round = 1; kind = Server_crash { server = 0; attempts = 99 } } ]
        in
        Deployment.set_faults d (Some (Faults.deployment_view faults));
        Client.add_friend alice ~email:"bob@x" ();
        (match Deployment.run_addfriend_round d () with
        | _ -> Alcotest.fail "round should have failed"
        | exception Deployment.Round_failed { phase; round; attempts } ->
          Alcotest.(check string) "phase" "addfriend" phase;
          Alcotest.(check int) "round" 1 round;
          Alcotest.(check int) "attempts" 2 attempts);
        (* nothing published, client state rolled back: the queued request
           survives and the next (clean) rounds deliver it *)
        Alcotest.(check int) "request still queued" 1 (Client.pending_add_friends alice);
        Deployment.set_faults d None;
        ignore (Deployment.run_addfriend_round d ());
        ignore (Deployment.run_addfriend_round d ());
        Alcotest.(check bool) "friendship established after recovery" true
          (Client.is_friend bob ~email:"alice@x" && Client.is_friend alice ~email:"bob@x"));
    Alcotest.test_case "a failing participant still erases the PKG round secrets (§4.4)" `Quick
      (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"fs-erase" in
        let alice, bob = new_pair d in
        (* never registered: its extraction fails and sinks the round *)
        let carol = Deployment.new_client d ~email:"carol@x" ~callbacks:Client.null_callbacks in
        (match Deployment.run_addfriend_round d ~participants:[ alice; bob; carol ] () with
        | _ -> Alcotest.fail "round should have failed"
        | exception Failure _ -> ());
        let round = Deployment.addfriend_round_number d in
        Array.iteri
          (fun i pkg ->
            match Client.begin_addfriend_round alice ~round ~now:(Deployment.now d) ~pkgs:[| pkg |] with
            | Error Alpenhorn_pkg.Pkg.Wrong_round -> ()
            | Ok _ -> Alcotest.failf "pkg %d still holds the round's master secret" i
            | Error e -> Alcotest.failf "pkg %d: %s" i (Alpenhorn_pkg.Pkg.error_to_string e))
          (Deployment.pkgs d);
        Alcotest.(check bool) "the failure is logged" true
          (List.exists (fun e -> e.Events.name = "round.error") (Events.to_list Events.default));
        (* the deployment stays usable *)
        let s = Deployment.run_addfriend_round d ~participants:[ alice; bob ] () in
        Alcotest.(check int) "next round runs" (round + 1) s.Deployment.af_round);
    Alcotest.test_case "stall within timeout recovers nothing; past it burns an attempt" `Quick
      (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"chaos-stall" in
        let alice, _bob = new_pair d in
        let policy = Deployment.retry_policy d in
        Deployment.set_faults d
          (Some
             {
               no_faults with
               Deployment.fv_stall_seconds =
                 (fun ~round ~server ->
                   if round = 1 && server = 0 then policy.Client.round_timeout +. 50.0 else 0.0);
             });
        Client.add_friend alice ~email:"bob@x" ();
        let before = Deployment.now d in
        let s = Deployment.run_addfriend_round d () in
        Alcotest.(check int) "timeout burned the first attempt" 2 s.Deployment.af_attempts;
        Alcotest.(check bool) "clock advanced past the timeout" true
          (Deployment.now d - before >= int_of_float policy.Client.round_timeout));
    Alcotest.test_case "offline client misses a call, catches up from the archive" `Quick
      (fun () ->
        let got_call = ref None in
        let d = Deployment.create ~config:Config.test ~seed:"chaos-offline" in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let bob =
          Deployment.new_client d ~email:"bob@x"
            ~callbacks:
              {
                Client.null_callbacks with
                Client.incoming_call =
                  (fun ~email ~intent ~session_key:_ -> got_call := Some (email, intent));
              }
        in
        List.iter
          (fun c -> match Deployment.register d c with Ok () -> () | Error _ -> assert false)
          [ alice; bob ];
        Client.add_friend alice ~email:"bob@x" ();
        ignore (Deployment.run_addfriend_round d ());
        ignore (Deployment.run_addfriend_round d ());
        (* bob (registration index 1) is offline for dialing round 1 only *)
        Deployment.set_faults d
          (Some
             {
               no_faults with
               Deployment.fv_client_offline =
                 (fun ~round ~client -> round = 1 && client = 1);
             });
        Client.call alice ~email:"bob@x" ~intent:1;
        let s1 = Deployment.run_dialing_round d () in
        Alcotest.(check bool) "offline round delivered nothing to bob" true
          (not (List.exists (fun (email, _) -> email = "bob@x") s1.Deployment.calls));
        Alcotest.(check bool) "bob saw nothing while offline" true (!got_call = None);
        let s2 = Deployment.run_dialing_round d () in
        let bob_events = List.filter (fun (email, _) -> email = "bob@x") s2.Deployment.calls in
        (match bob_events with
        | [ (_, Client.Incoming_call { peer; intent; _ }) ] ->
          Alcotest.(check string) "caller" "alice@x" peer;
          Alcotest.(check int) "intent" 1 intent
        | _ -> Alcotest.fail "expected exactly one recovered call for bob");
        Alcotest.(check bool) "callback fired on catch-up" true
          (!got_call = Some ("alice@x", 1));
        Alcotest.(check int) "keywheel caught up to the deployment clock"
          (Deployment.dialing_round_number d) (Client.dialing_round bob));
  ]

(* ---- rate-limit / entry rollback regression ---- *)

let mint_token pr rng issuer =
  let serial = Ratelimit.fresh_serial rng in
  let blinded, r = Blind.blind pr rng ~msg:serial in
  let signed =
    match Ratelimit.issue issuer ~now:0 ~user:"alice@x" blinded with
    | Ok s -> s
    | Error `Quota_exhausted -> assert false
  in
  { Ratelimit.serial; signature = Blind.unblind pr (Ratelimit.issuer_public issuer) ~signed r }

let rollback_tests =
  [
    Alcotest.test_case "aborted round un-spends admitted tokens (regression)" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"rollback-gate" in
        let issuer = Ratelimit.create_issuer pr ~rng ~quota_per_day:5 in
        let gate = Ratelimit.create_gate pr ~issuer_key:(Ratelimit.issuer_public issuer) in
        let token = mint_token pr rng issuer in
        Ratelimit.begin_round gate;
        Alcotest.(check bool) "admitted" true (Ratelimit.admit gate token = Ok ());
        Alcotest.(check bool) "double-spend caught within the round" true
          (Ratelimit.admit gate token = Error `Double_spend);
        Alcotest.(check int) "one serial rolled back" 1 (Ratelimit.rollback_round gate);
        (* the bug this guards against: the serial stayed spent across the
           abort, so the client's resubmission bounced as a double-spend *)
        Ratelimit.begin_round gate;
        Alcotest.(check bool) "same token admits again after rollback" true
          (Ratelimit.admit gate token = Ok ());
        Ratelimit.commit_round gate;
        Ratelimit.begin_round gate;
        Alcotest.(check bool) "committed round is final" true
          (Ratelimit.admit gate token = Error `Double_spend);
        Alcotest.(check int) "nothing provisional to roll back" 0
          (Ratelimit.rollback_round gate));
    Alcotest.test_case "round scoping misuse raises" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"rollback-misuse" in
        let issuer = Ratelimit.create_issuer pr ~rng ~quota_per_day:5 in
        let gate = Ratelimit.create_gate pr ~issuer_key:(Ratelimit.issuer_public issuer) in
        Alcotest.check_raises "commit without begin"
          (Invalid_argument "Ratelimit.commit_round: no open round") (fun () ->
            Ratelimit.commit_round gate);
        Alcotest.check_raises "rollback without begin"
          (Invalid_argument "Ratelimit.rollback_round: no open round") (fun () ->
            ignore (Ratelimit.rollback_round gate));
        Ratelimit.begin_round gate;
        Alcotest.check_raises "double begin"
          (Invalid_argument "Ratelimit.begin_round: round already open") (fun () ->
            Ratelimit.begin_round gate);
        Ratelimit.commit_round gate);
    Alcotest.test_case "entry abort discards the batch and un-spends tokens" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"rollback-entry" in
        let issuer = Ratelimit.create_issuer pr ~rng ~quota_per_day:5 in
        let entry = Entry.create pr ~token_issuer_key:(Ratelimit.issuer_public issuer) () in
        let ann =
          {
            Entry.round = 1;
            mode = `AddFriend;
            server_pks = [];
            mpk_agg = None;
            num_mailboxes = 1;
          }
        in
        let token = mint_token pr rng issuer in
        Entry.open_round entry ann;
        Alcotest.(check bool) "submission accepted" true
          (Entry.submit entry ~token "onion-bytes" = Ok ());
        Alcotest.(check int) "abort rolled back one token" 1 (Entry.abort_round entry);
        (* round re-runs: the same token must be spendable again and the
           aborted batch must not leak into the new round *)
        Entry.open_round entry { ann with Entry.round = 1 };
        Alcotest.(check bool) "resubmission accepted after abort" true
          (Entry.submit entry ~token "onion-bytes" = Ok ());
        let batch = Entry.close_round entry in
        Alcotest.(check int) "batch holds only the re-run's submission" 1 (Array.length batch));
  ]

(* ---- keywheel offline catch-up ---- *)

let secret_32 tag = Drbg.bytes (Drbg.create ~seed:("kw-secret-" ^ tag)) 32

let keywheel_tests =
  [
    Alcotest.test_case "catch-up lands on the never-offline twin's keys" `Quick (fun () ->
        let w = Keywheel.create ~owner:"me@x" in
        List.iter
          (fun (email, secret, round) -> Keywheel.add_friend w ~email ~secret ~round)
          [
            ("a@x", secret_32 "a", 1); ("b@x", secret_32 "b", 2); ("c@x", secret_32 "c", 5);
          ];
        let twin = Keywheel.copy w in
        (* the twin stays online, advancing one round at a time *)
        for round = 1 to 9 do
          Keywheel.advance_to twin ~round
        done;
        (* the wheel goes dark and replays the whole epoch in one call *)
        Alcotest.(check int) "nine rounds caught up" 9 (Keywheel.catch_up w ~through:9);
        Alcotest.(check int) "clock synced" (Keywheel.current_round twin)
          (Keywheel.current_round w);
        List.iter
          (fun email ->
            Alcotest.(check (option string))
              (email ^ " session key matches twin")
              (Keywheel.session_key twin ~email) (Keywheel.session_key w ~email);
            for intent = 0 to 3 do
              Alcotest.(check (option string))
                (Printf.sprintf "%s intent %d token matches twin" email intent)
                (Keywheel.dial_token twin ~email ~intent)
                (Keywheel.dial_token w ~email ~intent)
            done)
          [ "a@x"; "b@x"; "c@x" ];
        Alcotest.(check int) "stale catch-up is a no-op" 0 (Keywheel.catch_up w ~through:3));
    Alcotest.test_case "copy is independent" `Quick (fun () ->
        let w = Keywheel.create ~owner:"me@x" in
        Keywheel.add_friend w ~email:"a@x" ~secret:(secret_32 "copy") ~round:1;
        let twin = Keywheel.copy w in
        Keywheel.advance_to w ~round:5;
        Alcotest.(check int) "original advanced" 5 (Keywheel.current_round w);
        Alcotest.(check int) "copy untouched" 0 (Keywheel.current_round twin);
        Keywheel.remove_friend w ~email:"a@x";
        Alcotest.(check int) "copy keeps the friend" 1 (Keywheel.friend_count twin));
  ]

let suite =
  schedule_tests @ sim_tests @ deployment_tests @ rollback_tests @ keywheel_tests
