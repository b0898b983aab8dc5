(* Wire-protocol tests: the framing codec, framed RPC over real sockets,
   the HTTP listener fed one byte at a time, and a Net_deployment round
   with a mixer server killed mid-round and restarted — every socket in
   this file is a real TCP socket on localhost. *)

module F = Alpenhorn_net.Framing
module Rpc = Alpenhorn_net.Rpc
module Listener = Alpenhorn_net.Listener
module Servers = Alpenhorn_remote.Servers
module Net_deployment = Alpenhorn_remote.Net_deployment
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment

(* ---------- framing ---------- *)

let frame = Alcotest.testable (fun fmt (f : F.frame) ->
    Format.fprintf fmt "{tag=%d; payload=%S}" f.F.tag f.F.payload)
    (fun a b -> a.F.tag = b.F.tag && String.equal a.F.payload b.F.payload)

let framing_tests =
  [
    Alcotest.test_case "encode/decode roundtrip incl. tag boundaries" `Quick (fun () ->
        let payloads = [ ""; "x"; String.init 1000 (fun i -> Char.chr (i land 0xff)) ] in
        List.iter
          (fun tag ->
            List.iter
              (fun payload ->
                let f = { F.tag; payload } in
                match F.of_string (F.encode f) with
                | Some got -> Alcotest.check frame "roundtrip" f got
                | None -> Alcotest.failf "tag %d payload %d bytes: decode failed" tag
                            (String.length payload))
              payloads)
          [ 0; 7; 255 ];
        (* two concatenated frames decode in sequence at the right offsets *)
        let f1 = { F.tag = 1; payload = "abc" } and f2 = { F.tag = 2; payload = "" } in
        let s = F.encode f1 ^ F.encode f2 in
        (match F.decode s ~pos:0 with
         | F.Frame (got, off) ->
           Alcotest.check frame "first" f1 got;
           (match F.decode s ~pos:off with
            | F.Frame (got2, off2) ->
              Alcotest.check frame "second" f2 got2;
              Alcotest.(check int) "consumed all" (String.length s) off2
            | _ -> Alcotest.fail "second frame did not decode")
         | _ -> Alcotest.fail "first frame did not decode"));
    Alcotest.test_case "every truncation is Need_more, never Corrupt" `Quick (fun () ->
        let full = F.encode { F.tag = 9; payload = "hello" } in
        for i = 0 to String.length full - 1 do
          match F.decode (String.sub full 0 i) ~pos:0 with
          | F.Need_more -> ()
          | F.Frame _ -> Alcotest.failf "prefix %d decoded a frame" i
          | F.Corrupt msg -> Alcotest.failf "prefix %d corrupt: %s" i msg
        done;
        (* a cursor exactly at the end of the buffer just wants more bytes *)
        match F.decode full ~pos:(String.length full) with
        | F.Need_more -> ()
        | _ -> Alcotest.fail "pos at end must be Need_more");
    Alcotest.test_case "zero length, oversize and trailing bytes are rejected" `Quick (fun () ->
        (* len counts the tag byte, so 0 can never frame anything *)
        (match F.decode "\x00\x00\x00\x00" ~pos:0 with
         | F.Corrupt _ -> ()
         | _ -> Alcotest.fail "len=0 must be Corrupt");
        (match F.decode "\xff\xff\xff\xff!!!!" ~pos:0 with
         | F.Corrupt _ -> ()
         | _ -> Alcotest.fail "absurd length must be Corrupt before buffering");
        (* a per-connection ceiling rejects frames the default would allow *)
        let big = F.encode { F.tag = 3; payload = String.make 64 'p' } in
        (match F.decode ~max_payload:16 big ~pos:0 with
         | F.Corrupt _ -> ()
         | _ -> Alcotest.fail "payload above max_payload must be Corrupt");
        Alcotest.check_raises "encode refuses oversize"
          (Invalid_argument "Framing.encode: payload too large")
          (fun () -> ignore (F.encode ~max_payload:16 { F.tag = 3; payload = String.make 64 'p' }));
        (* of_string is exact: no trailing garbage, no empty input *)
        Alcotest.(check bool) "trailing byte" true
          (F.of_string (F.encode { F.tag = 1; payload = "a" } ^ "z") = None);
        Alcotest.(check bool) "empty" true (F.of_string "" = None);
        (match F.decode "abcd" ~pos:9 with
         | F.Corrupt _ -> ()
         | _ -> Alcotest.fail "pos past the buffer must be Corrupt"));
    Alcotest.test_case "Fields: roundtrip, trailing detection, hostile headers" `Quick (fun () ->
        let b = Buffer.create 64 in
        F.Fields.u8 b 200;
        F.Fields.u32 b 123_456_789;
        F.Fields.f64 b 3.5;
        F.Fields.str b "hello";
        F.Fields.strs b [ "a"; ""; "bb" ];
        let c = F.Fields.cursor (Buffer.contents b) in
        Alcotest.(check (option int)) "u8" (Some 200) (F.Fields.get_u8 c);
        Alcotest.(check (option int)) "u32" (Some 123_456_789) (F.Fields.get_u32 c);
        Alcotest.(check bool) "f64" true (F.Fields.get_f64 c = Some 3.5);
        Alcotest.(check (option string)) "str" (Some "hello") (F.Fields.get_str c);
        Alcotest.(check bool) "strs" true (F.Fields.get_strs c = Some [ "a"; ""; "bb" ]);
        Alcotest.(check bool) "finished" true (F.Fields.finished c);
        Alcotest.(check (option int)) "read past end" None (F.Fields.get_u8 c);
        (* trailing byte is visible to the caller *)
        let c2 = F.Fields.cursor "\x05x" in
        Alcotest.(check (option int)) "one byte" (Some 5) (F.Fields.get_u8 c2);
        Alcotest.(check bool) "not finished" false (F.Fields.finished c2);
        (* a list header claiming 2^24 entries backed by 0 bytes must not
           allocate or loop — the count is bounded by the remaining bytes *)
        let hostile = Buffer.create 8 in
        F.Fields.u32 hostile 0xFF_FF_FF;
        Alcotest.(check bool) "hostile strs header" true
          (F.Fields.get_strs (F.Fields.cursor (Buffer.contents hostile)) = None);
        Alcotest.(check bool) "short u32" true
          (F.Fields.get_u32 (F.Fields.cursor "ab") = None);
        Alcotest.(check bool) "str length past end" true
          (F.Fields.get_str (F.Fields.cursor "\x00\x00\x00\x09abc") = None));
  ]

(* ---------- trace envelope (DESIGN.md §14) ---------- *)

module Tel = Alpenhorn_telemetry.Telemetry

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let trace_envelope_tests =
  [
    Alcotest.test_case "envelope roundtrip; absent trace is byte-identical" `Quick (fun () ->
        let frames =
          [
            { F.tag = 0; payload = "" };
            { F.tag = 0x22; payload = String.init 257 (fun i -> Char.chr (i land 0xff)) };
            { F.tag = 255; payload = "x" };
          ]
        in
        (* the acceptance-criteria identity: no trace, no byte changes *)
        List.iter
          (fun f ->
            Alcotest.(check string) "encode_traced ~trace:None = encode" (F.encode f)
              (F.encode_traced f))
          frames;
        let labels = [ ("parent", "3"); ("trace", "7"); ("span", "9"); ("empty", "") ] in
        List.iter
          (fun f ->
            let wire = F.encode_traced ~trace:labels f in
            match F.of_string wire with
            | None -> Alcotest.fail "envelope did not decode as a frame"
            | Some env ->
              Alcotest.(check int) "wrapper tag" F.trace_tag env.F.tag;
              (* the inner bytes are exactly [encode f]: the protocol
                 payload a handler sees cannot depend on tracing *)
              let enc = F.encode f in
              let tail =
                String.sub env.F.payload
                  (String.length env.F.payload - String.length enc)
                  (String.length enc)
              in
              Alcotest.(check string) "inner encoding rides verbatim" enc tail;
              (match F.split_traced env with
              | None -> Alcotest.fail "split_traced rejected a valid envelope"
              | Some (got_labels, inner) ->
                Alcotest.(check bool) "labels" true (got_labels = labels);
                Alcotest.check frame "inner frame" f inner))
          frames);
    Alcotest.test_case "envelope rejects non-envelopes, truncation, nesting" `Quick (fun () ->
        (* a plain frame is not an envelope *)
        Alcotest.(check bool) "plain frame" true
          (F.split_traced { F.tag = 0x22; payload = "data" } = None);
        (* count claims one pair, zero bytes follow *)
        Alcotest.(check bool) "truncated labels" true
          (F.split_traced { F.tag = F.trace_tag; payload = "\x00\x00\x00\x01" } = None);
        (* labels parse but no inner frame follows *)
        Alcotest.(check bool) "no inner frame" true
          (F.split_traced { F.tag = F.trace_tag; payload = "\x00\x00\x00\x00" } = None);
        (* hostile pair count bounded by remaining bytes, no allocation *)
        Alcotest.(check bool) "hostile count" true
          (F.split_traced { F.tag = F.trace_tag; payload = "\x3f\xff\xff\xff" } = None);
        (* an envelope inside an envelope is rejected, not recursed *)
        let nested =
          F.encode_traced ~trace:[ ("trace", "1"); ("span", "2") ]
            { F.tag = F.trace_tag; payload = "inner-envelope" }
        in
        match F.of_string nested with
        | None -> Alcotest.fail "nested envelope did not decode"
        | Some env -> Alcotest.(check bool) "nested rejected" true (F.split_traced env = None));
    Alcotest.test_case "rpc: labels cross the socket, payload identical, one-shot" `Quick
      (fun () ->
        let seen = Atomic.make [] in
        let srv =
          Rpc.Server.create_traced ~port:0 (fun ~trace req ->
              Atomic.set seen (Atomic.get seen @ [ (trace, req.F.payload) ]);
              { F.tag = req.F.tag; payload = "ok" })
        in
        let port = Rpc.Server.port srv in
        let dom = Domain.spawn (fun () -> Rpc.Server.run srv) in
        Fun.protect
          ~finally:(fun () ->
            Rpc.Server.stop srv;
            Domain.join dom)
          (fun () ->
            match Rpc.Client.connect ~port () with
            | Error e -> Alcotest.failf "connect: %s" e
            | Ok c ->
              Fun.protect
                ~finally:(fun () -> Rpc.Client.close c)
                (fun () ->
                  let labels = [ ("trace", "42"); ("span", "7") ] in
                  let f = { F.tag = 0x2a; payload = "protocol-bytes" } in
                  Rpc.Client.set_trace c (Some labels);
                  (match Rpc.Client.call c f with
                  | Ok r -> Alcotest.(check int) "traced reply tag" 0x2a r.F.tag
                  | Error e -> Alcotest.failf "traced call: %s" e);
                  (* set_trace arms exactly one call *)
                  (match Rpc.Client.call c f with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "untraced call: %s" e);
                  (match Atomic.get seen with
                  | [ (Some l1, p1); (None, p2) ] ->
                    Alcotest.(check bool) "labels delivered" true (l1 = labels);
                    (* the handler's payload bytes are identical with
                       tracing on and off *)
                    Alcotest.(check string) "traced payload" "protocol-bytes" p1;
                    Alcotest.(check string) "untraced payload" "protocol-bytes" p2
                  | l -> Alcotest.failf "expected 2 handler calls, saw %d" (List.length l));
                  (* satellite: per-tag rpc telemetry on the default registry *)
                  let snap = Tel.Snapshot.take Tel.default in
                  let tag_labels = [ ("tag", "0x2a") ] in
                  (match Tel.Snapshot.find_counter snap ~labels:tag_labels "rpc.call" with
                  | Some n -> Alcotest.(check bool) "rpc.call{tag} counted" true (n >= 2)
                  | None -> Alcotest.fail "rpc.call{tag=0x2a} missing");
                  let hist name =
                    List.exists
                      (fun (n, l, (h : Tel.Histogram.snap)) ->
                        n = name && l = tag_labels && h.Tel.Histogram.count >= 2)
                      snap.Tel.Snapshot.histograms
                  in
                  Alcotest.(check bool) "rpc.request_seconds{tag}" true (hist "rpc.request_seconds");
                  Alcotest.(check bool) "rpc.payload_bytes{tag}" true (hist "rpc.payload_bytes"))));
    Alcotest.test_case "fetch error classes: refused vs accept-then-silent" `Quick (fun () ->
        (* a port nothing listens on: bind, read the port back, close *)
        let probe = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind probe (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        let dead_port =
          match Unix.getsockname probe with Unix.ADDR_INET (_, p) -> p | _ -> assert false
        in
        Unix.close probe;
        (match Listener.fetch ~timeout:2.0 ~port:dead_port "/metrics" with
        | Ok _ -> Alcotest.fail "fetch to a dead port succeeded"
        | Error e -> Alcotest.(check bool) ("refused prefix: " ^ e) true (has_prefix "refused:" e));
        (* a server that accepts (kernel backlog) and then never responds:
           the error must be classed a timeout, not a read failure *)
        let silent = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt silent Unix.SO_REUSEADDR true;
        Unix.bind silent (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen silent 4;
        let silent_port =
          match Unix.getsockname silent with Unix.ADDR_INET (_, p) -> p | _ -> assert false
        in
        Fun.protect
          ~finally:(fun () -> Unix.close silent)
          (fun () ->
            match Listener.fetch ~timeout:0.4 ~port:silent_port "/metrics" with
            | Ok _ -> Alcotest.fail "fetch to a silent server succeeded"
            | Error e ->
              Alcotest.(check bool) ("timeout prefix: " ^ e) true (has_prefix "timeout:" e)));
  ]

(* ---------- rpc over real sockets ---------- *)

let rpc_tests =
  [
    Alcotest.test_case "echo server: persistent connection, errors as frames" `Quick (fun () ->
        let srv =
          Rpc.Server.create ~port:0 (fun f ->
              if f.F.tag = 0x0f then failwith "boom"
              else { F.tag = f.F.tag; payload = "echo:" ^ f.F.payload })
        in
        let port = Rpc.Server.port srv in
        let dom = Domain.spawn (fun () -> Rpc.Server.run srv) in
        Fun.protect
          ~finally:(fun () ->
            Rpc.Server.stop srv;
            Domain.join dom)
          (fun () ->
            match Rpc.Client.connect ~port () with
            | Error e -> Alcotest.failf "connect: %s" e
            | Ok c ->
              Fun.protect
                ~finally:(fun () -> Rpc.Client.close c)
                (fun () ->
                  (* several calls over the one connection, in order *)
                  (match Rpc.Client.call c { F.tag = 1; payload = "hello" } with
                   | Ok r -> Alcotest.check frame "echo" { F.tag = 1; payload = "echo:hello" } r
                   | Error e -> Alcotest.failf "call 1: %s" e);
                  (match Rpc.Client.call c { F.tag = 2; payload = "" } with
                   | Ok r -> Alcotest.check frame "empty" { F.tag = 2; payload = "echo:" } r
                   | Error e -> Alcotest.failf "call 2: %s" e);
                  let big = String.make 100_000 'q' in
                  (match Rpc.Client.call c { F.tag = 3; payload = big } with
                   | Ok r ->
                     Alcotest.(check int) "big payload" (String.length big + 5)
                       (String.length r.F.payload)
                   | Error e -> Alcotest.failf "call 3: %s" e);
                  (* a raising handler answers with the error frame and the
                     connection survives for the next request *)
                  (match Rpc.Client.call c { F.tag = 0x0f; payload = "" } with
                   | Ok r ->
                     Alcotest.(check int) "error tag" Rpc.error_tag r.F.tag;
                     Alcotest.(check bool) "carries the exception" true
                       (let rec find i =
                          i + 4 <= String.length r.F.payload
                          && (String.sub r.F.payload i 4 = "boom" || find (i + 1))
                        in
                        find 0)
                   | Error e -> Alcotest.failf "error call: %s" e);
                  match Rpc.Client.call c { F.tag = 4; payload = "still here" } with
                  | Ok r ->
                    Alcotest.check frame "after error" { F.tag = 4; payload = "echo:still here" } r
                  | Error e -> Alcotest.failf "call after error: %s" e)));
  ]

(* ---------- listener fed one byte at a time ---------- *)

let listener_tests =
  [
    Alcotest.test_case "byte-at-a-time request still parses (head scan offset)" `Quick (fun () ->
        let l =
          Listener.create ~port:0 (fun req ->
              { Listener.status = 200; content_type = "text/plain"; body = "ok:" ^ req.Listener.path })
        in
        let port = Listener.port l in
        let dom = Domain.spawn (fun () -> Listener.run l) in
        Fun.protect
          ~finally:(fun () ->
            Listener.stop l;
            Domain.join dom)
          (fun () ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
                Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
                (* drip the request one byte per write: the header-complete
                   scan must pick up where it left off, not give up because
                   no single read contains the blank line *)
                let req = "GET /trickle HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" in
                String.iter
                  (fun ch ->
                    let n = Unix.write fd (Bytes.make 1 ch) 0 1 in
                    Alcotest.(check int) "wrote one byte" 1 n)
                  req;
                let buf = Buffer.create 256 in
                let chunk = Bytes.create 1024 in
                let rec drain () =
                  match Unix.read fd chunk 0 1024 with
                  | 0 -> ()
                  | n ->
                    Buffer.add_subbytes buf chunk 0 n;
                    drain ()
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
                in
                drain ();
                let resp = Buffer.contents buf in
                Alcotest.(check bool) "status 200" true
                  (String.length resp >= 12 && String.sub resp 0 12 = "HTTP/1.1 200");
                let body_ok =
                  let marker = "\r\n\r\n" in
                  let rec find i =
                    if i + 4 > String.length resp then None
                    else if String.sub resp i 4 = marker then Some (i + 4)
                    else find (i + 1)
                  in
                  match find 0 with
                  | Some body_start ->
                    String.sub resp body_start (String.length resp - body_start) = "ok:/trickle"
                  | None -> false
                in
                Alcotest.(check bool) "body" true body_ok)));
  ]

(* ---------- kill a mixer mid-round, recover, match in-process results ---- *)

type hosted = { srv : Rpc.Server.t; dom : unit Domain.t }

let host handler =
  let srv = Rpc.Server.create ~port:0 handler in
  let dom = Domain.spawn (fun () -> Rpc.Server.run srv) in
  { srv; dom }

let stop_hosted h =
  Rpc.Server.stop h.srv;
  Domain.join h.dom

(* crash mixer 1 on the first attempt of round 1 — of both phases *)
let faults seed =
  {
    Deployment.fv_seed = seed;
    fv_crash_attempts = (fun ~round ~server -> if round = 1 && server = 1 then 1 else 0);
    fv_stall_seconds = (fun ~round:_ ~server:_ -> 0.0);
    fv_client_offline = (fun ~round:_ ~client:_ -> false);
  }

(* the same two-client scenario, against either deployment *)
let scenario ~register ~new_client ~af_round ~dial_round =
  let alice = new_client "alice@x" in
  let bob = new_client "bob@x" in
  register alice;
  register bob;
  Client.add_friend alice ~email:"bob@x" ();
  let s1 = af_round () in
  let s2 = af_round () in
  Client.call alice ~email:"bob@x" ~intent:1;
  (* the keywheel sync point is a couple of dial rounds ahead
     (propose_dialing_round), so run a few — the call rings when the
     wheel reaches the agreed round *)
  let dials = List.init 3 (fun _ -> dial_round ()) in
  (s1, s2, dials)

(* The engine's fault and round telemetry, as (name, value) pairs: the
   counters from a [Tel.default] snapshot plus the retained
   [round.recovered] events. *)
let round_telemetry () =
  let snap = Tel.Snapshot.take Tel.default in
  let counter ?labels name =
    (name, Option.value ~default:0 (Tel.Snapshot.find_counter snap ?labels name))
  in
  [
    counter "faults.rounds_aborted";
    counter "faults.retries";
    counter ~labels:[ ("kind", "crash") ] "faults.injected";
    counter ~labels:[ ("phase", "addfriend") ] "round.completed";
    counter ~labels:[ ("phase", "dialing") ] "round.completed";
    ( "round.recovered events",
      List.length
        (List.filter
           (fun e -> e.Alpenhorn_telemetry.Events.name = "round.recovered")
           (Alpenhorn_telemetry.Events.to_list Alpenhorn_telemetry.Events.default)) );
  ]

(* Run [f] and return its result with the telemetry deltas it caused. *)
let with_telemetry_delta f =
  Alpenhorn_telemetry.Events.clear Alpenhorn_telemetry.Events.default;
  let before = round_telemetry () in
  let result = f () in
  (result, List.map2 (fun (name, a) (_, b) -> (name, b - a)) before (round_telemetry ()))

let killed_mixer config () =
  let seed = "net-kill" in
  let pkg_hosted =
    host (Servers.Pkg_server.handler (Servers.Pkg_server.create ~config ~seed ~index:0))
  in
  let mixer_at i =
    host (Servers.Mixer_server.handler (Servers.Mixer_server.create ~config ~seed ~position:i))
  in
  let hosted = Array.init config.Config.chain_length (fun i -> ref (mixer_at i)) in
  Fun.protect
    ~finally:(fun () ->
      stop_hosted pkg_hosted;
      Array.iter (fun r -> try stop_hosted !r with _ -> ()) hosted)
    (fun () ->
      let ep h = { Net_deployment.host = "127.0.0.1"; port = Rpc.Server.port h.srv } in
      let mixers =
        Array.init config.Config.chain_length (fun i ->
            {
              Net_deployment.ep = ep !(hosted.(i));
              kill = (fun () -> stop_hosted !(hosted.(i)));
              restart =
                (fun () ->
                  hosted.(i) := mixer_at i;
                  ep !(hosted.(i)));
            })
      in
      let nd = Net_deployment.create ~config ~seed ~pkgs:[| ep pkg_hosted |] ~mixers () in
      Fun.protect
        ~finally:(fun () -> Net_deployment.close nd)
        (fun () ->
          Deployment.set_faults nd (Some (faults seed));
          let (n1, n2, ndials), net_telemetry =
            with_telemetry_delta (fun () ->
                scenario
                  ~register:(fun c ->
                    match Net_deployment.register nd c with
                    | Ok () -> ()
                    | Error e -> Alcotest.failf "register: %s" (Alpenhorn_pkg.Pkg.error_to_string e))
                  ~new_client:(fun email ->
                    Net_deployment.new_client nd ~email ~callbacks:Client.null_callbacks)
                  ~af_round:(fun () -> Deployment.run_addfriend_round nd ())
                  ~dial_round:(fun () -> Net_deployment.run_dialing_round nd ()))
          in
          (* the kill really aborted attempt 1 and recovery really ran *)
          Alcotest.(check int) "af round 1 recovered on attempt 2" 2 n1.Deployment.af_attempts;
          Alcotest.(check int) "af round 2 clean" 1 n2.Deployment.af_attempts;
          Alcotest.(check int) "dial round 1 recovered on attempt 2" 2
            (List.hd ndials).Deployment.dial_attempts;
          Alcotest.(check bool) "bob accepted alice" true
            (List.exists
               (function "bob@x", Client.Friend_request_accepted "alice@x" -> true | _ -> false)
               n1.Deployment.events);
          Alcotest.(check bool) "alice confirmed" true
            (List.exists
               (function "alice@x", Client.Friend_confirmed "bob@x" -> true | _ -> false)
               n2.Deployment.events);
          Alcotest.(check bool) "bob rang" true
            (List.exists
               (fun d ->
                 List.exists
                   (function
                     | "bob@x", Client.Incoming_call { peer = "alice@x"; intent = 1; _ } -> true
                     | _ -> false)
                   d.Deployment.calls)
               ndials);
          (* byte-identical protocol results: replay the scenario
             in-process under the same seed and fault schedule *)
          let ip = Deployment.create ~config ~seed in
          Deployment.set_faults ip (Some (faults seed));
          let (i1, i2, idials), ip_telemetry =
            with_telemetry_delta (fun () ->
                scenario
                  ~register:(fun c ->
                    match Deployment.register ip c with
                    | Ok () -> ()
                    | Error _ -> Alcotest.fail "in-process register")
                  ~new_client:(fun email ->
                    Deployment.new_client ip ~email ~callbacks:Client.null_callbacks)
                  ~af_round:(fun () -> Deployment.run_addfriend_round ip ())
                  ~dial_round:(fun () -> Deployment.run_dialing_round ip ()))
          in
          Alcotest.(check bool) "af round 1 events identical" true
            (n1.Deployment.events = i1.Deployment.events);
          Alcotest.(check bool) "af round 2 events identical" true
            (n2.Deployment.events = i2.Deployment.events);
          Alcotest.(check bool) "dial events identical (incl. session keys)" true
            (List.map (fun d -> d.Deployment.calls) ndials
            = List.map (fun d -> d.Deployment.calls) idials);
          Alcotest.(check int) "same af retries" i1.Deployment.af_attempts n1.Deployment.af_attempts;
          Alcotest.(check (list int)) "same dial retries"
            (List.map (fun d -> d.Deployment.dial_attempts) idials)
            (List.map (fun d -> d.Deployment.dial_attempts) ndials);
          Alcotest.(check (list (array int))) "same dial download sizes"
            (List.map (fun d -> d.Deployment.filter_bytes) idials)
            (List.map (fun d -> d.Deployment.filter_bytes) ndials);
          Alcotest.(check (list (pair string int))) "same fault and round telemetry" ip_telemetry
            net_telemetry))

let recovery_tests =
  [
    Alcotest.test_case "killed mixer: recover over sockets, match in-process" `Quick
      (killed_mixer { Config.test with Config.n_pkgs = 1 });
    Alcotest.test_case "killed mixer, sharded dialing: recover over sockets, match in-process"
      `Quick
      (killed_mixer { Config.test with Config.n_pkgs = 1; dial_shards = 2 });
  ]

let suite = framing_tests @ rpc_tests @ listener_tests @ recovery_tests
