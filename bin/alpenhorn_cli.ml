(* Standalone Alpenhorn client CLI (paper §8.5).

   The paper's Pond integration is a command-line client that lets users
   friend and call each other and prints the resulting shared secret,
   ready to paste into PANDA. This binary provides that flow against an
   in-process deployment, plus a parameter inspector and a what-if
   simulator over the evaluation cost model.

   Subcommands:
     session   interactive-style scripted session (friend + call + secret)
     params    show the pairing parameter sets
     simulate  price a deployment with the §8 cost model *)

module B = Alpenhorn_bigint.Bigint
module Params = Alpenhorn_pairing.Params
module Field = Alpenhorn_pairing.Field
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Costmodel = Alpenhorn_sim.Costmodel
module Round_sim = Alpenhorn_sim.Round_sim
module Scale = Alpenhorn_sim.Scale
module Faults = Alpenhorn_sim.Faults
module Util = Alpenhorn_crypto.Util
module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace
module Events = Alpenhorn_telemetry.Events
module Slo = Alpenhorn_telemetry.Slo
module Expose = Alpenhorn_telemetry.Expose
module Timeseries = Alpenhorn_telemetry.Timeseries
module Runtime_stats = Alpenhorn_telemetry.Runtime_stats
module Dashboard = Alpenhorn_telemetry.Dashboard
module Collector = Alpenhorn_telemetry.Collector
module Listener = Alpenhorn_net.Listener
module Rpc = Alpenhorn_net.Rpc
module Servers = Alpenhorn_remote.Servers
module Net_deployment = Alpenhorn_remote.Net_deployment
module Parallel = Alpenhorn_parallel.Parallel

open Cmdliner

(* ---- telemetry output (shared by session and simulate) ---- *)

let write_file path body =
  try
    let oc = open_out path in
    output_string oc body;
    close_out oc
  with Sys_error e ->
    Printf.eprintf "alpenhorn: cannot write telemetry output: %s\n" e;
    exit 1

(* Dump the default registry: table on stderr with [--metrics], JSON
   snapshot with [--metrics-json FILE] (wrapping the machine calibration
   when one was used), Chrome trace_event JSON with [--trace FILE],
   JSON-lines event log with [--events FILE], SLO health report with
   [--slo]. Returns false when an SLO report came out unhealthy. *)
let dump_telemetry ~metrics ~json_path ~trace_path ?machine ?tracer ~events_path ~slo_rules () =
  let healthy = ref true in
  if metrics || json_path <> None || trace_path <> None || slo_rules <> None then begin
    let snap = Tel.Snapshot.take Tel.default in
    if metrics then begin
      Format.eprintf "%a@?" Tel.Snapshot.pp_table snap;
      (* per-message causal timelines, when tracing was on *)
      if tracer <> None then Format.eprintf "%a@?" Trace.pp_timelines snap
    end;
    Option.iter
      (fun path ->
        let telemetry_json = Tel.Snapshot.to_json snap in
        let body =
          match machine with
          | Some m ->
            Printf.sprintf "{\"machine\":%s,\"telemetry\":%s}" (Costmodel.machine_to_json m)
              telemetry_json
          | None -> telemetry_json
        in
        write_file path body;
        Printf.eprintf "telemetry snapshot written to %s\n" path)
      json_path;
    Option.iter
      (fun path ->
        write_file path (Tel.Snapshot.to_chrome_trace snap);
        Printf.eprintf "chrome trace written to %s (open in about:tracing)\n" path)
      trace_path;
    Option.iter
      (fun rules ->
        let report = Slo.evaluate rules snap in
        Format.printf "%a@?" Slo.pp_report report;
        healthy := report.Slo.healthy)
      slo_rules
  end;
  Option.iter
    (fun path ->
      write_file path (Events.to_jsonl Events.default);
      Printf.eprintf "event log written to %s (%d events, %d dropped)\n" path
        (Events.length Events.default) (Events.dropped Events.default))
    events_path;
  !healthy

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Print a telemetry metrics table on stderr.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE" ~doc:"Write the telemetry JSON snapshot to $(docv).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event file to $(docv) (view in about:tracing).")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:"Write the structured event log to $(docv) as JSON-lines.")

let slo_arg =
  Arg.(
    value & flag
    & info [ "slo" ]
        ~doc:
          "Evaluate the built-in SLO rules (round deadlines, mailbox-load ceiling, \
           pairing-cache hit rate, zero drops) against the run and print a health report; \
           exit 2 when unhealthy.")

let trace_sample_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "trace-sample" ] ~docv:"RATE"
        ~doc:
          "Enable per-message causal tracing, sampling $(docv) of real submissions \
           (0.0-1.0). Trace contexts ride out-of-band: wire bytes are unchanged.")

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Size of the data-parallel domain pool used for batch onion unwrap, PKG \
           extraction and mailbox scans. 1 runs fully sequentially; 0 (the default) \
           reads the ALPENHORN_DOMAINS environment variable (itself defaulting to 1). \
           Every pool size produces byte-identical protocol output.")

let apply_domains domains =
  if domains < 0 then begin
    prerr_endline "alpenhorn: --domains must be >= 1";
    exit 2
  end;
  if domains > 0 then Parallel.set_default_size domains

(* ---- live metrics endpoint (shared by session, simulate and the
   standalone serve-metrics command) ---- *)

let expose_handler ?(labels = []) () =
  let cfg =
    Expose.config ~series:Timeseries.default ~runtime:(Runtime_stats.get_default ()) ~labels ()
  in
  fun (req : Listener.request) ->
    let r = Expose.handle cfg ~meth:req.meth ~path:req.path ~query:req.query () in
    { Listener.status = r.Expose.status; content_type = r.Expose.content_type; body = r.Expose.body }

(* Start the listener on its own domain so scrapes are served while the
   orchestrating domain is busy inside a round. *)
let start_metrics_server = function
  | None -> None
  | Some port ->
    let l =
      try Listener.create ~port (expose_handler ())
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "alpenhorn: cannot bind metrics port %d: %s\n" port (Unix.error_message e);
        exit 2
    in
    Printf.eprintf "serving metrics on http://127.0.0.1:%d/metrics (also /metrics.json /slo /series)\n%!"
      (Listener.port l);
    let d = Domain.spawn (fun () -> Listener.run l) in
    Some (l, d)

let stop_metrics_server ~hold = function
  | None -> ()
  | Some (l, d) ->
    if hold > 0.0 then begin
      Printf.eprintf "holding metrics endpoint open for %g s (Ctrl-C to abort)\n%!" hold;
      Unix.sleepf hold
    end;
    Listener.stop l;
    Domain.join d

let serve_metrics_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve-metrics" ] ~docv:"PORT"
        ~doc:
          "Serve live telemetry over HTTP on 127.0.0.1:$(docv) for the duration of the run \
           (0 picks an ephemeral port, printed on stderr). Endpoints: /metrics (Prometheus \
           text format 0.0.4), /metrics.json, /slo (200/503), /series?name=METRIC.")

let serve_hold_arg =
  Arg.(
    value & opt float 0.0
    & info [ "serve-hold" ] ~docv:"SECONDS"
        ~doc:"Keep the --serve-metrics endpoint up for $(docv) seconds after the run finishes.")

let make_tracer trace_sample =
  Option.map
    (fun rate ->
      if rate < 0.0 || rate > 1.0 then begin
        prerr_endline "alpenhorn: --trace-sample must be in [0, 1]";
        exit 2
      end;
      Trace.create ~rate Tel.default)
    trace_sample

(* ---- session ---- *)

let run_session caller callee intent seed metrics metrics_json trace events slo trace_sample
    domains serve_port serve_hold =
  apply_domains domains;
  let server = start_metrics_server serve_port in
  let tracer = make_tracer trace_sample in
  let d = Deployment.create ~config:Config.test ~seed in
  let secret_caller = ref None and secret_callee = ref None in
  let mk email on_place on_ring =
    Deployment.new_client d ~email
      ~callbacks:
        {
          Client.null_callbacks with
          Client.new_friend =
            (fun ~email ~key:_ ->
              Printf.printf "[%s] friend request from %s -> accepted\n" callee email;
              true);
          Client.call_placed =
            (fun ~email:_ ~intent:_ ~session_key -> if on_place then secret_caller := Some session_key);
          Client.incoming_call =
            (fun ~email ~intent ~session_key ->
              if on_ring then begin
                Printf.printf "[%s] incoming call from %s (intent %d)\n" callee email intent;
                secret_callee := Some session_key
              end);
        }
  in
  let a = mk caller true false and b = mk callee false true in
  List.iter
    (fun c ->
      match Deployment.register d c with
      | Ok () -> Printf.printf "registered %s\n" (Client.email c)
      | Error e -> failwith (Alpenhorn_pkg.Pkg.error_to_string e))
    [ a; b ];
  Printf.printf "\n> /addfriend %s\n" callee;
  Client.add_friend a ~email:callee ();
  ignore (Deployment.run_addfriend_round d ?tracer ());
  ignore (Deployment.run_addfriend_round d ?tracer ());
  Printf.printf "friendship established (keywheels synchronized)\n";
  Printf.printf "\n> /call %s %d\n" callee intent;
  Client.call a ~email:callee ~intent;
  let guard = ref 0 in
  while !secret_callee = None && !guard < 6 do
    incr guard;
    ignore (Deployment.run_dialing_round d ?tracer ())
  done;
  let slo_rules =
    if slo then
      (* in-process rounds are function calls: generous wall-clock bounds *)
      Some (Slo.default_rules ~addfriend_deadline:300.0 ~dialing_deadline:300.0 ())
    else None
  in
  let healthy =
    dump_telemetry ~metrics ~json_path:metrics_json ~trace_path:trace ?tracer
      ~events_path:events ~slo_rules ()
  in
  stop_metrics_server ~hold:serve_hold server;
  match (!secret_caller, !secret_callee) with
  | Some ka, Some kb when ka = kb ->
    Printf.printf "\nshared secret (paste into PANDA or your messenger):\n  %s\n" (Util.to_hex ka);
    if healthy then 0 else 2
  | _ ->
    prerr_endline "call failed";
    1

let session_cmd =
  let caller =
    Arg.(value & opt string "alice@example.org" & info [ "caller" ] ~doc:"Caller email address.")
  in
  let callee =
    Arg.(value & opt string "bob@example.org" & info [ "callee" ] ~doc:"Callee email address.")
  in
  let intent = Arg.(value & opt int 0 & info [ "intent" ] ~doc:"Application intent (0-3).") in
  let seed = Arg.(value & opt string "cli" & info [ "seed" ] ~doc:"Deterministic seed.") in
  Cmd.v
    (Cmd.info "session" ~doc:"Friend two users and place a call; print the shared secret.")
    Term.(
      const run_session $ caller $ callee $ intent $ seed $ metrics_arg $ metrics_json_arg
      $ trace_arg $ events_arg $ slo_arg $ trace_sample_arg $ domains_arg $ serve_metrics_arg
      $ serve_hold_arg)

(* ---- params ---- *)

let run_params name =
  let pr = Params.of_named name in
  let p = Field.modulus pr.Params.fp in
  Printf.printf "parameter set: %s\n" name;
  Printf.printf "field prime p: %d bits (%s...)\n" (B.numbits p)
    (String.sub (B.to_hex p) 0 16);
  Printf.printf "group order q: %d bits\n" (B.numbits pr.Params.q);
  Printf.printf "cofactor 12l:  %s\n" (B.to_string pr.Params.cofactor);
  Printf.printf "G1 point size: %d bytes compressed\n"
    (Alpenhorn_pairing.Curve.point_bytes pr.Params.fp);
  Printf.printf "curve: y^2 = x^3 + 1 over F_p (supersingular, Boneh-Franklin setting)\n";
  Params.validate pr;
  Printf.printf "validation: OK\n";
  0

let params_cmd =
  let set_arg =
    Arg.(value & pos 0 string "production" & info [] ~docv:"SET" ~doc:"\"test\" or \"production\".")
  in
  Cmd.v (Cmd.info "params" ~doc:"Inspect and validate a pairing parameter set.")
    Term.(const run_params $ set_arg)

(* ---- simulate ---- *)

let run_simulate users servers dial_minutes af_hours calibrate metrics metrics_json trace events
    slo trace_sample faults_spec fault_seed domains serve_port serve_hold record =
  apply_domains domains;
  let server = start_metrics_server serve_port in
  let tracer = make_tracer trace_sample in
  let faults =
    match (faults_spec, fault_seed) with
    | Some _, Some _ ->
      prerr_endline "alpenhorn: --faults and --fault-seed are mutually exclusive";
      exit 2
    | Some spec, None -> begin
      match Faults.parse spec with
      | Ok t -> t
      | Error e ->
        Printf.eprintf "alpenhorn: bad --faults spec: %s\n" e;
        exit 2
    end
    | None, Some seed -> Faults.generate ~seed ~rounds:1 ~n_servers:servers ()
    | None, None -> Faults.empty
  in
  let have_faults = not (Faults.is_empty faults) in
  if have_faults then
    Printf.eprintf "fault schedule (seed %s): %s\n" (Faults.seed faults) (Faults.to_string faults);
  let pr = Params.production () in
  let pc = Costmodel.protocol_costs pr in
  let m =
    if calibrate then begin
      (* measure this host's pure-OCaml primitives on the test curve (the
         production curve would take minutes); the record is dumped with the
         snapshot so the calibration is not lost. The domain pool calibrates
         the cores field from its measured batch-unwrap speedup. *)
      let m = Costmodel.measure_local ~pool:(Parallel.get ()) (Params.test ()) in
      Format.eprintf "%a@." Costmodel.pp_machine m;
      m
    end
    else Costmodel.paper_machine
  in
  let af =
    Costmodel.addfriend_round m pc ~n_users:users ~n_servers:servers ~noise_mu:4000.0
      ~active_fraction:0.05 ()
  in
  let dial =
    Costmodel.dialing_round m pc ~n_users:users ~n_servers:servers ~noise_mu:25000.0
      ~active_fraction:0.05 ~friends:1000 ~intents:10 ()
  in
  let af_bw =
    Costmodel.addfriend_bandwidth pc ~n_users:users ~n_servers:servers ~noise_mu:4000.0
      ~active_fraction:0.05 ~round_seconds:(af_hours *. 3600.0)
  in
  let dial_bw =
    Costmodel.dialing_bandwidth pc ~n_users:users ~n_servers:servers ~noise_mu:25000.0
      ~active_fraction:0.05 ~round_seconds:(dial_minutes *. 60.0)
  in
  Printf.printf "deployment: %d users, %d mixnet servers (paper-calibrated hardware)\n" users servers;
  Printf.printf "add-friend round latency: %.1f s (mailbox %.2f MB)\n" af.Costmodel.total_seconds
    (float_of_int af.Costmodel.mailbox_bytes /. 1e6);
  Printf.printf "dialing round latency:    %.1f s (filter %.2f MB)\n" dial.Costmodel.total_seconds
    (float_of_int dial.Costmodel.mailbox_bytes /. 1e6);
  Printf.printf "client bandwidth: %.2f KB/s add-friend @%.1fh + %.2f KB/s dialing @%.0fmin\n"
    (af_bw /. 1000.0) af_hours (dial_bw /. 1000.0) dial_minutes;
  Printf.printf "total: %.2f KB/s (%.1f GB/month)\n"
    ((af_bw +. dial_bw) /. 1000.0)
    ((af_bw +. dial_bw) *. 86400.0 *. 30.0 /. 1e9);
  if
    metrics || metrics_json <> None || trace <> None || events <> None || slo || tracer <> None
    || have_faults || record <> None
  then begin
    (* replay one add-friend + one dialing round on the DES engine so the
       snapshot and trace carry per-hop counters and simulated-clock spans;
       a fault schedule turns each replay into an abort/backoff/retry loop
       on the same simulated clock (DESIGN.md §10) *)
    ignore (Tel.Snapshot.take ~reset:true Tel.default);
    let af_tl =
      Round_sim.addfriend m ?tracer ~faults pc ~n_users:users ~n_servers:servers ~noise_mu:4000.0
        ~active_fraction:0.05 ~chunks:1
    in
    let dial_tl =
      Round_sim.dialing m ?tracer ~faults pc ~n_users:users ~n_servers:servers ~noise_mu:25000.0
        ~active_fraction:0.05 ~friends:1000 ~intents:10 ~chunks:1
    in
    if have_faults then
      List.iter
        (fun (phase, (tl : Round_sim.timeline)) ->
          if tl.Round_sim.completed then
            Printf.printf "%s round under faults: completed after %d attempt%s (publish at %.1f s)\n"
              phase tl.Round_sim.attempts
              (if tl.Round_sim.attempts = 1 then "" else "s")
              tl.Round_sim.publish
          else
            Printf.printf "%s round under faults: FAILED after %d attempts\n" phase
              tl.Round_sim.attempts)
        [ ("add-friend", af_tl); ("dialing", dial_tl) ];
    let slo_rules =
      if slo then
        let policy = Faults.default_policy in
        Some
          (Slo.default_rules
             ~addfriend_deadline:(af_hours *. 3600.0)
             ~dialing_deadline:(dial_minutes *. 60.0)
             (* fault bounds only bind when the schedule actually injected
                faults; a fully-failed round (streak = max_attempts) trips
                the streak rule *)
             ~max_consecutive_aborts:(float_of_int (policy.Faults.max_attempts - 1))
             ~recovery_ceiling:(Stdlib.max (af_hours *. 3600.0) (dial_minutes *. 60.0))
             ())
      else None
    in
    let healthy =
      dump_telemetry ~metrics ~json_path:metrics_json ~trace_path:trace ~machine:m ?tracer
        ~events_path:events ~slo_rules ()
    in
    Option.iter
      (fun path ->
        write_file path (Alpenhorn_telemetry.Timeseries.to_jsonl Timeseries.default);
        Printf.eprintf "time-series ring written to %s (%d samples, DES clock)\n%!" path
          (Timeseries.length Timeseries.default))
      record;
    if not healthy then begin
      stop_metrics_server ~hold:serve_hold server;
      exit 2
    end
  end;
  stop_metrics_server ~hold:serve_hold server;
  0

let simulate_cmd =
  let users = Arg.(value & opt int 1_000_000 & info [ "users" ] ~doc:"Online users.") in
  let servers = Arg.(value & opt int 3 & info [ "servers" ] ~doc:"Mixnet chain length.") in
  let dial_minutes =
    Arg.(value & opt float 5.0 & info [ "dial-minutes" ] ~doc:"Dialing round duration (minutes).")
  in
  let af_hours =
    Arg.(value & opt float 4.0 & info [ "addfriend-hours" ] ~doc:"Add-friend round duration (hours).")
  in
  let calibrate =
    Arg.(
      value & flag
      & info [ "calibrate" ]
          ~doc:"Measure this host's primitives (test curve) instead of the paper-calibrated \
                constants; the calibration record is included in the JSON snapshot.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject a deterministic fault schedule into the round replay. $(docv) is a \
             semicolon-separated list of kind@round:key=value,... entries, e.g. \
             \"crash@1:server=1;stall@1:server=0,seconds=45\". Kinds: crash, stall, latency, \
             loss, offline. Mutually exclusive with --fault-seed.")
  in
  let fault_seed =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Generate a random fault schedule from $(docv) (same seed, same schedule, same \
             failure trace, forever). Mutually exclusive with --faults.")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:"Write the DES-clock time-series ring of the replayed rounds to $(docv) as \
                JSON-lines (replayable with $(b,top --replay)). Implies the round replay.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Price a deployment with the paper-calibrated cost model.")
    Term.(
      const run_simulate $ users $ servers $ dial_minutes $ af_hours $ calibrate $ metrics_arg
      $ metrics_json_arg $ trace_arg $ events_arg $ slo_arg $ trace_sample_arg $ faults
      $ fault_seed $ domains_arg $ serve_metrics_arg $ serve_hold_arg $ record)

(* ---- scale: one sharded million-user round, gated by the scale SLOs ---- *)

let run_scale users shards noise_per_mailbox scan_sample download_budget metrics metrics_json
    events slo domains =
  apply_domains domains;
  if users < 1 then begin
    prerr_endline "alpenhorn: --users must be >= 1";
    exit 2
  end;
  ignore (Tel.Snapshot.take ~reset:true Tel.default);
  let r = Scale.run ?shards ?noise_per_mailbox ~scan_sample ~clients:users () in
  Format.printf "%a@?" Scale.pp r;
  let breach = ref false in
  if not (Scale.within_budget r) then begin
    Printf.printf "FAIL: peak heap %d words exceeds the %d-word budget\n" r.Scale.peak_words
      (Scale.budget_words ~clients:users);
    breach := true
  end;
  if r.Scale.scan_hits <> r.Scale.scan_dialed then begin
    Printf.printf "FAIL: %d of %d dialed clients missed their token\n"
      (r.Scale.scan_dialed - r.Scale.scan_hits)
      r.Scale.scan_dialed;
    breach := true
  end;
  let slo_rules =
    if slo then
      Some
        (Slo.default_rules
           ~scale_bytes_per_client_ceiling:(float_of_int download_budget)
           ~scale_words_per_client_ceiling:
             (float_of_int (Scale.budget_words ~clients:users) /. float_of_int users)
           ())
    else None
  in
  let healthy =
    dump_telemetry ~metrics ~json_path:metrics_json ~trace_path:None ~events_path:events
      ~slo_rules ()
  in
  if !breach || not healthy then exit 2;
  0

let scale_cmd =
  let users =
    Arg.(value & opt int 1_000_000 & info [ "users" ] ~doc:"Clients in the round.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"S"
          ~doc:"Contiguous mailbox-range shards (default: one per ~64k clients).")
  in
  let noise =
    Arg.(
      value
      & opt (some int) None
      & info [ "noise-per-mailbox" ] ~docv:"N"
          ~doc:"Noise tokens per mailbox (default: the paper's 25000 x 3 servers).")
  in
  let scan_sample =
    Arg.(
      value & opt int 4096
      & info [ "scan-sample" ] ~docv:"N" ~doc:"Scanning clients sampled over the population.")
  in
  let download_budget =
    Arg.(
      value & opt int 1_048_576
      & info [ "download-budget" ] ~docv:"BYTES"
          ~doc:"With --slo: ceiling for the scale.bytes_per_client gauge (a client's shard \
                download).")
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run one sharded synthetic dialing round at up to millions of clients (DESIGN.md \
          §15) and assert its memory and download budgets; exits 2 on a breach.")
    Term.(
      const run_scale $ users $ shards $ noise $ scan_sample $ download_budget $ metrics_arg
      $ metrics_json_arg $ events_arg $ slo_arg $ domains_arg)

(* ---- serve-metrics: a live in-process deployment behind the endpoint ---- *)

let run_serve_metrics port rounds period seed record domains =
  apply_domains domains;
  let server = start_metrics_server (Some port) in
  (* a small real deployment looping rounds so the ring keeps filling:
     every scrape of /metrics sees live counters moving *)
  let d = Deployment.create ~config:Config.test ~seed in
  let mk email = Deployment.new_client d ~email ~callbacks:Client.null_callbacks in
  let a = mk "alice@example.org" and b = mk "bob@example.org" in
  List.iter
    (fun c ->
      match Deployment.register d c with
      | Ok () -> ()
      | Error e -> failwith (Alpenhorn_pkg.Pkg.error_to_string e))
    [ a; b ];
  Client.add_friend a ~email:"bob@example.org" ();
  let stop = ref false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  let i = ref 0 in
  while (not !stop) && (rounds = 0 || !i < rounds) do
    incr i;
    ignore (Deployment.run_addfriend_round d ());
    ignore (Deployment.run_dialing_round d ());
    Client.call a ~email:"bob@example.org" ~intent:(!i mod 4);
    if period > 0.0 then Unix.sleepf period
  done;
  Printf.eprintf "ran %d round pairs\n%!" !i;
  Option.iter
    (fun path ->
      write_file path (Timeseries.to_jsonl Timeseries.default);
      Printf.eprintf "time-series ring written to %s (%d samples)\n%!" path
        (Timeseries.length Timeseries.default))
    record;
  stop_metrics_server ~hold:0.0 server;
  0

let serve_metrics_cmd =
  let port =
    Arg.(value & opt int 9598 & info [ "port" ] ~docv:"PORT" ~doc:"Listen port (0 = ephemeral).")
  in
  let rounds =
    Arg.(
      value & opt int 0
      & info [ "rounds" ] ~docv:"N" ~doc:"Stop after $(docv) round pairs (0 = until Ctrl-C).")
  in
  let period =
    Arg.(
      value & opt float 1.0
      & info [ "period" ] ~docv:"SECONDS" ~doc:"Pause between round pairs (default 1).")
  in
  let seed = Arg.(value & opt string "serve" & info [ "seed" ] ~doc:"Deterministic seed.") in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:"On exit, write the time-series ring to $(docv) as JSON-lines (replayable with \
                $(b,top --replay)).")
  in
  Cmd.v
    (Cmd.info "serve-metrics"
       ~doc:
         "Run a continuous in-process deployment and serve its live telemetry over HTTP \
          (/metrics, /metrics.json, /slo, /series).")
    Term.(const run_serve_metrics $ port $ rounds $ period $ seed $ record $ domains_arg)

(* ---- top: live dashboard over the ring ---- *)

(* Rebuild a displayable SLO report from the /slo JSON body: only the
   rule name, value and pass bit matter to the dashboard. *)
let report_of_slo_json body =
  match Tel.Json.parse body with
  | None -> None
  | Some j -> (
    match (Tel.Json.member "healthy" j, Tel.Json.member "checks" j) with
    | Some (Tel.Json.Bool healthy), Some (Tel.Json.Arr checks) ->
      let parse c =
        match Tel.Json.member "rule" c with
        | Some (Tel.Json.Str name) ->
          let pass = match Tel.Json.member "pass" c with Some (Tel.Json.Bool b) -> b | _ -> false in
          let value =
            match Tel.Json.member "value" c with Some (Tel.Json.Num v) -> Some v | _ -> None
          in
          Some
            {
              Slo.rule =
                Slo.rule ~name ~description:"" (Slo.Counter "") Slo.Le infinity;
              value;
              pass;
            }
        | _ -> None
      in
      Some { Slo.healthy; checks = List.filter_map parse checks }
    | _ -> None)

(* Fleet table: one row per process from the collector's last snapshots. *)
let print_fleet_rows coll =
  Printf.printf "%-14s %-7s %-30s %9s %6s %9s %7s %9s\n" "INSTANCE" "ROLE" "STATUS" "RPC" "ERR"
    "P99" "SPANS" "HEAP";
  List.iter
    (fun (r : Collector.row) ->
      let status =
        if r.Collector.row_up then "up"
        else begin
          let s = Printf.sprintf "DOWN %.0fs: %s" r.Collector.row_staleness r.Collector.row_status in
          if String.length s > 30 then String.sub s 0 30 else s
        end
      in
      Printf.printf "%-14s %-7s %-30s %9s %6d %9s %7d %9s\n" r.Collector.row_name
        r.Collector.row_role status
        (Dashboard.fmt_si (float_of_int r.Collector.row_rpc_calls))
        r.Collector.row_rpc_errors
        (Dashboard.fmt_seconds r.Collector.row_rpc_p99)
        r.Collector.row_spans
        (Dashboard.fmt_si r.Collector.row_heap_words))
    (Collector.rows coll)

(* "--fleet pkg-0=7001,mixer-1=otherhost:7002": comma-separated
   [name=][host:]port scrape targets. *)
let parse_fleet_targets spec =
  let parse_item i item =
    let name, addr =
      match String.index_opt item '=' with
      | Some eq -> (String.sub item 0 eq, String.sub item (eq + 1) (String.length item - eq - 1))
      | None -> (Printf.sprintf "instance-%d" i, item)
    in
    let host, port_s =
      match String.rindex_opt addr ':' with
      | Some c -> (String.sub addr 0 c, String.sub addr (c + 1) (String.length addr - c - 1))
      | None -> ("127.0.0.1", addr)
    in
    match int_of_string_opt port_s with
    | Some port when port > 0 && name <> "" && host <> "" ->
      Collector.instance ~name (Collector.Remote { host; port })
    | _ ->
      Printf.eprintf "alpenhorn: bad --fleet target %S (want [name=][host:]port)\n" item;
      exit 2
  in
  match List.filter (fun s -> s <> "") (String.split_on_char ',' spec) with
  | [] ->
    prerr_endline "alpenhorn: --fleet needs at least one [name=][host:]port target";
    exit 2
  | items -> List.mapi parse_item items

(* One row per process, refreshed every interval: the fleet view of top. *)
let run_top_fleet spec interval frames =
  let coll =
    Collector.create
      ~fetch:(fun ~host ~port path -> Listener.fetch ~host ~port path)
      (parse_fleet_targets spec)
  in
  let rules = Collector.fleet_rules ~max_staleness:(Float.max 10.0 (interval *. 5.0)) () in
  let stop = ref false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  let i = ref 0 in
  while (not !stop) && (frames = 0 || !i < frames) do
    incr i;
    Collector.scrape coll;
    print_string Dashboard.ansi_clear;
    print_fleet_rows coll;
    Format.printf "%a@?" Slo.pp_report (Collector.evaluate coll rules);
    flush stdout;
    if (frames = 0 || !i < frames) && not !stop then Unix.sleepf interval
  done;
  0

let run_top port host interval frames window replay color fleet =
  let color = not color in
  if fleet <> "" then run_top_fleet fleet interval frames
  else
  match replay with
  | Some path ->
    (* offline: render the recorded ring in one frame *)
    let body =
      try
        let ic = open_in path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      with Sys_error e ->
        Printf.eprintf "alpenhorn: cannot read %s: %s\n" path e;
        exit 2
    in
    (match Timeseries.of_jsonl body with
    | Error e ->
      Printf.eprintf "alpenhorn: %s: %s\n" path e;
      2
    | Ok ring ->
      let window = if window > 0.0 then window else Float.max 60.0 (Timeseries.span_seconds ring) in
      print_string (Dashboard.render ~color ~window ~ring ~slo:None ());
      0)
  | None ->
    let ring = Timeseries.create_detached ~capacity:720 () in
    let window = if window > 0.0 then window else 60.0 in
    let stop = ref false in
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
    let i = ref 0 and failures = ref 0 in
    while (not !stop) && (frames = 0 || !i < frames) && !failures < 5 do
      incr i;
      (match Listener.fetch ~host ~port "/metrics.json" with
      | Error e ->
        incr failures;
        Printf.eprintf "fetch http://%s:%d/metrics.json: %s\n%!" host port e
      | Ok (status, _body) when status <> 200 ->
        incr failures;
        Printf.eprintf "fetch /metrics.json: HTTP %d\n%!" status
      | Ok (_, body) -> (
        failures := 0;
        match Tel.Json.parse body with
        | None -> Printf.eprintf "fetch /metrics.json: unparseable body\n%!"
        | Some j -> (
          match Timeseries.record_json ring ~ts:(Unix.gettimeofday ()) j with
          | Ok () ->
            let slo =
              match Listener.fetch ~host ~port "/slo" with
              | Ok (_, slo_body) -> report_of_slo_json slo_body
              | Error _ -> None
            in
            print_string Dashboard.ansi_clear;
            print_string (Dashboard.render ~color ~window ~ring ~slo ());
            flush stdout
          | Error e -> Printf.eprintf "ring: %s\n%!" e)));
      if (frames = 0 || !i < frames) && not !stop then Unix.sleepf interval
    done;
    if !failures >= 5 then begin
      Printf.eprintf "alpenhorn: giving up after %d consecutive fetch failures\n" !failures;
      1
    end
    else 0

let top_cmd =
  let port =
    Arg.(
      value & opt int 9598
      & info [ "port" ] ~docv:"PORT" ~doc:"Metrics endpoint port to poll (see serve-metrics).")
  in
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Endpoint host.") in
  let interval =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS" ~doc:"Poll interval.")
  in
  let frames =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N" ~doc:"Render $(docv) frames then exit (0 = until Ctrl-C).")
  in
  let window =
    Arg.(
      value & opt float 0.0
      & info [ "window" ] ~docv:"SECONDS"
          ~doc:"Query window for rates/quantiles/sparklines (0 = 60 s live, full span on replay).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Render offline from a recorded JSON-lines ring (serve-metrics --record) instead \
                of polling.")
  in
  let no_color = Arg.(value & flag & info [ "no-color" ] ~doc:"Disable ANSI colors.") in
  let fleet =
    Arg.(
      value & opt string ""
      & info [ "fleet" ] ~docv:"TARGETS"
          ~doc:
            "Fleet mode: poll several processes instead of one. $(docv) is a comma-separated \
             list of [name=][host:]port metrics endpoints (e.g. \
             \"pkg-0=9001,mixer-0=9002,mixer-1=9003\"); each frame scrapes all of them and \
             renders one row per process plus the fleet SLO report.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live ANSI dashboard over a metrics endpoint: rounds/s, unwraps/s, GC pause and heap \
          sparklines, SLO status. Also renders offline from a recorded ring, and fleet mode \
          ($(b,--fleet)) shows one row per process.")
    Term.(const run_top $ port $ host $ interval $ frames $ window $ replay $ no_color $ fleet)

(* ---- networked deployment: serve-pkg / serve-mixer / e2e-net ---- *)

(* The servers a real deployment runs as separate processes (DESIGN.md
   §13): each wraps its protocol logic (lib/remote) behind the framed RPC
   loop and prints "READY port=N" once bound, so a parent that spawned it
   with --port 0 can read the ephemeral port back. *)

let ready_line ?metrics port =
  match metrics with
  | Some m -> Printf.printf "READY port=%d metrics=%d\n%!" port m
  | None -> Printf.printf "READY port=%d\n%!" port

(* Serve the RPC loop, optionally with a telemetry endpoint on its own
   domain. [instance]/[role] become constant labels on every exported
   sample, so one fleet scrape distinguishes every process. The metrics
   port is echoed in the READY handshake (metrics=M) for the parent. *)
let run_rpc_server ~instance ~role ~handler ~metrics_port port =
  let server =
    try Rpc.Server.create_traced ~port handler
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "alpenhorn: cannot bind port %d: %s\n" port (Unix.error_message e);
      exit 2
  in
  match metrics_port with
  | None ->
    ready_line (Rpc.Server.port server);
    Rpc.Server.run server;
    0
  | Some mport ->
    let l =
      try
        Listener.create ~port:mport
          (expose_handler ~labels:[ ("instance", instance); ("role", role) ] ())
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "alpenhorn: cannot bind metrics port %d: %s\n" mport (Unix.error_message e);
        exit 2
    in
    let d = Domain.spawn (fun () -> Listener.run l) in
    ready_line ~metrics:(Listener.port l) (Rpc.Server.port server);
    Rpc.Server.run server;
    Listener.stop l;
    Domain.join d;
    0

let seed_arg = Arg.(value & opt string "e2e" & info [ "seed" ] ~doc:"Deterministic deployment seed.")

let port_arg =
  Arg.(
    value & opt int 0
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen port; 0 (the default) picks an ephemeral port, printed as READY port=N.")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Also serve the telemetry endpoints (/metrics, /metrics.json, /slo, /series) on \
           127.0.0.1:$(docv) with this process's instance/role as constant labels. 0 picks \
           an ephemeral port; the bound port is echoed in the READY line as metrics=M.")

let run_serve_pkg seed port index metrics_port =
  run_rpc_server
    ~instance:(Printf.sprintf "pkg-%d" index)
    ~role:"pkg"
    ~handler:
      (Servers.Pkg_server.handler_traced (Servers.Pkg_server.create ~config:Config.test ~seed ~index))
    ~metrics_port port

let serve_pkg_cmd =
  let index =
    Arg.(
      value & opt int 0
      & info [ "index" ] ~docv:"I"
          ~doc:"PKG index: selects the pkg-$(docv) DRBG derivation from the deployment seed.")
  in
  Cmd.v
    (Cmd.info "serve-pkg"
       ~doc:
         "Run one PKG as a framed-RPC server process (registration, commit/reveal key \
          rotation, identity-key extraction).")
    Term.(const run_serve_pkg $ seed_arg $ port_arg $ index $ metrics_port_arg)

let run_serve_mixer seed port position metrics_port =
  run_rpc_server
    ~instance:(Printf.sprintf "mixer-%d" position)
    ~role:"mixer"
    ~handler:
      (Servers.Mixer_server.handler_traced
         (Servers.Mixer_server.create ~config:Config.test ~seed ~position))
    ~metrics_port port

let serve_mixer_cmd =
  let position =
    Arg.(
      value & opt int 0
      & info [ "position" ] ~docv:"I"
          ~doc:
            "Chain position: this process serves position $(docv) of both the add-friend \
             and the dialing mixnet chains.")
  in
  Cmd.v
    (Cmd.info "serve-mixer"
       ~doc:
         "Run one mixnet chain position as a framed-RPC server process (round key \
          announcement, unwrap/noise/shuffle).")
    Term.(const run_serve_mixer $ seed_arg $ port_arg $ position $ metrics_port_arg)

(* -- e2e-net: multi-process deployment driver -- *)

type child = { pid : int; out : in_channel; port : int; metrics : int (* 0 = none *) }

let spawn_child args =
  let r, w = Unix.pipe () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let rec wait_ready () =
    match input_line out with
    | line -> (
      (* the extended handshake first — sscanf happily matches the short
         form as a prefix of the long one *)
      match Scanf.sscanf_opt line "READY port=%d metrics=%d" (fun p m -> (p, m)) with
      | Some (port, metrics) -> { pid; out; port; metrics }
      | None -> (
        match Scanf.sscanf_opt line "READY port=%d" (fun p -> p) with
        | Some port -> { pid; out; port; metrics = 0 }
        | None -> wait_ready ()))
    | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      failwith (Printf.sprintf "child %s exited before READY" (String.concat " " args))
  in
  wait_ready ()

let kill_child c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
  try close_in c.out with Sys_error _ -> ()

let localhost port = { Net_deployment.host = "127.0.0.1"; port }

let pp_af_event = function
  | Client.Friend_request_accepted e -> "accepted:" ^ e
  | Client.Friend_request_rejected e -> "rejected:" ^ e
  | Client.Friend_request_key_mismatch e -> "key-mismatch:" ^ e
  | Client.Friend_confirmed e -> "confirmed:" ^ e

let pp_dial_event (Client.Incoming_call { peer; intent; session_key }) =
  Printf.sprintf "call:%s:%d:%s" peer intent (Util.to_hex session_key)

let pp_events evs = String.concat ", " (List.map (fun (who, ev) -> who ^ "<-" ^ ev) evs)

(* The scripted scenario both deployments run: three clients, two
   friendships, two calls. [af] and [dial] run one round of each phase and
   return (attempts, canonical event strings). *)
let run_scenario ~register ~new_client ~add_friend ~call ~af ~dial ~rounds =
  let emails = [ "alice@example.org"; "bob@example.org"; "carol@example.org" ] in
  let clients = List.map new_client emails in
  List.iter register clients;
  let a, b, c =
    match clients with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  add_friend a "bob@example.org";
  add_friend c "bob@example.org";
  let af_log = List.init rounds (fun _ -> af ()) in
  call a "bob@example.org" 1;
  call b "carol@example.org" 2;
  let dial_log = List.init rounds (fun _ -> dial ()) in
  (af_log, dial_log)

let run_e2e_net seed rounds faults_spec skip_verify scrape fleet_slo domains =
  apply_domains domains;
  if rounds < 2 then begin
    prerr_endline "alpenhorn: e2e-net needs --rounds >= 2 (request round + confirmation round)";
    exit 2
  end;
  let with_metrics = scrape || fleet_slo in
  let faults =
    match faults_spec with
    | "" | "none" -> Faults.empty
    | spec -> (
      match Faults.parse spec with
      | Ok t -> t
      | Error e ->
        Printf.eprintf "alpenhorn: bad --faults spec: %s\n" e;
        exit 2)
  in
  let config = { Config.test with Config.n_pkgs = 1 } in
  let fault_view = if Faults.is_empty faults then None else Some (Faults.deployment_view faults) in
  (* spawn the anytrust deployment: one PKG + chain_length mixers, each its
     own OS process on an ephemeral localhost port *)
  let metrics_args = if with_metrics then [ "--metrics-port"; "0" ] else [] in
  let spawn_pkg i =
    spawn_child
      ([ "serve-pkg"; "--seed"; seed; "--index"; string_of_int i; "--port"; "0" ] @ metrics_args)
  in
  let spawn_mixer i =
    spawn_child
      ([ "serve-mixer"; "--seed"; seed; "--position"; string_of_int i; "--port"; "0" ]
      @ metrics_args)
  in
  let pkg_children = Array.init config.Config.n_pkgs spawn_pkg in
  let mixer_children = Array.init config.Config.chain_length (fun i -> ref (spawn_mixer i)) in
  let all_children () =
    Array.to_list (Array.map (fun c -> c) pkg_children)
    @ Array.to_list (Array.map (fun r -> !r) mixer_children)
  in
  let cleanup () = List.iter kill_child (all_children ()) in
  Printf.printf "spawned %d mixer + %d PKG server processes (ports %s)\n%!"
    (Array.length mixer_children) (Array.length pkg_children)
    (String.concat ", "
       (List.map (fun c -> string_of_int c.port) (all_children ())));
  let finally f = Fun.protect ~finally:cleanup f in
  finally @@ fun () ->
  (* set after the deployment exists; restart closures consult it so a
     respawned mixer's fresh metrics port is scraped, not the dead one *)
  let collector = ref None in
  let repoint_collector name metrics =
    match !collector with
    | Some coll when metrics > 0 ->
      Collector.set_target coll ~name (Collector.Remote { host = "127.0.0.1"; port = metrics })
    | _ -> ()
  in
  let mixers =
    Array.mapi
      (fun i r ->
        {
          Net_deployment.ep = localhost !r.port;
          kill = (fun () -> kill_child !r);
          restart =
            (fun () ->
              r := spawn_mixer i;
              Printf.printf "mixer %d respawned (pid %d, port %d)\n%!" i !r.pid !r.port;
              repoint_collector (Printf.sprintf "mixer-%d" i) !r.metrics;
              localhost !r.port);
        })
      mixer_children
  in
  let nd =
    Net_deployment.create ~config ~seed
      ~pkgs:(Array.map (fun c -> localhost c.port) pkg_children)
      ~mixers ()
  in
  Deployment.set_faults nd fault_view;
  (* trace every round: all span ids are minted by this tracer, and
     servers replay carried identities, so merged snapshots stitch *)
  let tracer = if with_metrics then Some (Trace.create Tel.default) else None in
  let coll =
    if not with_metrics then None
    else begin
      let fetch ~host ~port path = Listener.fetch ~host ~port path in
      let remote (c : child) = Collector.Remote { host = "127.0.0.1"; port = c.metrics } in
      let insts =
        Collector.instance ~role:"orch" ~name:"orchestrator" (Collector.Local Tel.default)
        :: Array.to_list
             (Array.mapi
                (fun i c -> Collector.instance ~name:(Printf.sprintf "pkg-%d" i) (remote c))
                pkg_children)
        @ Array.to_list
            (Array.mapi
               (fun i r -> Collector.instance ~name:(Printf.sprintf "mixer-%d" i) (remote !r))
               mixer_children)
      in
      let c = Collector.create ~fetch insts in
      collector := Some c;
      Printf.printf "scraping %d fleet instances (metrics ports %s)\n%!" (List.length insts)
        (String.concat ", "
           (List.map (fun c -> string_of_int c.metrics) (all_children ())));
      Some c
    end
  in
  let scrape_now () = Option.iter Collector.scrape coll in
  if fault_view <> None then
    Printf.printf "fault schedule: %s\n%!" (Faults.to_string faults);
  let net_af, net_dial =
    run_scenario ~rounds
      ~new_client:(fun email -> Deployment.new_client nd ~email ~callbacks:Client.null_callbacks)
      ~register:(fun cl ->
        match Deployment.register nd cl with
        | Ok () -> ()
        | Error e -> failwith (Alpenhorn_pkg.Pkg.error_to_string e))
      ~add_friend:(fun cl email -> Client.add_friend cl ~email ())
      ~call:(fun cl email intent -> Client.call cl ~email ~intent)
      ~af:(fun () ->
        let s = Deployment.run_addfriend_round nd ?tracer () in
        Printf.printf "af round %d over TCP: %d in, %d noise, attempts %d — %s\n%!"
          s.Deployment.af_round s.Deployment.requests_in s.Deployment.noise_added
          s.Deployment.af_attempts
          (pp_events (List.map (fun (w, e) -> (w, pp_af_event e)) s.Deployment.events));
        scrape_now ();
        ( s.Deployment.af_attempts,
          List.map (fun (w, e) -> (w, pp_af_event e)) s.Deployment.events ))
      ~dial:(fun () ->
        let s = Deployment.run_dialing_round nd ?tracer () in
        Printf.printf "dial round %d over TCP: %d in, %d noise, attempts %d — %s\n%!"
          s.Deployment.dial_round s.Deployment.tokens_in s.Deployment.dial_noise_added
          s.Deployment.dial_attempts
          (pp_events (List.map (fun (w, e) -> (w, pp_dial_event e)) s.Deployment.calls));
        scrape_now ();
        ( s.Deployment.dial_attempts,
          List.map (fun (w, e) -> (w, pp_dial_event e)) s.Deployment.calls ))
  in
  Deployment.close nd;
  (* ---- fleet observability checks (--scrape / --fleet-slo) ---- *)
  let fleet_ok =
    match coll with
    | None -> true
    | Some coll ->
      let ok = ref true in
      (* staleness demo: kill a mixer outright — the next scrape must mark
         it stale (its metrics freeze, fleet.instance_up drops to 0) —
         then respawn it and watch the scrape after that recover *)
      let r0 = mixer_children.(0) in
      kill_child !r0;
      Collector.scrape coll;
      let status_of name =
        match List.find_opt (fun (n, _, _) -> n = name) (Collector.status coll) with
        | Some (_, st, _) -> st
        | None -> Collector.Never "missing"
      in
      (match status_of "mixer-0" with
      | Collector.Stale reason ->
        Printf.printf "fleet: mixer-0 went stale after kill (%s)\n%!" reason
      | _ ->
        prerr_endline "fleet: FAIL — killed mixer-0 did not go stale on the next scrape";
        ok := false);
      r0 := spawn_mixer 0;
      repoint_collector "mixer-0" !r0.metrics;
      Collector.scrape coll;
      (match status_of "mixer-0" with
      | Collector.Fresh -> Printf.printf "fleet: mixer-0 recovered after respawn\n%!"
      | _ ->
        prerr_endline "fleet: FAIL — respawned mixer-0 did not recover on the next scrape";
        ok := false);
      print_fleet_rows coll;
      if scrape then begin
        (* the tentpole proof: at least one stitched trace whose spans
           were emitted by >= 3 distinct OS processes *)
        let all = Collector.traces coll in
        let crossing = Collector.cross_process_traces ~min_instances:3 coll in
        Printf.printf "fleet: %d traces stitched, %d crossing >= 3 processes\n" (List.length all)
          (List.length crossing);
        (match crossing with
        | (id, spans) :: _ ->
          Printf.printf "  e.g. trace %d: %d spans across %s\n" id (List.length spans)
            (String.concat ", " (Collector.trace_instances spans))
        | [] ->
          prerr_endline "fleet: FAIL — no trace crosses >= 3 processes";
          ok := false)
      end;
      if fleet_slo then begin
        (* the round engine's own rules must see data over the wire too: a
           rule skipped for lack of its metric fails the run *)
        let engine_rules =
          List.filter
            (fun r ->
              List.mem r.Slo.name
                [
                  "faults.consecutive_aborts"; "faults.recovery_time"; "round.addfriend.deadline";
                  "round.dialing.deadline"; "mailbox.load";
                ])
            (Slo.default_rules
               ~max_consecutive_aborts:
                 (float_of_int (Client.default_retry_policy.Client.max_attempts - 1))
               ())
        in
        let report =
          Collector.evaluate coll (Collector.fleet_rules ~max_staleness:300.0 () @ engine_rules)
        in
        Format.printf "%a@?" Slo.pp_report report;
        if not report.Slo.healthy then begin
          prerr_endline "fleet: FAIL — fleet SLO report unhealthy";
          ok := false
        end;
        List.iter
          (fun (c : Slo.check) ->
            if c.value = None && List.memq c.rule engine_rules then begin
              Printf.eprintf "fleet: FAIL — engine SLO rule %s skipped for lack of data\n"
                c.rule.name;
              ok := false
            end)
          report.Slo.checks
      end;
      !ok
  in
  let net_events = net_af @ net_dial in
  let base =
  if List.for_all (fun (_, evs) -> evs = []) net_events then begin
    prerr_endline "e2e-net: FAIL — no protocol events were delivered";
    1
  end
  else if skip_verify then begin
    Printf.printf "e2e-net: PASS (%d add-friend + %d dialing rounds over TCP; verification \
                   against the in-process deployment skipped)\n"
      rounds rounds;
    0
  end
  else begin
    (* replay the identical scenario on the in-process deployment — same
       seed, same fault schedule (client RNG consumption on aborted
       attempts must match) — and demand identical protocol results *)
    let d = Deployment.create ~config ~seed in
    Deployment.set_faults d fault_view;
    let ref_af, ref_dial =
      run_scenario ~rounds
        ~new_client:(fun email -> Deployment.new_client d ~email ~callbacks:Client.null_callbacks)
        ~register:(fun cl ->
          match Deployment.register d cl with
          | Ok () -> ()
          | Error e -> failwith (Alpenhorn_pkg.Pkg.error_to_string e))
        ~add_friend:(fun cl email -> Client.add_friend cl ~email ())
        ~call:(fun cl email intent -> Client.call cl ~email ~intent)
        ~af:(fun () ->
          let s = Deployment.run_addfriend_round d () in
          ( s.Deployment.af_attempts,
            List.map (fun (w, e) -> (w, pp_af_event e)) s.Deployment.events ))
        ~dial:(fun () ->
          let s = Deployment.run_dialing_round d () in
          ( s.Deployment.dial_attempts,
            List.map (fun (w, e) -> (w, pp_dial_event e)) s.Deployment.calls ))
    in
    let ref_events = ref_af @ ref_dial in
    if net_events = ref_events then begin
      Printf.printf
        "e2e-net: PASS — %d add-friend + %d dialing rounds over TCP, protocol results \
         (events, session keys, retry counts) identical to the in-process deployment\n"
        rounds rounds;
      0
    end
    else begin
      prerr_endline "e2e-net: FAIL — networked and in-process protocol results diverge:";
      List.iteri
        (fun i ((na, nev), (ra, rev)) ->
          if (na, nev) <> (ra, rev) then
            Printf.eprintf "  round %d:\n    net (attempts %d): %s\n    ref (attempts %d): %s\n" i
              na (pp_events nev) ra (pp_events rev))
        (List.combine net_events ref_events);
      1
    end
  end
  in
  if base = 0 && not fleet_ok then 1 else base

let e2e_net_cmd =
  let rounds =
    Arg.(
      value & opt int 2
      & info [ "rounds" ] ~docv:"N"
          ~doc:"Add-friend and dialing rounds to run (>= 2; the second add-friend round \
                carries the confirmations).")
  in
  let faults =
    Arg.(
      value
      & opt string "crash@2:server=1"
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Fault schedule (DESIGN.md §10 grammar): crash entries SIGKILL the mixer \
             process mid-round and recovery respawns it. \"none\" disables faults.")
  in
  let skip_verify =
    Arg.(
      value & flag
      & info [ "skip-verify" ]
          ~doc:"Skip replaying the scenario on the in-process deployment for comparison.")
  in
  let scrape =
    Arg.(
      value & flag
      & info [ "scrape" ]
          ~doc:
            "Give every server process a metrics endpoint (--metrics-port 0), trace every \
             round, scrape the whole fleet after each round with the orchestrator-side \
             collector, and demand at least one stitched trace whose spans cross three or \
             more OS processes. Also runs the staleness demo: a mixer is killed after the \
             scenario, shown stale on the next scrape, then respawned and shown recovered.")
  in
  let fleet_slo =
    Arg.(
      value & flag
      & info [ "fleet-slo" ]
          ~doc:
            "Evaluate fleet-wide SLO rules (zero rpc.errors across all instances, every \
             instance up, staleness and latency ceilings) and the round engine's fault, \
             deadline and mailbox-load rules over the merged fleet snapshot and print the \
             report; implies the scraping infrastructure. Exit 1 when unhealthy or when an \
             engine rule finds no data.")
  in
  Cmd.v
    (Cmd.info "e2e-net"
       ~doc:
         "Spawn a 3-mixer + 1-PKG anytrust deployment as separate OS processes, run \
          add-friend and dialing rounds over localhost TCP (killing and respawning a \
          mixer mid-round under the fault schedule), and verify the protocol results \
          match the in-process deployment byte for byte.")
    Term.(
      const run_e2e_net $ seed_arg $ rounds $ faults $ skip_verify $ scrape $ fleet_slo
      $ domains_arg)

let () =
  let doc = "Alpenhorn: metadata-private bootstrapping (OCaml reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "alpenhorn" ~doc)
          [
            session_cmd;
            params_cmd;
            simulate_cmd;
            scale_cmd;
            serve_metrics_cmd;
            top_cmd;
            serve_pkg_cmd;
            serve_mixer_cmd;
            e2e_net_cmd;
          ]))
