module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Ibe = Alpenhorn_ibe.Ibe
module Bls = Alpenhorn_bls.Bls
module Pkg = Alpenhorn_pkg.Pkg
module Chain = Alpenhorn_mixnet.Chain
module Mailbox = Alpenhorn_mixnet.Mailbox
module Shard = Alpenhorn_mixnet.Shard
module Bloom = Alpenhorn_bloom.Bloom
module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace
module Events = Alpenhorn_telemetry.Events
module Runtime_stats = Alpenhorn_telemetry.Runtime_stats
module Timeseries = Alpenhorn_telemetry.Timeseries

(* What the recovery loop needs to know about a fault schedule, as plain
   closures: lib/core cannot depend on lib/sim, so Alpenhorn_sim.Faults
   converts its schedule into this view (Faults.deployment_view). *)
type fault_view = {
  fv_seed : string;
  fv_crash_attempts : round:int -> server:int -> int;
  fv_stall_seconds : round:int -> server:int -> float;
  fv_client_offline : round:int -> client:int -> bool;
}

exception Round_failed of { phase : string; round : int; attempts : int }

(* One archived dialing round (§5.1): either per-mailbox filters (legacy)
   or per-shard filters (Config.dial_shards > 0). Either way a client's
   download for that round is a single Bloom filter, found by its email. *)
type archived =
  | Per_mailbox of Bloom.t array * int (* filters, K *)
  | Per_shard of Bloom.t array * Shard.t

let archived_lookup entry ~email =
  match entry with
  | Per_mailbox (filters, k) -> filters.(Mailbox.mailbox_of_identity email ~num_mailboxes:k)
  | Per_shard (filters, shard) -> filters.(Shard.of_identity shard email)

(* ---- backends: the operations that differ by transport ---- *)

type pkg = {
  public_key : unit -> Bls.public;
  register : now:int -> email:string -> pk:Bls.public -> (unit, Pkg.error) result;
  confirmation_token : email:string -> string option;
  confirm : now:int -> email:string -> token:string -> (unit, Pkg.error) result;
  commit : round:int -> string;
  reveal : round:int -> (Ibe.master_public * string, Pkg.error) result;
  extract_batch :
    now:int ->
    round:int ->
    (string * Bls.signature) array ->
    (Ibe.identity_key * Bls.signature, Pkg.error) result array;
  end_round : round:int -> unit;
}

type chain = {
  begin_round : unit -> Alpenhorn_dh.Dh.public list;
  mix :
    noise_mu:float ->
    laplace_b:float ->
    num_mailboxes:int ->
    mpk_agg:Ibe.master_public option ->
    tracer:Trace.t option ->
    (string * Trace.ctx option) array ->
    (string * Trace.ctx option) array * int;
  erase : unit -> unit;
  crash : server:int -> unit;
  restart : unit -> unit;
}

type backend = {
  pkg_ops : pkg array;
  af_chain : chain;
  dial_chain : chain;
  with_round : 'a. Trace.t option -> phase:string -> round:int -> (unit -> 'a) -> 'a;
  close : unit -> unit;
}

type t = {
  config : Config.t;
  params : Params.t;
  rng : Drbg.t;
  backend : backend;
  pkgs : Pkg.t array; (* the in-process PKGs; empty over a remote backend *)
  inboxes : (string, (int * string) list) Hashtbl.t; (* simulated email provider *)
  dial_archive : (int, archived) Hashtbl.t; (* round -> that round's filters (§5.1) *)
  mutable clients : Client.t list; (* registered clients *)
  mutable af_round : int;
  mutable dial_round : int;
  mutable clock : int;
  mutable faults : fault_view option;
  mutable policy : Client.retry_policy;
  mutable abort_streak : int; (* consecutive aborted attempts; 0 after a good round *)
  mutable worst_streak : int;
}

let make ~config ~rng ~pkgs ~inboxes backend =
  (match Config.validate config with Ok () -> () | Error m -> invalid_arg ("Deployment.create: " ^ m));
  {
    config;
    params = Config.params config;
    rng;
    backend;
    pkgs;
    inboxes;
    dial_archive = Hashtbl.create 64;
    clients = [];
    af_round = 0;
    dial_round = 0;
    clock = 0;
    faults = None;
    policy = Client.default_retry_policy;
    abort_streak = 0;
    worst_streak = 0;
  }

let root_rng seed = Drbg.create ~seed:("deployment" ^ seed)
let of_backend ~config ~seed backend = make ~config ~rng:(root_rng seed) ~pkgs:[||] ~inboxes:(Hashtbl.create 1) backend
let untraced_round _ ~phase:_ ~round:_ f = f ()

let inbox_of inboxes email = Option.value ~default:[] (Hashtbl.find_opt inboxes email)

let local_pkg pkg inboxes i =
  {
    public_key = (fun () -> Pkg.long_term_public pkg);
    register = Pkg.register pkg;
    confirmation_token = (fun ~email -> List.assoc_opt i (inbox_of inboxes email));
    confirm = Pkg.confirm pkg;
    commit = Pkg.begin_round pkg;
    reveal = Pkg.reveal_round pkg;
    extract_batch = Pkg.extract_batch pkg;
    end_round = Pkg.end_round pkg;
  }

(* Noise is drawn from the deployment's own stream: request-sized for the
   add-friend chain (a genuine IBE encryption of random bytes to a random
   identity when faithful, relying on ciphertext anonymity, §4.3), dial
   tokens otherwise. *)
let local_chain config params ~rng ~label =
  let chain = Chain.create params ~rng:(Drbg.derive rng label) ~chain_length:config.Config.chain_length in
  let noise_body mpk_agg ~mailbox:_ =
    match mpk_agg with
    | None -> Drbg.bytes rng Wire.dial_token_size
    | Some mpk_agg when config.Config.faithful_noise ->
      let id = "noise-" ^ Alpenhorn_crypto.Util.to_hex (Drbg.bytes rng 8) in
      let body = Drbg.bytes rng (Wire.request_plaintext_size params) in
      Ibe.encrypt params rng mpk_agg ~id body
    | Some _ -> Drbg.bytes rng (Wire.request_ciphertext_size params)
  in
  {
    begin_round = (fun () -> Chain.begin_round chain);
    mix =
      (fun ~noise_mu ~laplace_b ~num_mailboxes ~mpk_agg ~tracer batch ->
        Chain.mix chain ~noise_mu ~laplace_b ~num_mailboxes ~noise_body:(noise_body mpk_agg) ?tracer
          batch);
    erase = (fun () -> Chain.abort_round chain);
    crash = (fun ~server -> Chain.crash_server chain ~server);
    restart =
      (fun () ->
        for s = 0 to Chain.chain_length chain - 1 do
          if Chain.server_down chain ~server:s then Chain.restart_server chain ~server:s
        done);
  }

let create ~config ~seed =
  let params = Config.params config in
  let rng = root_rng seed in
  let inboxes = Hashtbl.create 256 in
  let deliver pkg_index ~to_ ~token =
    Hashtbl.replace inboxes to_ ((pkg_index, token) :: inbox_of inboxes to_)
  in
  let pkgs =
    Array.init config.Config.n_pkgs (fun i ->
        Pkg.create params
          ~rng:(Drbg.derive rng (Printf.sprintf "pkg-%d" i))
          ~send_email:(deliver i) ())
  in
  make ~config ~rng ~pkgs ~inboxes
    {
      pkg_ops = Array.mapi (fun i pkg -> local_pkg pkg inboxes i) pkgs;
      af_chain = local_chain config params ~rng ~label:"af-chain";
      dial_chain = local_chain config params ~rng ~label:"dial-chain";
      with_round = untraced_round;
      close = ignore;
    }

let close t = t.backend.close ()
let config t = t.config
let params t = t.params
let pkgs t = t.pkgs
let pkg_public_keys t = Array.to_list (Array.map (fun p -> p.public_key ()) t.backend.pkg_ops)
let now t = t.clock
let advance_clock t ~seconds = t.clock <- t.clock + seconds
let addfriend_round_number t = t.af_round
let dialing_round_number t = t.dial_round

let new_client t ~email ~callbacks =
  Client.create ~config:t.config
    ~rng:(Drbg.derive t.rng ("client-" ^ email))
    ~email ~pkg_public_keys:(pkg_public_keys t) ~callbacks

let inbox t ~email = inbox_of t.inboxes email

let register t client =
  let email = Client.email client in
  let pk = Client.signing_public client in
  (* PKG by PKG, stopping at the first error: the user reads each
     confirmation email and echoes the token (no email, no confirmation) *)
  let per_pkg result p =
    Result.bind result (fun () ->
        Result.bind (p.register ~now:t.clock ~email ~pk) (fun () ->
            let token = Option.value ~default:"" (p.confirmation_token ~email) in
            p.confirm ~now:t.clock ~email ~token))
  in
  Result.map
    (fun () -> if not (List.memq client t.clients) then t.clients <- t.clients @ [ client ])
    (Array.fold_left per_pkg (Ok ()) t.backend.pkg_ops)

(* ---- fault injection and recovery (DESIGN.md §10) ---- *)

let set_faults t fv = t.faults <- fv
let set_retry_policy t p = t.policy <- p
let retry_policy t = t.policy

let c_aborts = Tel.Counter.v Tel.default "faults.rounds_aborted"
let c_retries = Tel.Counter.v Tel.default "faults.retries"
let h_recovery = Tel.Histogram.v Tel.default "faults.recovery_seconds"
let c_injected kind = Tel.Counter.v Tel.default ~labels:[ ("kind", kind) ] "faults.injected"

(* A stall longer than the policy's round timeout: the round is abandoned
   exactly like a crash-abort, just with a different event. *)
exception Stall_timeout

let record_abort t =
  t.abort_streak <- t.abort_streak + 1;
  if t.abort_streak > t.worst_streak then t.worst_streak <- t.abort_streak;
  (* high-water mark, so the SLO check sees mid-run streaks even when the
     final round succeeded; registered on the first abort, so a fault-free
     run skips the rule rather than passing it vacuously *)
  Tel.Gauge.set (Tel.Gauge.v Tel.default "faults.consecutive_aborts") (float_of_int t.worst_streak);
  Tel.Counter.inc c_aborts

(* Apply this attempt's scheduled faults. Called right after the chain's
   [begin_round] — a crash injected here models a server dying after it
   announced its round key, the case the anytrust abort path exists for. *)
let inject_faults t (chain : chain) ~phase ~round ~attempt =
  match t.faults with
  | None -> ()
  | Some fv ->
    let servers = t.config.Config.chain_length in
    for s = 0 to servers - 1 do
      if fv.fv_crash_attempts ~round ~server:s >= attempt then begin
        chain.crash ~server:s;
        Tel.Counter.inc (c_injected "crash")
      end
    done;
    if attempt = 1 then begin
      let stall = ref 0.0 in
      for s = 0 to servers - 1 do
        stall := !stall +. fv.fv_stall_seconds ~round ~server:s
      done;
      if !stall > 0.0 then begin
        Tel.Counter.inc (c_injected "stall");
        let timeout = t.policy.Client.round_timeout in
        if !stall > timeout then begin
          advance_clock t ~seconds:(int_of_float (Float.ceil timeout));
          Events.log Events.default ~severity:Warn
            ~labels:[ ("phase", phase); ("round", string_of_int round) ]
            ~detail:
              (Printf.sprintf "stall of %.0f s exceeds the %.0f s round timeout; aborting" !stall
                 timeout)
            "round.timeout";
          raise Stall_timeout
        end
        else begin
          advance_clock t ~seconds:(int_of_float (Float.ceil !stall));
          Events.log Events.default ~severity:Warn
            ~labels:[ ("phase", phase); ("round", string_of_int round) ]
            ~detail:
              (Printf.sprintf "server stalled %.0f s; round delayed but under the %.0f s timeout"
                 !stall timeout)
            "round.stall"
        end
      end
    end

(* The recovery loop around one round: checkpoint every participating
   client, run the round body, and on a clean abort (any server down, or a
   stall past the timeout) roll everything per-round back — chain keys,
   crashed servers restarted, client queues and DH state, [cleanup] for
   phase-specific state (PKG round secrets) — then re-run after
   deterministic backoff, up to the policy's attempt budget. Any other
   exception erases the same round secrets (§4.4), best effort so a failing
   erasure cannot mask it, and propagates without a retry. *)
let with_recovery t ~phase ~round ~(chain : chain) ~clients ~cleanup body =
  let policy = t.policy in
  let seed = match t.faults with Some fv -> fv.fv_seed | None -> "faults" in
  let labels = [ ("phase", phase); ("round", string_of_int round) ] in
  let checkpoints = List.map (fun c -> (c, Client.checkpoint c)) clients in
  let first_abort_clock = ref None in
  let erase () =
    List.iter
      (fun f ->
        try f ()
        with e ->
          Events.log Events.default ~severity:Error ~labels ~detail:(Printexc.to_string e)
            "round.erase_failed")
      [ chain.erase; cleanup ]
  in
  let rec attempt n =
    match body ~after_begin:(fun () -> inject_faults t chain ~phase ~round ~attempt:n) with
    | result ->
      t.abort_streak <- 0;
      (match !first_abort_clock with
       | None -> ()
       | Some t0 ->
         let recovery = float_of_int (t.clock - t0) in
         Tel.Histogram.observe h_recovery recovery;
         Events.log Events.default ~labels
           ~detail:(Printf.sprintf "recovered on attempt %d after %.0f s" n recovery)
           "round.recovered");
      (result, n)
    | exception (Chain.Aborted _ | Stall_timeout) ->
      if !first_abort_clock = None then first_abort_clock := Some t.clock;
      record_abort t;
      erase ();
      chain.restart ();
      List.iter (fun (c, cp) -> Client.rollback c cp) checkpoints;
      if n >= policy.Client.max_attempts then begin
        Events.log Events.default ~severity:Error ~labels
          ~detail:(Printf.sprintf "gave up after %d attempts" n)
          "round.failed";
        raise (Round_failed { phase; round; attempts = n })
      end
      else begin
        let delay =
          Client.backoff_delay policy
            ~seed:(Printf.sprintf "%s:%s:%d" seed phase round)
            ~attempt:n
        in
        advance_clock t ~seconds:(int_of_float (Float.ceil delay));
        Tel.Counter.inc c_retries;
        Events.log Events.default ~severity:Warn ~labels
          ~detail:(Printf.sprintf "attempt %d aborted; retrying after %.1f s backoff" n delay)
          "round.retry";
        attempt (n + 1)
      end
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      erase ();
      Events.log Events.default ~severity:Error ~labels ~detail:(Printexc.to_string e)
        "round.error";
      Printexc.raise_with_backtrace e bt
  in
  attempt 1

(* The participants the schedule does not hold offline this round; a
   client is identified by registration index (stable across the whole
   run). *)
let online_clients t ~phase ~round clients =
  match t.faults with
  | None -> clients
  | Some fv ->
    let index c =
      let rec go i = function [] -> -1 | x :: rest -> if x == c then i else go (i + 1) rest in
      go 0 t.clients
    in
    let online, offline =
      List.partition
        (fun c ->
          let i = index c in
          i < 0 || not (fv.fv_client_offline ~round ~client:i))
        clients
    in
    if offline <> [] then begin
      Tel.Counter.add (c_injected "offline") (List.length offline);
      Events.log Events.default
        ~labels:[ ("phase", phase) ]
        ~detail:(Printf.sprintf "round %d: %d clients offline" round (List.length offline))
        "client.offline"
    end;
    online

(* One phase's round over its online participants: log the start, and run
   [body] under the backend's round scope and the recovery loop. *)
let run_round t ~phase ~round ~(chain : chain) ~cleanup ?tracer clients body =
  Events.log Events.default
    ~labels:[ ("phase", phase) ]
    ~detail:(Printf.sprintf "round %d, %d clients" round (List.length clients))
    "round.start";
  let result =
    t.backend.with_round tracer ~phase ~round (fun () ->
        with_recovery t ~phase ~round ~chain ~clients ~cleanup body)
  in
  (* Live-telemetry round boundary: count the completed round, refresh the
     runtime/GC readings, and append one sample to the process-wide
     time-series ring so a live scrape (or [top]) sees history filling
     while rounds run. *)
  Tel.Counter.inc (Tel.Counter.v Tel.default ~labels:[ ("phase", phase) ] "round.completed");
  Runtime_stats.sample (Runtime_stats.get_default ());
  Timeseries.record Timeseries.default;
  result

let num_mailboxes t ~noise_mu ~participants =
  let expected_real =
    int_of_float (Float.round (float_of_int participants *. t.config.Config.active_fraction))
  in
  Mailbox.num_mailboxes_for ~expected_real ~noise_mu ~chain_length:t.config.Config.chain_length

let num_af_mailboxes t = num_mailboxes t ~noise_mu:t.config.Config.addfriend_noise_mu
let num_dial_mailboxes t = num_mailboxes t ~noise_mu:t.config.Config.dialing_noise_mu

(* Mix one batch through the backend's chain, then distribute the last
   hop's payloads here, whatever the transport. *)
let mix_round t (chain : chain) ?tracer ~noise_mu ~num_mailboxes ~mpk_agg ~distribute batch =
  Tel.Span.with_ Tel.default "mix.round" @@ fun () ->
  Tel.Counter.inc (Tel.Counter.v Tel.default "mix.rounds");
  let final, noise_added =
    chain.mix ~noise_mu ~laplace_b:t.config.Config.laplace_b ~num_mailboxes ~mpk_agg ~tracer batch
  in
  let published = Chain.publish ?tracer ~num_mailboxes final in
  let result, dropped = distribute (Array.map fst final) in
  (result, noise_added, dropped, published)

(* Every client downloads its mailbox and scans it; with a tracer, the
   recipient-side scan is stitched onto each traced message published to
   that client's mailbox. *)
let scan_all ?tracer ~published ~num_mailboxes items ~client ~scan =
  Tel.Span.with_ Tel.default "client.scan" @@ fun () ->
  List.concat_map
    (fun item ->
      let email = Client.email (client item) in
      let mb = Mailbox.mailbox_of_identity email ~num_mailboxes in
      let t0 = Tel.now Tel.default in
      let evs = scan item in
      (match tracer with
      | Some tr ->
        List.iter
          (fun (pmb, pctx) ->
            if pmb = mb then
              Trace.emit tr (Trace.child tr pctx)
                ~labels:[ ("client", email) ]
                ~name:"client.scan" ~ts:t0 ~dur:(Tel.now Tel.default -. t0) ())
          published
      | None -> ());
      List.map (fun ev -> (email, ev)) evs)
    items

let log_close ~phase ~round ~real_in ~noise_added ~dropped =
  Events.log Events.default
    ~labels:[ ("phase", phase) ]
    ~detail:(Printf.sprintf "round %d: %d in, %d noise, %d dropped" round real_in noise_added dropped)
    "round.close"

(* ---- add-friend round (Algorithm 1, orchestrated) ---- *)

type af_stats = {
  af_round : int;
  af_attempts : int;
  requests_in : int;
  noise_added : int;
  dropped : int;
  num_mailboxes : int;
  mailbox_bytes : int array;
  events : (string * Client.af_event) list;
}

let run_addfriend_round t ?tracer ?participants () =
  let clients = match participants with Some l -> l | None -> t.clients in
  t.af_round <- t.af_round + 1;
  let round = t.af_round in
  let clients = online_clients t ~phase:"addfriend" ~round clients in
  let pkgs = t.backend.pkg_ops in
  let end_round () = Array.iter (fun p -> p.end_round ~round) pkgs in
  let body ~after_begin =
    Tel.Span.with_ Tel.default "round.addfriend" @@ fun () ->
    (* 1. PKGs rotate master keys: commit, then reveal; verify the openings *)
    let mpk_agg =
      Tel.Span.with_ Tel.default "pkg.rotate" @@ fun () ->
      let commitments = Array.map (fun p -> p.commit ~round) pkgs in
      Array.mapi
        (fun i p ->
          match p.reveal ~round with
          | Error e -> failwith ("Deployment: reveal failed: " ^ Pkg.error_to_string e)
          | Ok (mpk, opening) ->
            if not (Pkg.verify_commitment t.params ~commitment:commitments.(i) ~mpk ~opening) then
              failwith "Deployment: PKG commitment mismatch";
            mpk)
        pkgs
      |> Array.to_list |> Ibe.aggregate_public t.params
    in
    let num_mailboxes = num_af_mailboxes t ~participants:(List.length clients) in
    (* 2. every client extracts identity keys and submits one onion *)
    let server_pks = t.backend.af_chain.begin_round () in
    after_begin ();
    let contexts, batch =
      Tel.Span.with_ Tel.default "client.submit" @@ fun () ->
      let contexts =
        Client.begin_addfriend_round_batch_with clients ~round ~n_pkgs:(Array.length pkgs)
          ~extract_batch:(fun j requests -> pkgs.(j).extract_batch ~now:t.clock ~round requests)
        |> List.map (fun (c, result) ->
               match result with
               | Error e -> failwith ("Deployment: extraction failed: " ^ Pkg.error_to_string e)
               | Ok ctx -> (c, ctx))
      in
      let batch =
        List.map
          (fun (c, ctx) ->
            Client.addfriend_submission_traced c ctx ?tracer ~mpk_agg ~num_mailboxes ~server_pks ())
          contexts
        |> Array.of_list
      in
      (contexts, batch)
    in
    (* 3. the mixnet chain runs the round *)
    let mailboxes, noise_added, dropped, published =
      mix_round t t.backend.af_chain ?tracer ~noise_mu:t.config.Config.addfriend_noise_mu
        ~num_mailboxes ~mpk_agg:(Some mpk_agg)
        ~distribute:(Mailbox.distribute ~num_mailboxes ~mode:`AddFriend)
        batch
    in
    let buckets = Mailbox.plain_exn mailboxes in
    (* the modeled §6 mailbox-load ceiling input: the fullest mailbox of
       this round, in entries *)
    Tel.Gauge.set
      (Tel.Gauge.v Tel.default "mailbox.max_load")
      (float_of_int (Array.fold_left (fun m b -> Stdlib.max m (List.length b)) 0 buckets));
    (* 4-6. every client downloads its mailbox and scans *)
    let events =
      scan_all ?tracer ~published ~num_mailboxes contexts ~client:fst ~scan:(fun (c, ctx) ->
          Client.scan_addfriend_mailbox c ctx buckets.(Mailbox.mailbox_of_identity (Client.email c) ~num_mailboxes))
    in
    (* PKGs erase master secrets *)
    end_round ();
    advance_clock t ~seconds:t.config.Config.addfriend_round_seconds;
    log_close ~phase:"addfriend" ~round ~real_in:(Array.length batch) ~noise_added ~dropped;
    {
      af_round = round;
      af_attempts = 1;
      requests_in = Array.length batch;
      noise_added;
      dropped;
      num_mailboxes;
      mailbox_bytes = Mailbox.size_bytes mailboxes;
      events;
    }
  in
  let stats, attempts =
    run_round t ~phase:"addfriend" ~round ~chain:t.backend.af_chain ~cleanup:end_round ?tracer
      clients body
  in
  { stats with af_attempts = attempts }

(* ---- dialing round (§5) ---- *)

type dial_stats = {
  dial_round : int;
  dial_attempts : int;
  tokens_in : int;
  dial_noise_added : int;
  dial_dropped : int;
  dial_num_mailboxes : int;
  filter_bytes : int array;
  calls : (string * Client.dial_event) list;
}

let archived_filter (t : t) ~round ~email =
  Option.map (fun entry -> archived_lookup entry ~email) (Hashtbl.find_opt t.dial_archive round)

let catch_up_client (t : t) client =
  let first = Client.dialing_round client + 1 in
  let through =
    List.init
      (Stdlib.max 0 (t.dial_round - first + 1))
      (fun i ->
        let round = first + i in
        (round, archived_filter t ~round ~email:(Client.email client)))
  in
  Client.catch_up_dialing client ~through

let run_dialing_round t ?tracer ?participants () =
  let clients = match participants with Some l -> l | None -> t.clients in
  let round = t.dial_round + 1 in
  let clients = online_clients t ~phase:"dialing" ~round clients in
  (* A faulted client coming back online first replays the archived filters
     of the rounds it slept through (§5.1/§5.3) — before this round runs,
     so its keywheel is caught up and this round's tokens still reach it.
     Only under a fault schedule: plain [?participants] churn keeps the
     explicit [catch_up_client] contract. *)
  let recovered =
    if t.faults = None then []
    else
      List.concat_map
        (fun c -> List.map (fun ev -> (Client.email c, ev)) (catch_up_client t c))
        clients
  in
  t.dial_round <- round;
  let body ~after_begin =
    Tel.Span.with_ Tel.default "round.dialing" @@ fun () ->
    let num_shards = t.config.Config.dial_shards in
    (* Sharded mode (§5.1): the mailbox count must be at least the shard
       count so every shard covers a non-empty mailbox range. *)
    let num_mailboxes =
      Stdlib.max (num_dial_mailboxes t ~participants:(List.length clients)) num_shards
    in
    List.iter (fun c -> Client.advance_dialing c ~round) clients;
    let server_pks = t.backend.dial_chain.begin_round () in
    after_begin ();
    let batch =
      Tel.Span.with_ Tel.default "client.submit" @@ fun () ->
      List.map (fun c -> Client.dialing_submission_traced c ?tracer ~num_mailboxes ~server_pks ())
        clients
      |> Array.of_list
    in
    (* Express either grouping of the last hop uniformly: the archive entry
       (whose lookup is the filter a client downloads) and the per-download
       sizes. The dial tokens are byte-identical either way. *)
    let distribute payloads =
      if num_shards = 0 then begin
        let mailboxes, dropped = Mailbox.distribute ~num_mailboxes ~mode:`Dialing payloads in
        ( (Per_mailbox (Mailbox.filters_exn mailboxes, num_mailboxes), Mailbox.size_bytes mailboxes),
          dropped )
      end
      else begin
        let shard = Shard.create ~num_shards ~num_mailboxes in
        let shards, dropped = Mailbox.distribute_sharded ~shard ~mode:`Dialing payloads in
        ((Per_shard (Mailbox.filter_shards_exn shards, shard), Mailbox.sharded_size_bytes shards), dropped)
      end
    in
    let (archive_entry, sizes), noise_added, dropped, published =
      mix_round t t.backend.dial_chain ?tracer ~noise_mu:t.config.Config.dialing_noise_mu
        ~num_mailboxes ~mpk_agg:None ~distribute batch
    in
    (* archive this round's filters; erase rounds past the retention window.
       Only a completed round is archived — an aborted attempt never
       publishes, not even partially. *)
    Hashtbl.replace t.dial_archive round archive_entry;
    Hashtbl.remove t.dial_archive (round - t.config.Config.dial_archive_rounds);
    let calls =
      scan_all ?tracer ~published ~num_mailboxes clients ~client:Fun.id ~scan:(fun c ->
          Client.scan_dialing_mailbox c (archived_lookup archive_entry ~email:(Client.email c)))
    in
    advance_clock t ~seconds:t.config.Config.dialing_round_seconds;
    log_close ~phase:"dialing" ~round ~real_in:(Array.length batch) ~noise_added ~dropped;
    {
      dial_round = round;
      dial_attempts = 1;
      tokens_in = Array.length batch;
      dial_noise_added = noise_added;
      dial_dropped = dropped;
      dial_num_mailboxes = num_mailboxes;
      filter_bytes = sizes;
      calls;
    }
  in
  let stats, attempts =
    run_round t ~phase:"dialing" ~round ~chain:t.backend.dial_chain ~cleanup:ignore ?tracer clients
      body
  in
  { stats with dial_attempts = attempts; calls = recovered @ stats.calls }
