(* The in-process workloads. The untraced driver runs rounds through the
   public round engine ([Deployment]); the traced driver rebuilds the
   same deployment from the same seed and replays each round by calling
   the layers' public functions directly, with a span around every call. *)

module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Wire = Alpenhorn_core.Wire
module Params = Alpenhorn_pairing.Params
module Ibe = Alpenhorn_ibe.Ibe
module Pkg = Alpenhorn_pkg.Pkg
module Chain = Alpenhorn_mixnet.Chain
module Server = Alpenhorn_mixnet.Server
module Mailbox = Alpenhorn_mixnet.Mailbox
module Bloom = Alpenhorn_bloom.Bloom
module Drbg = Alpenhorn_crypto.Drbg
module Util = Alpenhorn_crypto.Util
module Parallel = Alpenhorn_parallel.Parallel

type phase = Addfriend | Dialing

(* What one round produced, from either driver. *)
type round = {
  events : string list;  (** canonical client events *)
  placed : Shape.placed list;
  real_in : int;
  noise_added : int;
  dropped : int;
  onions_in : int;  (** onions entering all hops together (replay only) *)
  out : int;  (** payloads leaving the last hop (replay only) *)
  sizes : int array;  (** download size of each mailbox *)
  loads : int array;  (** entries in each mailbox *)
}

(* ---- the round engine ---- *)

type engine = {
  e_shape : Shape.t;
  e_seed : int;
  d : Deployment.t;
  e_clients : Client.t array;
  e_log : Shape.log;
}

let must = function Ok v -> v | Error e -> failwith ("perfbench: " ^ Pkg.error_to_string e)

(* [twin] gives the deployment its own keys (the workload inputs stay
   those of [seed]): the traced driver runs it beside the replay, and
   shared keys would let one warm the process-wide pairing cache for the
   other. *)
let engine_setup ?(twin = false) (shape : Shape.t) ~seed =
  let dseed = Shape.deployment_seed shape ~seed ^ if twin then "-twin" else "" in
  let d = Deployment.create ~config:shape.config ~seed:dseed in
  let log = Shape.new_log () in
  let clients =
    Array.init shape.clients (fun i ->
        let email = Shape.email i in
        Deployment.new_client d ~email ~callbacks:(Shape.callbacks log ~self:email))
  in
  Array.iter (fun c -> must (Deployment.register d c)) clients;
  Shape.seed_friendships shape ~seed clients;
  { e_shape = shape; e_seed = seed; d; e_clients = clients; e_log = log }

(* Queue the round's application requests: not part of the round. *)
let prepare_engine e phase =
  match phase with
  | Addfriend ->
    let round = Deployment.addfriend_round_number e.d + 1 in
    Shape.queue_requests e.e_shape ~seed:e.e_seed ~round e.e_clients
  | Dialing ->
    let round = Deployment.dialing_round_number e.d + 1 in
    Shape.queue_calls e.e_shape ~seed:e.e_seed ~round e.e_clients

let engine_round e phase =
  match phase with
  | Addfriend ->
    let s = Deployment.run_addfriend_round e.d () in
    {
      events = Shape.canonical Shape.af_event_string s.Deployment.events;
      placed = [];
      real_in = s.Deployment.requests_in;
      noise_added = s.Deployment.noise_added;
      dropped = s.Deployment.dropped;
      onions_in = 0;
      out = 0;
      sizes = s.Deployment.mailbox_bytes;
      loads = [||];
    }
  | Dialing ->
    let s = Deployment.run_dialing_round e.d () in
    {
      events = Shape.canonical Shape.dial_event_string s.Deployment.calls;
      placed = Shape.take_placed e.e_log;
      real_in = s.Deployment.tokens_in;
      noise_added = s.Deployment.dial_noise_added;
      dropped = s.Deployment.dial_dropped;
      onions_in = 0;
      out = 0;
      sizes = s.Deployment.filter_bytes;
      loads = [||];
    }

let engine_round_number e = function
  | Addfriend -> Deployment.addfriend_round_number e.d
  | Dialing -> Deployment.dialing_round_number e.d

(* ---- the layer-by-layer replay ---- *)

(* The same deployment, rebuilt from its public parts along the DRBG
   derivation [Deployment] uses, so the replay draws the same randomness
   and delivers the same events. *)
type replay = {
  r_shape : Shape.t;
  r_seed : int;
  params : Params.t;
  rng : Drbg.t;
  pkgs : Pkg.t array;
  af_chain : Chain.t;
  dial_chain : Chain.t;
  r_clients : Client.t array;
  r_log : Shape.log;
  mutable clock : int;
  mutable af_round : int;
  mutable dial_round : int;
}

let replay_setup (shape : Shape.t) ~seed =
  let config = shape.config in
  let params = Config.params config in
  let rng = Drbg.create ~seed:("deployment" ^ Shape.deployment_seed shape ~seed) in
  let inbox = Hashtbl.create 64 in
  let pkgs =
    Array.init config.Config.n_pkgs (fun i ->
        Pkg.create params
          ~rng:(Drbg.derive rng (Printf.sprintf "pkg-%d" i))
          ~send_email:(fun ~to_ ~token -> Hashtbl.replace inbox (i, to_) token)
          ())
  in
  let chain label =
    Chain.create params ~rng:(Drbg.derive rng label) ~chain_length:config.Config.chain_length
  in
  let pkg_public_keys = Array.to_list (Array.map Pkg.long_term_public pkgs) in
  let log = Shape.new_log () in
  let clients =
    Array.init shape.clients (fun i ->
        let email = Shape.email i in
        Client.create ~config ~rng:(Drbg.derive rng ("client-" ^ email)) ~email ~pkg_public_keys
          ~callbacks:(Shape.callbacks log ~self:email))
  in
  Array.iter
    (fun c ->
      let email = Client.email c in
      Array.iteri
        (fun i pkg ->
          must (Pkg.register pkg ~now:0 ~email ~pk:(Client.signing_public c));
          let token = Option.value ~default:"" (Hashtbl.find_opt inbox (i, email)) in
          must (Pkg.confirm pkg ~now:0 ~email ~token))
        pkgs)
    clients;
  Shape.seed_friendships shape ~seed clients;
  {
    r_shape = shape;
    r_seed = seed;
    params;
    rng;
    pkgs;
    af_chain = chain "af-chain";
    dial_chain = chain "dial-chain";
    r_clients = clients;
    r_log = log;
    clock = 0;
    af_round = 0;
    dial_round = 0;
  }

let prepare_replay r phase =
  match phase with
  | Addfriend -> Shape.queue_requests r.r_shape ~seed:r.r_seed ~round:(r.af_round + 1) r.r_clients
  | Dialing -> Shape.queue_calls r.r_shape ~seed:r.r_seed ~round:(r.dial_round + 1) r.r_clients

(* The hops of a chain, one span per position ([layer] ^ position); hop
   [i] gets the batch and the round keys of the servers after it. Returns
   the last hop's output, the noise added and the onions that entered the
   hops together. *)
let hops sp ~layer ~server_pks hop batch =
  let pks = Array.of_list server_pks in
  let n = Array.length pks in
  let noise = ref 0 and onions_in = ref 0 and current = ref batch in
  for i = 0 to n - 1 do
    onions_in := !onions_in + Array.length !current;
    let downstream_pks = Array.to_list (Array.sub pks (i + 1) (n - i - 1)) in
    let out, k =
      Probe.span sp (Printf.sprintf "%s%d" layer i) (fun () -> hop i ~downstream_pks !current)
    in
    noise := !noise + k;
    current := out
  done;
  (!current, !noise, !onions_in)

(* The in-process chain: [Server.process] at each position, then erasure
   of the round keys. *)
let mix sp r chain ~noise_mu ~noise_body ~num_mailboxes ~server_pks batch =
  if Parallel.size (Parallel.get ()) > 1 then Params.force_tables r.params;
  let servers = Chain.servers chain in
  let laplace_b = r.r_shape.Shape.config.Config.laplace_b in
  let result =
    hops sp ~layer:"mixnet.hop" ~server_pks
      (fun i ~downstream_pks b ->
        Server.process servers.(i) ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes ~noise_body b)
      batch
  in
  Probe.span sp "mixnet.end_round" (fun () -> Array.iter Server.end_round servers);
  result

(* One dialing round from the clients' side, around a chain reached
   through [begin_round] (the round keys) and [mix] (every hop): the
   in-process and the wire replays differ only in those two. *)
let dialing_round sp (shape : Shape.t) clients log ~round ~begin_round ~mix =
  let num_mailboxes =
    Shape.num_mailboxes shape ~noise_mu:shape.Shape.config.Config.dialing_noise_mu
  in
  Probe.span sp "client.dial_advance" (fun () ->
      Array.iter (fun c -> Client.advance_dialing c ~round) clients);
  let server_pks = Probe.span sp "mixnet.begin_round" begin_round in
  let batch =
    Probe.span sp "client.dial_submit" (fun () ->
        Array.map (fun c -> Client.dialing_submission c ~num_mailboxes ~server_pks) clients)
  in
  let final, noise_added, onions_in = mix ~num_mailboxes ~server_pks batch in
  let mailboxes, dropped =
    Probe.span sp "mailbox.distribute" (fun () ->
        Mailbox.distribute ~num_mailboxes ~mode:`Dialing final)
  in
  let filters = Mailbox.filters_exn mailboxes in
  let events =
    Probe.span sp "client.dial_scan" (fun () ->
        List.concat_map
          (fun c ->
            let mb = Mailbox.mailbox_of_identity (Client.email c) ~num_mailboxes in
            List.map (fun ev -> (Client.email c, ev)) (Client.scan_dialing_mailbox c filters.(mb)))
          (Array.to_list clients))
  in
  {
    events = Shape.canonical Shape.dial_event_string events;
    placed = Shape.take_placed log;
    real_in = Array.length batch;
    noise_added;
    dropped;
    onions_in;
    out = Array.length final;
    sizes = Mailbox.size_bytes mailboxes;
    loads = Array.map Bloom.count filters;
  }

let replay_addfriend sp r =
  let config = r.r_shape.Shape.config in
  let params = r.params in
  let round = r.af_round + 1 in
  r.af_round <- round;
  let clients = Array.to_list r.r_clients in
  let mpk_agg =
    Probe.span sp "pkg.rotate" (fun () ->
        let commitments = Array.map (fun pkg -> Pkg.begin_round pkg ~round) r.pkgs in
        let mpks =
          Array.mapi
            (fun i pkg ->
              let mpk, opening = must (Pkg.reveal_round pkg ~round) in
              if not (Pkg.verify_commitment params ~commitment:commitments.(i) ~mpk ~opening) then
                failwith "perfbench: PKG commitment mismatch";
              mpk)
            r.pkgs
        in
        Ibe.aggregate_public params (Array.to_list mpks))
  in
  let noise_mu = config.Config.addfriend_noise_mu in
  let num_mailboxes = Shape.num_mailboxes r.r_shape ~noise_mu in
  let server_pks = Probe.span sp "mixnet.begin_round" (fun () -> Chain.begin_round r.af_chain) in
  let contexts =
    Probe.span sp "pkg.extract" (fun () ->
        Client.begin_addfriend_round_batch clients ~round ~now:r.clock ~pkgs:r.pkgs
        |> List.map (fun (c, res) -> (c, must res)))
  in
  let batch =
    Probe.span sp "client.af_submit" (fun () ->
        Array.of_list
          (List.map
             (fun (c, ctx) -> Client.addfriend_submission c ctx ~mpk_agg ~num_mailboxes ~server_pks)
             contexts))
  in
  (* faithful noise, drawn exactly as the round engine draws it (§4.3) *)
  let noise_body ~mailbox:_ =
    let id = "noise-" ^ Util.to_hex (Drbg.bytes r.rng 8) in
    let body = Drbg.bytes r.rng (Wire.request_plaintext_size params) in
    Ibe.encrypt params r.rng mpk_agg ~id body
  in
  let final, noise_added, onions_in =
    mix sp r r.af_chain ~noise_mu ~noise_body ~num_mailboxes ~server_pks batch
  in
  let mailboxes, dropped =
    Probe.span sp "mailbox.distribute" (fun () ->
        Mailbox.distribute ~num_mailboxes ~mode:`AddFriend final)
  in
  let buckets = Mailbox.plain_exn mailboxes in
  let events =
    Probe.span sp "client.af_scan" (fun () ->
        List.concat_map
          (fun (c, ctx) ->
            let mb = Mailbox.mailbox_of_identity (Client.email c) ~num_mailboxes in
            List.map
              (fun ev -> (Client.email c, ev))
              (Client.scan_addfriend_mailbox c ctx buckets.(mb)))
          contexts)
  in
  Probe.span sp "pkg.rotate" (fun () -> Array.iter (fun pkg -> Pkg.end_round pkg ~round) r.pkgs);
  r.clock <- r.clock + config.Config.addfriend_round_seconds;
  {
    events = Shape.canonical Shape.af_event_string events;
    placed = [];
    real_in = Array.length batch;
    noise_added;
    dropped;
    onions_in;
    out = Array.length final;
    sizes = Mailbox.size_bytes mailboxes;
    loads = Array.map List.length buckets;
  }

let replay_dialing sp r =
  let round = r.dial_round + 1 in
  r.dial_round <- round;
  let noise_mu = r.r_shape.Shape.config.Config.dialing_noise_mu in
  let noise_body ~mailbox:_ = Drbg.bytes r.rng Wire.dial_token_size in
  dialing_round sp r.r_shape r.r_clients r.r_log ~round
    ~begin_round:(fun () -> Chain.begin_round r.dial_chain)
    ~mix:(mix sp r r.dial_chain ~noise_mu ~noise_body)

let replay_round sp r = function
  | Addfriend -> replay_addfriend sp r
  | Dialing -> replay_dialing sp r
