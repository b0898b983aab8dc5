(* Workload shapes and schedules. Every input is derived from the
   workload seed; the program only ever sees the generated clients,
   friendships, friend requests and calls. *)

module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Keywheel = Alpenhorn_keywheel.Keywheel
module Curve = Alpenhorn_pairing.Curve
module Sha256 = Alpenhorn_crypto.Sha256
module Drbg = Alpenhorn_crypto.Drbg
module Util = Alpenhorn_crypto.Util

type t = {
  name : string;
  clients : int;
  half_friends : int;  (** client i befriends i±1 .. i±half_friends (dialing) *)
  config : Config.t;
}

(* The paper's §8.1 shape (production curve, 3 PKGs, b = 0, 10 intents,
   5% active) with the noise scaled down so that a round takes seconds. *)
let config ~chain_length ~af_noise ~dial_noise =
  {
    Config.paper with
    Config.chain_length;
    addfriend_noise_mu = af_noise;
    dialing_noise_mu = dial_noise;
    (* the retention window only serves offline clients; keeping it short
       keeps the heap flat over a run of any length *)
    dial_archive_rounds = 2;
  }

let addfriend =
  {
    name = "addfriend";
    clients = 32;
    half_friends = 0;
    config = config ~chain_length:3 ~af_noise:1.0 ~dial_noise:1.0;
  }

let dialing =
  {
    name = "dialing";
    clients = 96;
    half_friends = 47;
    config = config ~chain_length:3 ~af_noise:1.0 ~dial_noise:50.0;
  }

(* Over loopback the mixer chain is no longer than the host's two cores,
   so a timed round never holds more busy connections than cores. *)
let wire =
  {
    name = "wire";
    clients = 32;
    half_friends = 15;
    config = config ~chain_length:2 ~af_noise:1.0 ~dial_noise:50.0;
  }

let scale_clients = 1_000_000

let email i = Printf.sprintf "u%04d@bench.example" i
let deployment_seed shape ~seed = Printf.sprintf "perfbench-%s-%d" shape.name seed

(* Clients that act each round: 5% of the population, at least one. *)
let active shape =
  Stdlib.max 1
    (int_of_float (Float.round (float_of_int shape.clients *. shape.config.Config.active_fraction)))

(* The §6 mailbox count for a round in which every client takes part,
   worked out as the round engines work it out. *)
let num_mailboxes shape ~noise_mu =
  let expected_real =
    int_of_float (Float.round (float_of_int shape.clients *. shape.config.Config.active_fraction))
  in
  Alpenhorn_mixnet.Mailbox.num_mailboxes_for ~expected_real ~noise_mu
    ~chain_length:shape.config.Config.chain_length

(* ---- what the clients report back ---- *)

type placed = { caller : string; callee : string; intent : int; key : string }
type log = { mutable placed : placed list }

let new_log () = { placed = [] }

let callbacks log ~self =
  {
    Client.null_callbacks with
    Client.call_placed =
      (fun ~email ~intent ~session_key ->
        log.placed <- { caller = self; callee = email; intent; key = session_key } :: log.placed);
  }

let take_placed log =
  let l = List.rev log.placed in
  log.placed <- [];
  l

let af_event_string (who, ev) =
  who ^ "<-"
  ^
  match ev with
  | Client.Friend_request_accepted e -> "accepted:" ^ e
  | Client.Friend_request_rejected e -> "rejected:" ^ e
  | Client.Friend_request_key_mismatch e -> "key-mismatch:" ^ e
  | Client.Friend_confirmed e -> "confirmed:" ^ e

let dial_event_string (who, Client.Incoming_call { peer; intent; session_key }) =
  Printf.sprintf "%s<-call:%s:%d:%s" who peer intent (Util.to_hex session_key)

let canonical f events = List.sort String.compare (List.map f events)

(* ---- dialing: friendships and calls ---- *)

(* Both ends of a friendship get the same keywheel secret, drawn from the
   workload seed, through the client's public keywheel. *)
let seed_friendships shape ~seed (clients : Client.t array) =
  let n = Array.length clients in
  for i = 0 to n - 1 do
    for d = 1 to shape.half_friends do
      let j = (i + d) mod n in
      let secret = Sha256.digest (Printf.sprintf "perfbench-friend|%d|%d|%d" seed i j) in
      Keywheel.add_friend (Client.keywheel clients.(i)) ~email:(email j) ~secret ~round:0;
      Keywheel.add_friend (Client.keywheel clients.(j)) ~email:(email i) ~secret ~round:0
    done
  done

(* The calls of dialing round [round]: [active] distinct callers, each
   calling one friend with one intent. *)
let calls shape ~seed ~round =
  let n = shape.clients in
  let rng = Drbg.create ~seed:(Printf.sprintf "perfbench-calls|%d|%d" seed round) in
  let order = Array.init n Fun.id in
  Drbg.shuffle rng order;
  List.init (active shape) (fun k ->
      let caller = order.(k) in
      let d = 1 + Drbg.int rng shape.half_friends in
      let callee = if Drbg.int rng 2 = 0 then (caller + d) mod n else (caller - d + n) mod n in
      (caller, callee, Drbg.int rng shape.config.Config.max_intents))

let queue_calls shape ~seed ~round (clients : Client.t array) =
  List.iter
    (fun (caller, callee, intent) -> Client.call clients.(caller) ~email:(email callee) ~intent)
    (calls shape ~seed ~round)

(* Every placed call must reach its callee, in the same round, with the
   caller's session key. [events] are canonical event strings. Returns
   (attempted, failed). *)
let check_calls shape ~seed ~round ~placed ~events =
  let scheduled = calls shape ~seed ~round in
  let arrived (caller, callee, intent) =
    match
      List.find_opt
        (fun p -> p.caller = email caller && p.callee = email callee && p.intent = intent)
        placed
    with
    | None -> false
    | Some p ->
      List.mem
        (dial_event_string
           (p.callee, Client.Incoming_call { peer = p.caller; intent; session_key = p.key }))
        events
  in
  (List.length scheduled, List.length (List.filter (fun c -> not (arrived c)) scheduled))

(* Incoming calls that match no placed call: Bloom-filter false positives
   (§5.2). Which probes hit depends on the noise tokens' bytes, so two
   drivers whose noise bytes differ (the wire mixers draw noise from
   their own streams) disagree on these events and only these. The
   filter's measured false-positive rate is far above its 1e-10 target;
   see perfbench/NOTES.md. *)
let spurious_calls ~placed events =
  let expected =
    List.map
      (fun p ->
        dial_event_string
          ( p.callee,
            Client.Incoming_call { peer = p.caller; intent = p.intent; session_key = p.key } ))
      placed
  in
  let is_call e =
    match String.index_opt e '<' with
    | Some i -> i + 7 <= String.length e && String.sub e i 7 = "<-call:"
    | None -> false
  in
  List.filter (fun e -> is_call e && not (List.mem e expected)) events

(* ---- add-friend: requests to fresh peers ---- *)

(* A fixed set of senders (the first [active] clients); each round every
   sender befriends a fresh peer drawn from a seeded order of the other
   clients. The recipients confirm the following round, so after the
   first round each round carries [active] requests and [active]
   confirmations. *)
let max_af_rounds shape = (shape.clients - active shape) / active shape

let requests shape ~seed ~round =
  let k = active shape in
  let peers = Array.init (shape.clients - k) (fun i -> i + k) in
  Drbg.shuffle (Drbg.create ~seed:(Printf.sprintf "perfbench-peers|%d" seed)) peers;
  List.init k (fun s -> (s, peers.((((round - 1) * k) + s) mod Array.length peers)))

let queue_requests shape ~seed ~round (clients : Client.t array) =
  List.iter
    (fun (s, p) -> Client.add_friend clients.(s) ~email:(email p) ())
    (requests shape ~seed ~round)

(* A request sent in [round] is complete when the recipient accepted it
   that round, the sender saw the confirmation the next round, and each
   end pinned the other's long-term key. Returns (attempted, failed). *)
let check_requests shape ~seed ~round ~events_sent ~events_next (clients : Client.t array) =
  let has evs e = List.mem e evs in
  let failed =
    List.length
      (List.filter
         (fun (s, p) ->
           let cs = clients.(s) and cp = clients.(p) in
           let pinned c ~peer ~of_ =
             match Client.pinned_key c ~email:(email peer) with
             | Some k -> Curve.equal k (Client.signing_public of_)
             | None -> false
           in
           not
             (has events_sent (email p ^ "<-accepted:" ^ email s)
             && has events_next (email s ^ "<-confirmed:" ^ email p)
             && Client.is_friend cs ~email:(email p)
             && Client.is_friend cp ~email:(email s)
             && pinned cs ~peer:p ~of_:cp && pinned cp ~peer:s ~of_:cs))
         (requests shape ~seed ~round))
  in
  (active shape, failed)
