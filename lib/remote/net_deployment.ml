(* The RPC backend of the round engine: [Alpenhorn_core.Deployment] runs
   the rounds; this module reaches the PKGs and mixnet servers over framed
   TCP RPC instead of function calls, keeps the connection cache, and kills
   and respawns mixer processes for the fault schedule.

   Determinism: server processes derive their DRBGs along the paths the
   in-process backend uses ([Servers]) and the engine derives clients from
   the same seed, so both deployments produce the same client-visible
   results (events and session keys). Wire-level bytes (noise, round keys
   after a process respawn) legitimately differ.

   Faults: a crash entry SIGKILLs the mixer (via the harness's [kill]
   callback) and recovery respawns it ([restart]). The anytrust abort is
   detected as a transport failure: a dead mixer fails the pre-processing
   ping (as [Chain.mix] checks every server before the first hop, so no
   mixer processes a batch on an aborted attempt) or a mid-pipeline call. *)

module Params = Alpenhorn_pairing.Params
module Ibe = Alpenhorn_ibe.Ibe
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Chain = Alpenhorn_mixnet.Chain
module Pkg = Alpenhorn_pkg.Pkg
module Rpc = Alpenhorn_net.Rpc
module Events = Alpenhorn_telemetry.Events
module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace

type endpoint = { host : string; port : int }

type mixer = {
  mutable ep : endpoint;
  kill : unit -> unit;
  restart : unit -> endpoint;
}

type t = Deployment.t

type state = {
  params : Params.t;
  conns : (string, Rpc.Client.t) Hashtbl.t;
  call_timeout : float;
  mixers : mixer array;
  killed : bool array;
  mutable trace : (Trace.t * Trace.ctx) option; (* the round in flight *)
}

(* ---- cross-process trace propagation (DESIGN.md §14) ----

   The orchestrator's tracer mints every span id in the fleet. Each RPC
   under a traced round gets two child contexts: [call_ctx] names the
   client-side "rpc.call" span, and [wire_ctx] (its child) rides the
   frame envelope to the server, which emits its handler span under that
   identity verbatim. Merged fleet snapshots therefore stitch
   client → server spans into one timeline with correct parentage.
   Contexts never touch protocol payloads — only the RPC envelope — so
   onions and mailbox entries stay byte-identical (§9 invariant). *)

let traced_rpc st ~peer c f =
  match st.trace with
  | Some (tr, ctx) ->
    let call_ctx = Trace.child tr ctx in
    Rpc.Client.set_trace c (Some (Trace.labels_of (Trace.child tr call_ctx)));
    let reg = Trace.registry tr in
    let t0 = Tel.now reg in
    Fun.protect
      ~finally:(fun () ->
        Trace.emit tr call_ctx ~labels:[ ("peer", peer) ] ~name:"rpc.call" ~ts:t0
          ~dur:(Tel.now reg -. t0) ())
      (fun () -> f c)
  | None -> f c

(* The per-round root span: sample one context for the whole round
   (retries included) and run [f] under it as "net.round". *)
let with_round st tracer ~phase ~round f =
  match Option.bind tracer Trace.sample with
  | None -> f ()
  | Some ctx ->
    let tr = Option.get tracer in
    st.trace <- Some (tr, ctx);
    Fun.protect
      ~finally:(fun () -> st.trace <- None)
      (fun () ->
        Trace.with_ tr ctx ~labels:[ ("phase", phase); ("round", string_of_int round) ] "net.round" f)

(* ---- connection cache ---- *)

let ep_key ep = Printf.sprintf "%s:%d" ep.host ep.port

let drop_conn st ep =
  let key = ep_key ep in
  Option.iter
    (fun conn ->
      Rpc.Client.close conn;
      Hashtbl.remove st.conns key)
    (Hashtbl.find_opt st.conns key)

let conn st ep =
  let key = ep_key ep in
  match Hashtbl.find_opt st.conns key with
  | Some c -> Ok c
  | None ->
    Result.map
      (fun c ->
        Hashtbl.replace st.conns key c;
        c)
      (Rpc.Client.connect ~timeout:st.call_timeout ~host:ep.host ~port:ep.port ())

let close_all st =
  Hashtbl.iter (fun _ c -> Rpc.Client.close c) st.conns;
  Hashtbl.reset st.conns

(* One RPC to [ep]; a transport failure drops the cached connection and
   is handed to [fail]. *)
let call st ep ~peer ~fail f =
  match conn st ep with
  | Error m ->
    drop_conn st ep;
    fail m
  | Ok c -> (
    match traced_rpc st ~peer c f with
    | Ok v -> v
    | Error m ->
      drop_conn st ep;
      fail m)

(* ---- PKGs: trusted infrastructure in this harness (the fault grammar
   targets mixers and clients); a PKG transport failure is fatal ---- *)

let rpc_pkg st i ep =
  let call f =
    call st ep ~peer:(Printf.sprintf "pkg-%d" i)
      ~fail:(fun m -> failwith (Printf.sprintf "pkg %d: %s" i m))
      f
  in
  let params = st.params in
  {
    Deployment.public_key = (fun () -> call (Proto.pkg_info ~params));
    register = (fun ~now ~email ~pk -> call (Proto.pkg_register ~params ~now ~email ~pk));
    confirmation_token =
      (fun ~email -> match call (Proto.pkg_inbox ~email) with tok :: _ -> Some tok | [] -> None);
    confirm = (fun ~now ~email ~token -> call (Proto.pkg_confirm ~now ~email ~token));
    commit = (fun ~round -> call (Proto.pkg_begin_round ~round));
    reveal = (fun ~round -> call (Proto.pkg_reveal ~params ~round));
    extract_batch =
      (fun ~now ~round requests ->
        Array.map
          (fun (email, signature) -> call (Proto.pkg_extract ~params ~now ~round ~email ~signature))
          requests);
    end_round = (fun ~round -> call (Proto.pkg_end_round ~round));
  }

(* ---- mixers: a transport failure is the anytrust abort signal ---- *)

let mixer_call st i f =
  call st st.mixers.(i).ep ~peer:(Printf.sprintf "mixer-%d" i)
    ~fail:(fun _ -> raise (Chain.Aborted { server = i }))
    f

(* Mixer [i] serves position [i] of both chains, so a kill or respawn
   through either chain is seen by both. *)
let kill_mixer st s =
  if not st.killed.(s) then begin
    drop_conn st st.mixers.(s).ep;
    st.mixers.(s).kill ();
    st.killed.(s) <- true;
    Events.log Events.default ~severity:Warn
      ~labels:[ ("server", string_of_int s) ]
      ~detail:"mixer process killed by fault schedule" "net.mixer_killed"
  end

let restart_killed st =
  Array.iteri
    (fun s killed ->
      if killed then begin
        st.mixers.(s).ep <- st.mixers.(s).restart ();
        st.killed.(s) <- false;
        Events.log Events.default
          ~labels:[ ("server", string_of_int s) ]
          ~detail:(Printf.sprintf "mixer respawned on port %d" st.mixers.(s).ep.port)
          "net.mixer_restarted"
      end)
    st.killed

let rpc_chain st ~faithful_noise chain =
  let n = Array.length st.mixers in
  let params = st.params in
  let pks = ref [||] in
  let begin_round () =
    pks := Array.init n (fun i -> mixer_call st i (Proto.mix_new_round ~params ~chain));
    Array.to_list !pks
  in
  (* up-front liveness check, then one [process] RPC per hop threading the
     batch, then key erasure everywhere *)
  let mix ~noise_mu ~laplace_b ~num_mailboxes ~mpk_agg ~tracer:_ batch =
    for i = 0 to n - 1 do
      if st.killed.(i) then raise (Chain.Aborted { server = i });
      mixer_call st i Proto.mix_ping
    done;
    let mpk_agg =
      match mpk_agg with
      | Some mpk when faithful_noise -> Ibe.master_public_bytes params mpk
      | Some _ | None -> ""
    in
    let total_noise = ref 0 in
    let current = ref (Array.map fst batch) in
    for i = 0 to n - 1 do
      let downstream_pks = Array.to_list (Array.sub !pks (i + 1) (n - i - 1)) in
      let out, noise =
        mixer_call st i
          (Proto.mix_process ~params ~chain ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes
             ~mpk_agg ~batch:!current)
      in
      total_noise := !total_noise + noise;
      current := out
    done;
    for i = 0 to n - 1 do
      mixer_call st i (Proto.mix_end_round ~chain)
    done;
    (Array.map (fun p -> (p, None)) !current, !total_noise)
  in
  (* a killed process lost its round key with the process — the same
     forward-secrecy outcome [Chain.abort_round] forces *)
  let erase () =
    for i = 0 to n - 1 do
      if not st.killed.(i) then
        try mixer_call st i (Proto.mix_end_round ~chain) with Chain.Aborted _ -> ()
    done
  in
  {
    Deployment.begin_round;
    mix;
    erase;
    crash = (fun ~server -> kill_mixer st server);
    restart = (fun () -> restart_killed st);
  }

let create ?(call_timeout = 10.0) ~config ~seed ~pkgs ~mixers () =
  if Array.length pkgs <> config.Config.n_pkgs then
    invalid_arg "Net_deployment.create: pkg endpoint count <> n_pkgs";
  if Array.length mixers <> config.Config.chain_length then
    invalid_arg "Net_deployment.create: mixer count <> chain_length";
  let st =
    {
      params = Config.params config;
      conns = Hashtbl.create 8;
      call_timeout;
      mixers;
      killed = Array.make (Array.length mixers) false;
      trace = None;
    }
  in
  let faithful_noise = config.Config.faithful_noise in
  Deployment.of_backend ~config ~seed
    {
      Deployment.pkg_ops = Array.mapi (rpc_pkg st) pkgs;
      af_chain = rpc_chain st ~faithful_noise Proto.Af;
      dial_chain = rpc_chain st ~faithful_noise Proto.Dial;
      with_round = (fun tracer ~phase ~round f -> with_round st tracer ~phase ~round f);
      close = (fun () -> close_all st);
    }

let close = Deployment.close
let new_client = Deployment.new_client
let register = Deployment.register
let pkg_public_keys = Deployment.pkg_public_keys
let run_dialing_round = Deployment.run_dialing_round
let dialing_round_number = Deployment.dialing_round_number
