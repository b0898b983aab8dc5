(* The wire workload: the dialing schedule over loopback, with the PKGs and
   mixers as separate server processes of this executable. The untraced
   driver runs [Net_deployment] rounds; the traced driver replays a round
   by calling [Proto] over its own connections to the same servers. *)

module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Net_deployment = Alpenhorn_remote.Net_deployment
module Servers = Alpenhorn_remote.Servers
module Proto = Alpenhorn_remote.Proto
module Rpc = Alpenhorn_net.Rpc
module Drbg = Alpenhorn_crypto.Drbg
module Parallel = Alpenhorn_parallel.Parallel

let shape = Shape.wire
let config = shape.Shape.config

(* ---- server processes ---- *)

(* Child mode: one PKG or mixer on an ephemeral port, on a one-domain
   pool. Its stdin is a pipe from the parent; end of file there (the
   parent closed it or died) stops the server. *)
let serve ~role ~seed ~index =
  Parallel.set_default_size 1;
  let handler =
    match role with
    | "pkg" -> Servers.Pkg_server.handler (Servers.Pkg_server.create ~config ~seed ~index)
    | "mixer" ->
      Servers.Mixer_server.handler (Servers.Mixer_server.create ~config ~seed ~position:index)
    | r -> invalid_arg ("perfbench serve: unknown role " ^ r)
  in
  let server = Rpc.Server.create ~port:0 handler in
  let watcher =
    Domain.spawn (fun () ->
        (try ignore (In_channel.input_all stdin) with Sys_error _ -> ());
        Rpc.Server.stop server)
  in
  Printf.printf "READY port=%d\n%!" (Rpc.Server.port server);
  Rpc.Server.run server;
  Domain.join watcher

type child = { pid : int; stdin_w : Unix.file_descr; port : int }

let live : child list ref = ref []

let stop_child c =
  if List.memq c !live then begin
    live := List.filter (fun x -> x != c) !live;
    (try Unix.close c.stdin_w with Unix.Unix_error _ -> ());
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ()
  end

let () = at_exit (fun () -> List.iter stop_child !live)

let spawn ~role ~seed ~index =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let argv =
    [| Sys.executable_name; "serve"; role; "--seed"; seed; "--index"; string_of_int index |]
  in
  let pid = Unix.create_process Sys.executable_name argv in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  let port =
    Fun.protect
      ~finally:(fun () -> close_in_noerr out)
      (fun () ->
        match In_channel.input_line out with
        | Some line -> Scanf.sscanf_opt line "READY port=%d" Fun.id
        | None -> None)
  in
  match port with
  | Some port ->
    let c = { pid; stdin_w = in_w; port } in
    live := c :: !live;
    c
  | None ->
    Unix.close in_w;
    ignore (Unix.waitpid [] pid);
    failwith (Printf.sprintf "perfbench: %s %d exited before READY" role index)

let endpoint c = { Net_deployment.host = "127.0.0.1"; port = c.port }

(* ---- the networked deployment ---- *)

type world = {
  seed : int;
  children : child list;
  mixer_ports : int array;
  nd : Net_deployment.t;
  clients : Client.t array;
  log : Shape.log;
}

let setup ~seed =
  let dseed = Shape.deployment_seed shape ~seed in
  let pkgs = Array.init config.Config.n_pkgs (fun i -> spawn ~role:"pkg" ~seed:dseed ~index:i) in
  let mixers =
    Array.init config.Config.chain_length (fun i -> spawn ~role:"mixer" ~seed:dseed ~index:i)
  in
  let nd =
    Net_deployment.create ~config ~seed:dseed ~pkgs:(Array.map endpoint pkgs)
      ~mixers:
        (Array.map
           (fun c ->
             {
               Net_deployment.ep = endpoint c;
               kill = (fun () -> stop_child c);
               restart = (fun () -> failwith "perfbench: no mixer restarts in this workload");
             })
           mixers)
      ()
  in
  let log = Shape.new_log () in
  let clients =
    Array.init shape.Shape.clients (fun i ->
        let email = Shape.email i in
        Net_deployment.new_client nd ~email ~callbacks:(Shape.callbacks log ~self:email))
  in
  Array.iter
    (fun c ->
      match Net_deployment.register nd c with
      | Ok () -> ()
      | Error e -> failwith ("perfbench: " ^ Alpenhorn_pkg.Pkg.error_to_string e))
    clients;
  Shape.seed_friendships shape ~seed clients;
  {
    seed;
    children = Array.to_list pkgs @ Array.to_list mixers;
    mixer_ports = Array.map (fun c -> c.port) mixers;
    nd;
    clients;
    log;
  }

let teardown w =
  Net_deployment.close w.nd;
  List.iter stop_child w.children

let prepare w =
  Shape.queue_calls shape ~seed:w.seed
    ~round:(Net_deployment.dialing_round_number w.nd + 1)
    w.clients

(* One round through the networked round engine. *)
let engine_round w =
  let s = Net_deployment.run_dialing_round w.nd () in
  {
    Inproc.events = Shape.canonical Shape.dial_event_string s.Deployment.calls;
    placed = Shape.take_placed w.log;
    real_in = s.Deployment.tokens_in;
    noise_added = s.Deployment.dial_noise_added;
    dropped = s.Deployment.dial_dropped;
    onions_in = 0;
    out = 0;
    sizes = s.Deployment.filter_bytes;
    loads = [||];
  }

(* ---- the traced replay over Proto ---- *)

type replay = {
  r_seed : int;
  params : Alpenhorn_pairing.Params.t;
  conns : Rpc.Client.t array;
  r_clients : Client.t array;
  r_log : Shape.log;
  mutable round : int;
  mutable calls : int;  (** RPCs made *)
  mutable errors : int;  (** RPCs that failed *)
  mutable bytes : int;  (** onion bytes sent and received by [process] calls *)
}

(* Clients derived exactly as the engine derives them; dialing needs no
   PKG, so they are not registered a second time. *)
let replay_setup w =
  let params = Config.params config in
  let rng = Drbg.create ~seed:("deployment" ^ Shape.deployment_seed shape ~seed:w.seed) in
  let pkg_public_keys = Net_deployment.pkg_public_keys w.nd in
  let log = Shape.new_log () in
  let clients =
    Array.init shape.Shape.clients (fun i ->
        let email = Shape.email i in
        Client.create ~config ~rng:(Drbg.derive rng ("client-" ^ email)) ~email ~pkg_public_keys
          ~callbacks:(Shape.callbacks log ~self:email))
  in
  Shape.seed_friendships shape ~seed:w.seed clients;
  let conns =
    Array.map
      (fun port ->
        match Rpc.Client.connect ~host:"127.0.0.1" ~port () with
        | Ok c -> c
        | Error e -> failwith ("perfbench: connect: " ^ e))
      w.mixer_ports
  in
  {
    r_seed = w.seed;
    params;
    conns;
    r_clients = clients;
    r_log = log;
    round = 0;
    calls = 0;
    errors = 0;
    bytes = 0;
  }

let replay_close r = Array.iter Rpc.Client.close r.conns

let prepare_replay r = Shape.queue_calls shape ~seed:r.r_seed ~round:(r.round + 1) r.r_clients

let rpc r f =
  r.calls <- r.calls + 1;
  match f () with
  | Ok v -> v
  | Error e ->
    r.errors <- r.errors + 1;
    failwith ("perfbench: rpc: " ^ e)

let batch_bytes b = Array.fold_left (fun acc s -> acc + String.length s) 0 b

let replay_round sp r =
  let round = r.round + 1 in
  r.round <- round;
  let mix ~num_mailboxes ~server_pks batch =
    let result =
      Inproc.hops sp ~layer:"rpc.hop" ~server_pks
        (fun i ~downstream_pks b ->
          let out, noise =
            rpc r (fun () ->
                Proto.mix_process r.conns.(i) ~params:r.params ~chain:Proto.Dial ~downstream_pks
                  ~noise_mu:config.Config.dialing_noise_mu ~laplace_b:config.Config.laplace_b
                  ~num_mailboxes ~mpk_agg:"" ~batch:b)
          in
          r.bytes <- r.bytes + batch_bytes b + batch_bytes out;
          (out, noise))
        batch
    in
    Probe.span sp "mixnet.end_round" (fun () ->
        Array.iter (fun c -> rpc r (fun () -> Proto.mix_end_round c ~chain:Proto.Dial)) r.conns);
    result
  in
  Inproc.dialing_round sp shape r.r_clients r.r_log ~round
    ~begin_round:(fun () ->
      Array.to_list
        (Array.map
           (fun c -> rpc r (fun () -> Proto.mix_new_round c ~params:r.params ~chain:Proto.Dial))
           r.conns))
    ~mix
