module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Dh = Alpenhorn_dh.Dh
module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace

module Events = Alpenhorn_telemetry.Events
module Parallel = Alpenhorn_parallel.Parallel

type t = { params : Params.t; servers : Server.t array }

type stats = { real_in : int; noise_added : int; dropped : int; num_mailboxes : int }

exception Aborted of { server : int }

let create params ~rng ~chain_length =
  if chain_length < 1 then invalid_arg "Chain.create: length";
  let servers =
    Array.init chain_length (fun i ->
        Server.create params
          ~rng:(Drbg.derive rng (Printf.sprintf "mix-server-%d" i))
          ~position:i ~chain_length)
  in
  { params; servers }

let chain_length t = Array.length t.servers
let servers t = t.servers

let check_server t ~server =
  if server < 0 || server >= Array.length t.servers then invalid_arg "Chain: server index"

let crash_server t ~server =
  check_server t ~server;
  Server.crash t.servers.(server)

let restart_server t ~server =
  check_server t ~server;
  Server.restart t.servers.(server)

let server_down t ~server =
  check_server t ~server;
  Server.is_down t.servers.(server)

let abort_round t = Array.iter Server.end_round t.servers

let begin_round t = Array.to_list (Array.map Server.new_round t.servers)

let round_pks t =
  Array.to_list t.servers
  |> List.map (fun s ->
         match Server.round_public s with
         | Some pk -> pk
         | None -> invalid_arg "Chain.round_pks: round not started")

(* The mix pipeline: abort checks, the per-hop unwrap/noise/shuffle passes
   and key erasure. Each payload keeps its out-of-band trace context. *)
let mix t ~noise_mu ~laplace_b ~num_mailboxes ~noise_body ?tracer batch =
  let n = Array.length t.servers in
  (* Anytrust: one dead server kills the round. Abort cleanly — every
     per-round key is erased, nothing reaches a mailbox (no partial
     publish) — and let the caller re-run after backoff. *)
  let abort server =
    abort_round t;
    Events.log Events.default ~severity:Error
      ~labels:[ ("server", string_of_int server) ]
      ~detail:"server down mid-round; round keys erased, no mailboxes published"
      "mix.round_abort";
    raise (Aborted { server })
  in
  Array.iteri (fun i s -> if Server.is_down s then abort i) t.servers;
  (* Force shared lazy tables before the per-hop unwraps fan out to the
     domain pool (each hop's Server.process_traced parallelizes its
     batch). *)
  if Parallel.size (Parallel.get ()) > 1 then Params.force_tables t.params;
  let pks = Array.of_list (round_pks t) in
  let total_noise = ref 0 in
  let current = ref batch in
  for i = 0 to n - 1 do
    (* re-checked per hop: a server can die mid-round (e.g. from a
       noise_body callback in the chaos tests) *)
    if Server.is_down t.servers.(i) then abort i;
    let downstream_pks = Array.to_list (Array.sub pks (i + 1) (n - i - 1)) in
    let out, noise =
      Tel.Span.with_ Tel.default
        ~labels:[ ("server", string_of_int i) ]
        "mix.server_process"
        (fun () ->
          Server.process_traced t.servers.(i) ~downstream_pks ~noise_mu ~laplace_b
            ~num_mailboxes ~noise_body ?tracer !current)
    in
    total_noise := !total_noise + noise;
    current := out
  done;
  Array.iter Server.end_round t.servers;
  (!current, !total_noise)

(* A traced payload that survived the whole chain lands in a mailbox:
   record the publish hop and hand back (mailbox, ctx) so the caller can
   stitch the recipient's scan onto the same trace. *)
let publish ?tracer ~num_mailboxes final =
  match tracer with
  | None -> []
  | Some tr ->
    Array.to_list final
    |> List.filter_map (fun (payload, ctx) ->
           match ctx with
           | None -> None
           | Some c -> (
             match Payload.decode payload with
             | Some (mb, _) when mb >= 0 && mb < num_mailboxes ->
               let child = Trace.child tr c in
               let now = Tel.now Tel.default in
               Trace.emit tr child
                 ~labels:[ ("mailbox", string_of_int mb) ]
                 ~name:"mailbox.publish" ~ts:now ~dur:0.0 ();
               Some (mb, child)
             | Some _ | None -> None))

let run_round_traced t ~mode ~noise_mu ~laplace_b ~num_mailboxes ~noise_body ?tracer batch =
  Tel.Span.with_ Tel.default "mix.round" (fun () ->
      Tel.Counter.inc (Tel.Counter.v Tel.default "mix.rounds");
      let final, noise_added = mix t ~noise_mu ~laplace_b ~num_mailboxes ~noise_body ?tracer batch in
      let published = publish ?tracer ~num_mailboxes final in
      let mailboxes, dropped = Mailbox.distribute ~num_mailboxes ~mode (Array.map fst final) in
      ( mailboxes,
        { real_in = Array.length batch; noise_added; dropped; num_mailboxes },
        published ))

let run_round t ~mode ~noise_mu ~laplace_b ~num_mailboxes ~noise_body batch =
  let mailboxes, stats, _ =
    run_round_traced t ~mode ~noise_mu ~laplace_b ~num_mailboxes ~noise_body
      (Array.map (fun onion -> (onion, None)) batch)
  in
  (mailboxes, stats)
