(* The Alpenhorn RPC vocabulary (DESIGN.md §13): message tags and payload
   codecs for the PKG and mixer server processes, plus blocking client
   wrappers over [Rpc.Client].

   Conventions:

   - a response frame reuses its request's tag; [Rpc.error_tag] (0xff) is
     reserved for handler crashes;
   - every response payload begins with a status byte: 0 = success,
     1 = a {!Pkg.error} follows (the app-level failure of PKG ops);
   - group elements (BLS keys/signatures, IBE keys, DH round keys) ride
     as their canonical byte serializations and are re-validated by the
     receiver — a peer is never trusted to send well-formed points;
   - [now] is explicit in the requests that consult the clock
     (registration lockout, liveness), because rounds run on the
     orchestrator's logical clock, not the server's wall clock. *)

module Framing = Alpenhorn_net.Framing
module Rpc = Alpenhorn_net.Rpc
module F = Framing.Fields
module Params = Alpenhorn_pairing.Params
module Bls = Alpenhorn_bls.Bls
module Ibe = Alpenhorn_ibe.Ibe
module Dh = Alpenhorn_dh.Dh
module Pkg = Alpenhorn_pkg.Pkg

(* ---- message tags ---- *)

let tag_pkg_info = 0x10
let tag_pkg_register = 0x11
let tag_pkg_inbox = 0x12
let tag_pkg_confirm = 0x13
let tag_pkg_begin_round = 0x14
let tag_pkg_reveal = 0x15
let tag_pkg_extract = 0x16
let tag_pkg_end_round = 0x17

let tag_mix_info = 0x20
let tag_mix_new_round = 0x21
let tag_mix_process = 0x22
let tag_mix_end_round = 0x23
let tag_mix_ping = 0x24

(* span names for server-side tracing: the same vocabulary the fleet
   trace timelines print, so a stitched trace reads as protocol steps *)
let tag_name tag =
  if tag = tag_pkg_info then "pkg.info"
  else if tag = tag_pkg_register then "pkg.register"
  else if tag = tag_pkg_inbox then "pkg.inbox"
  else if tag = tag_pkg_confirm then "pkg.confirm"
  else if tag = tag_pkg_begin_round then "pkg.begin_round"
  else if tag = tag_pkg_reveal then "pkg.reveal"
  else if tag = tag_pkg_extract then "pkg.extract"
  else if tag = tag_pkg_end_round then "pkg.end_round"
  else if tag = tag_mix_info then "mix.info"
  else if tag = tag_mix_new_round then "mix.new_round"
  else if tag = tag_mix_process then "mix.process"
  else if tag = tag_mix_end_round then "mix.end_round"
  else if tag = tag_mix_ping then "mix.ping"
  else Printf.sprintf "rpc.0x%02x" tag

type chain = Af | Dial

let chain_byte = function Af -> 0 | Dial -> 1
let chain_of_byte = function 0 -> Some Af | 1 -> Some Dial | _ -> None

(* ---- Pkg.error codec ---- *)

let pkg_error_bytes b (e : Pkg.error) =
  match e with
  | Pkg.Unknown_account -> F.u8 b 0
  | Pkg.Not_confirmed -> F.u8 b 1
  | Pkg.Already_registered -> F.u8 b 2
  | Pkg.Bad_token -> F.u8 b 3
  | Pkg.Bad_signature -> F.u8 b 4
  | Pkg.Locked_out s ->
    F.u8 b 5;
    F.u32 b s
  | Pkg.Wrong_round -> F.u8 b 6
  | Pkg.Not_revealed -> F.u8 b 7
  | Pkg.Unknown_provider -> F.u8 b 8

let pkg_error_of_cursor c : Pkg.error option =
  match F.get_u8 c with
  | Some 0 -> Some Pkg.Unknown_account
  | Some 1 -> Some Pkg.Not_confirmed
  | Some 2 -> Some Pkg.Already_registered
  | Some 3 -> Some Pkg.Bad_token
  | Some 4 -> Some Pkg.Bad_signature
  | Some 5 -> (match F.get_u32 c with Some s -> Some (Pkg.Locked_out s) | None -> None)
  | Some 6 -> Some Pkg.Wrong_round
  | Some 7 -> Some Pkg.Not_revealed
  | Some 8 -> Some Pkg.Unknown_provider
  | Some _ | None -> None

(* ---- response envelope ---- *)

let ok_payload fill =
  let b = Buffer.create 64 in
  F.u8 b 0;
  fill b;
  Buffer.contents b

let err_payload e =
  let b = Buffer.create 8 in
  F.u8 b 1;
  pkg_error_bytes b e;
  Buffer.contents b

let respond tag = function
  | Ok fill -> { Framing.tag; payload = ok_payload fill }
  | Error e -> { Framing.tag; payload = err_payload e }

(* Client side: one RPC round trip, unwrapping the envelope. [read] parses
   the success body from the cursor; a [Pkg.error] status surfaces as
   [Ok (Error e)] so protocol failures stay distinct from transport ones. *)
let call conn ~tag ~payload ~read =
  match Rpc.Client.call conn { Framing.tag; payload } with
  | Error _ as e -> e
  | Ok resp ->
    if resp.Framing.tag = Rpc.error_tag then Error ("server error: " ^ resp.Framing.payload)
    else if resp.Framing.tag <> tag then
      Error (Printf.sprintf "unexpected response tag 0x%02x" resp.Framing.tag)
    else begin
      let c = F.cursor resp.Framing.payload in
      match F.get_u8 c with
      | Some 0 -> (
        match read c with
        | Some v when F.finished c -> Ok (Ok v)
        | Some _ | None -> Error "malformed response body")
      | Some 1 -> (
        match pkg_error_of_cursor c with
        | Some e when F.finished c -> Ok (Error e)
        | Some _ | None -> Error "malformed error body")
      | Some _ | None -> Error "malformed response status"
    end

let req fill =
  let b = Buffer.create 64 in
  fill b;
  Buffer.contents b

(* Unwrap ops that cannot fail at the protocol level: a [Pkg.error] from
   one of them is a peer bug, reported as a transport error. *)
let no_protocol_error = function
  | Error _ as e -> e
  | Ok (Ok v) -> Ok v
  | Ok (Error e) -> Error ("unexpected protocol error: " ^ Pkg.error_to_string e)

(* ---- PKG operations: client side ---- *)

let pkg_info conn ~params =
  no_protocol_error
  @@ call conn ~tag:tag_pkg_info ~payload:""
       ~read:(fun c ->
         match F.get_str c with
         | None -> None
         | Some pk -> Bls.public_of_bytes params pk)

let pkg_register conn ~params ~now ~email ~pk =
  call conn ~tag:tag_pkg_register
    ~payload:
      (req (fun b ->
           F.u32 b now;
           F.str b email;
           F.str b (Bls.public_bytes params pk)))
    ~read:(fun _ -> Some ())

let pkg_inbox conn ~email =
  no_protocol_error
  @@ call conn ~tag:tag_pkg_inbox
       ~payload:(req (fun b -> F.str b email))
       ~read:F.get_strs

let pkg_confirm conn ~now ~email ~token =
  call conn ~tag:tag_pkg_confirm
    ~payload:
      (req (fun b ->
           F.u32 b now;
           F.str b email;
           F.str b token))
    ~read:(fun _ -> Some ())

let pkg_begin_round conn ~round =
  no_protocol_error
  @@ call conn ~tag:tag_pkg_begin_round ~payload:(req (fun b -> F.u32 b round)) ~read:F.get_str

let pkg_reveal conn ~params ~round =
  call conn ~tag:tag_pkg_reveal
    ~payload:(req (fun b -> F.u32 b round))
    ~read:(fun c ->
      match (F.get_str c, F.get_str c) with
      | Some mpk, Some opening -> (
        match Ibe.master_public_of_bytes params mpk with
        | Some mpk -> Some (mpk, opening)
        | None -> None)
      | _ -> None)

let pkg_extract conn ~params ~now ~round ~email ~signature =
  call conn ~tag:tag_pkg_extract
    ~payload:
      (req (fun b ->
           F.u32 b now;
           F.u32 b round;
           F.str b email;
           F.str b (Bls.signature_bytes params signature)))
    ~read:(fun c ->
      match (F.get_str c, F.get_str c) with
      | Some ik, Some att -> (
        match (Ibe.identity_key_of_bytes params ik, Bls.signature_of_bytes params att) with
        | Some ik, Some att -> Some (ik, att)
        | _ -> None)
      | _ -> None)

let pkg_end_round conn ~round =
  no_protocol_error
  @@ call conn ~tag:tag_pkg_end_round
       ~payload:(req (fun b -> F.u32 b round))
       ~read:(fun _ -> Some ())

(* ---- mixer operations: client side ---- *)

let mix_new_round conn ~params ~chain =
  no_protocol_error
  @@ call conn ~tag:tag_mix_new_round
       ~payload:(req (fun b -> F.u8 b (chain_byte chain)))
       ~read:(fun c ->
         match F.get_str c with None -> None | Some pk -> Dh.public_of_bytes params pk)

let mix_process conn ~params ~chain ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes
    ~mpk_agg ~batch =
  no_protocol_error
  @@ call conn ~tag:tag_mix_process
       ~payload:
         (req (fun b ->
              F.u8 b (chain_byte chain);
              F.strs b (List.map (Dh.public_bytes params) downstream_pks);
              F.f64 b noise_mu;
              F.f64 b laplace_b;
              F.u32 b num_mailboxes;
              F.str b mpk_agg;
              F.strs b (Array.to_list batch)))
       ~read:(fun c ->
         match (F.get_u32 c, F.get_strs c) with
         | Some noise, Some out -> Some (Array.of_list out, noise)
         | _ -> None)

let mix_end_round conn ~chain =
  no_protocol_error
  @@ call conn ~tag:tag_mix_end_round
       ~payload:(req (fun b -> F.u8 b (chain_byte chain)))
       ~read:(fun _ -> Some ())

let mix_ping conn =
  no_protocol_error @@ call conn ~tag:tag_mix_ping ~payload:"" ~read:(fun _ -> Some ())
