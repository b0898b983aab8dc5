(* Framed request/response RPC over TCP (DESIGN.md §13): the frame codec
   for the shared select loop (Reactor), and the blocking client.

   - connections are persistent: a client sends any number of request
     frames and receives one response frame per request, in order;
   - the receive buffer is decoded in place (Framing.decode_buffer reads
     the length prefix without copying), so a frame that arrives in many
     chunks is copied out once, when it is complete;
   - a [Corrupt] verdict from the decoder closes the connection once the
     responses to the frames before it are written — framing errors are
     not recoverable mid-stream.

   Zero opam dependencies: Unix + the in-tree telemetry registry. *)

module Tel = Alpenhorn_telemetry.Telemetry

type handler = Framing.frame -> Framing.frame

type traced_handler = trace:(string * string) list option -> Framing.frame -> Framing.frame

let error_tag = 0xff

let error_frame msg = { Framing.tag = error_tag; payload = msg }

(* Drop the first [n] bytes of a receive buffer — what follows is at most
   the prefix of the next frame. *)
let consume b n =
  if n > 0 then begin
    let rest = Buffer.sub b n (Buffer.length b - n) in
    Buffer.clear b;
    Buffer.add_string b rest
  end

module Server = struct
  (* Per-tag telemetry handles, resolved once per tag per server: the
     registration path (Counter.v / Histogram.v) hashes, the hit path is a
     lone atomic or a histogram lock. *)
  type tag_metrics = {
    tm_calls : Tel.Counter.t;
    tm_seconds : Tel.Histogram.t;
    tm_bytes : Tel.Histogram.t;
  }

  type t = unit Reactor.t

  let create_traced ?host ~port handler =
    let reg = Tel.default in
    let c_calls = Tel.Counter.v reg "rpc.calls" and c_errors = Tel.Counter.v reg "rpc.errors" in
    let by_tag = Hashtbl.create 16 (* loop-domain only *) in
    let tag_metrics tag =
      match Hashtbl.find_opt by_tag tag with
      | Some m -> m
      | None ->
        let labels = [ ("tag", Printf.sprintf "0x%02x" tag) ] in
        let m =
          {
            tm_calls = Tel.Counter.v reg ~labels "rpc.call";
            tm_seconds = Tel.Histogram.v reg ~labels "rpc.request_seconds";
            tm_bytes = Tel.Histogram.v reg ~labels "rpc.payload_bytes";
          }
        in
        Hashtbl.replace by_tag tag m;
        m
    in
    (* one request frame in, one encoded response frame out *)
    let dispatch req =
      Tel.Counter.inc c_calls;
      (* a trace envelope is transport framing, not protocol: unwrap it
         here so handlers and per-tag metrics see the inner request *)
      let trace, req =
        if req.Framing.tag = Framing.trace_tag then
          match Framing.split_traced req with
          | Some (labels, inner) -> (Some labels, inner)
          | None -> (None, req) (* malformed envelope: dispatch as-is, handler rejects *)
        else (None, req)
      in
      let m = tag_metrics req.Framing.tag in
      Tel.Counter.inc m.tm_calls;
      Tel.Histogram.observe m.tm_bytes (float_of_int (String.length req.Framing.payload));
      let t0 = Unix.gettimeofday () in
      (* encoding is inside the guard: a response over the payload bound
         is a handler failure, answered like any other *)
      let resp =
        try Framing.encode (handler ~trace req)
        with e ->
          Tel.Counter.inc c_errors;
          Framing.encode (error_frame (Printexc.to_string e))
      in
      Tel.Histogram.observe m.tm_seconds (Unix.gettimeofday () -. t0);
      resp
    in
    (* Handle every complete frame in the buffer, then drop them from it. *)
    let input () inbuf =
      let responses = Buffer.create 64 in
      let rec go pos =
        match Framing.decode_buffer inbuf ~pos with
        | Framing.Frame (req, next) ->
          Buffer.add_string responses (dispatch req);
          go next
        | Framing.Need_more ->
          consume inbuf pos;
          Reactor.Keep
        | Framing.Corrupt _ ->
          Tel.Counter.inc c_errors;
          Reactor.Close
      in
      let verdict = go 0 in
      (Buffer.contents responses, verdict)
    in
    Reactor.create ?host ~prefix:"rpc" ~port { Reactor.fresh = ignore; input; flushed = ignore }

  let create ?host ~port handler = create_traced ?host ~port (fun ~trace:_ req -> handler req)
  let port = Reactor.port
  let run = Reactor.run
  let stop = Reactor.stop
  let close = Reactor.close
end

module Client = struct
  type t = {
    fd : Unix.file_descr;
    inbuf : Buffer.t;
    chunk : Bytes.t;
    mutable closed : bool;
    mutable trace : (string * string) list option; (* consumed by the next call *)
  }

  let connect ?(timeout = 5.0) ?(host = "127.0.0.1") ~port () =
    Reactor.connect ~timeout ~host ~port
    |> Result.map (fun fd ->
           { fd; inbuf = Buffer.create 256; chunk = Bytes.create 4096; closed = false; trace = None })

  let set_trace t labels = t.trace <- labels

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end

  (* Read until exactly one frame decodes; responses arrive strictly one
     per request, so leftover bytes belong to the next response's prefix. *)
  let rec read_frame t =
    match Framing.decode_buffer t.inbuf ~pos:0 with
    | Framing.Frame (f, stop) ->
      consume t.inbuf stop;
      Ok f
    | Framing.Corrupt m -> Error ("corrupt response: " ^ m)
    | Framing.Need_more -> (
      match Reactor.read t.fd t.chunk with
      | Error _ as e -> e
      | Ok 0 -> Error "read: connection closed"
      | Ok n ->
        Buffer.add_subbytes t.inbuf t.chunk 0 n;
        read_frame t)

  let call t frame =
    if t.closed then Error "call on closed connection"
    else begin
      let trace = t.trace in
      t.trace <- None;
      match Reactor.write_all t.fd (Framing.encode_traced ?trace frame) with
      | Error _ as e -> e
      | Ok () -> read_frame t
    end
end
