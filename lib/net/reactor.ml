(* The select loop shared by the HTTP listener and the RPC server. One
   domain runs it; non-blocking sockets, bounded buffering, self-pipe
   wakeup for cross-domain stop. No opam dependencies: Unix + the in-tree
   telemetry registry. *)

module Tel = Alpenhorn_telemetry.Telemetry

type verdict = Keep | Close

type 's codec = {
  fresh : unit -> 's;
  input : 's -> Buffer.t -> string * verdict;
  flushed : 's -> unit;
}

type 's conn = {
  fd : Unix.file_descr;
  state : 's;
  inbuf : Buffer.t;
  mutable out : string; (* non-empty: writing, not reading *)
  mutable out_off : int;
  mutable verdict : verdict;
}

type 's t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  codec : 's codec;
  conns : (Unix.file_descr, 's conn) Hashtbl.t; (* loop-domain only *)
  chunk : Bytes.t; (* read scratch, loop-domain only *)
  stop_flag : bool Atomic.t;
  pipe_rd : Unix.file_descr;
  pipe_wr : Unix.file_descr;
  mutable accepting : bool;
  mutable closed : bool;
  g_open : Tel.Gauge.t;
  c_refused : Tel.Counter.t;
}

let backlog = 16
let drain_seconds = 2.0

let create ?(host = "127.0.0.1") ~prefix ~port codec =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd backlog;
  Unix.set_nonblock fd;
  let bound_port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
  in
  let pipe_rd, pipe_wr = Unix.pipe () in
  Unix.set_nonblock pipe_rd;
  Unix.set_nonblock pipe_wr;
  let reg = Tel.default in
  {
    listen_fd = fd;
    bound_port;
    codec;
    conns = Hashtbl.create 16;
    chunk = Bytes.create 65536;
    stop_flag = Atomic.make false;
    pipe_rd;
    pipe_wr;
    accepting = true;
    closed = false;
    g_open = Tel.Gauge.v reg (prefix ^ ".open_connections");
    c_refused = Tel.Counter.v reg (prefix ^ ".conns_refused");
  }

let port t = t.bound_port

let close_conn t c =
  Hashtbl.remove t.conns c.fd;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  Tel.Gauge.set t.g_open (float_of_int (Hashtbl.length t.conns))

let handle_readable t c =
  match Unix.read c.fd t.chunk 0 (Bytes.length t.chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c
  | 0 -> close_conn t c
  | n ->
    Buffer.add_subbytes c.inbuf t.chunk 0 n;
    let out, verdict = t.codec.input c.state c.inbuf in
    c.verdict <- verdict;
    if out <> "" then c.out <- out else if verdict = Close then close_conn t c

let handle_writable t c =
  let remaining = String.length c.out - c.out_off in
  match Unix.write_substring c.fd c.out c.out_off remaining with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c
  | n ->
    c.out_off <- c.out_off + n;
    if c.out_off >= String.length c.out then begin
      c.out <- "";
      c.out_off <- 0;
      t.codec.flushed c.state;
      (* once draining, a flushed connection has nothing left to do *)
      if c.verdict = Close || not t.accepting then close_conn t c
    end

(* [Unix.select] raises EINVAL for a descriptor at or above FD_SETSIZE;
   a zero-timeout probe tells whether the loop could ever watch [fd]. *)
let watchable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false

let rec accept_ready t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, _ ->
    if watchable fd then begin
      Unix.set_nonblock fd;
      Hashtbl.replace t.conns fd
        {
          fd;
          state = t.codec.fresh ();
          inbuf = Buffer.create 256;
          out = "";
          out_off = 0;
          verdict = Keep;
        };
      Tel.Gauge.set t.g_open (float_of_int (Hashtbl.length t.conns))
    end
    else begin
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Tel.Counter.inc t.c_refused
    end;
    accept_ready t

let drain_pipe t = try ignore (Unix.read t.pipe_rd t.chunk 0 64) with Unix.Unix_error _ -> ()

let poll t ~timeout =
  if not t.closed then begin
    if Atomic.get t.stop_flag then t.accepting <- false;
    let readers = ref [ t.pipe_rd ] and writers = ref [] in
    if t.accepting then readers := t.listen_fd :: !readers;
    Hashtbl.iter
      (fun fd c -> if c.out <> "" then writers := fd :: !writers else readers := fd :: !readers)
      t.conns;
    match Unix.select !readers !writers [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rs, ws, _ ->
      List.iter
        (fun fd ->
          if fd = t.pipe_rd then drain_pipe t
          else if fd = t.listen_fd then accept_ready t
          else Option.iter (handle_readable t) (Hashtbl.find_opt t.conns fd))
        rs;
      List.iter (fun fd -> Option.iter (handle_writable t) (Hashtbl.find_opt t.conns fd)) ws
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.close t.pipe_rd with Unix.Unix_error _ -> ());
    (try Unix.close t.pipe_wr with Unix.Unix_error _ -> ());
    Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
    Hashtbl.reset t.conns;
    Tel.Gauge.set t.g_open 0.0
  end

let stop t =
  Atomic.set t.stop_flag true;
  (* wake a parked select; harmless if nobody is parked. Once closed, the
     pipe's descriptor number may belong to someone else. *)
  if not t.closed then
    try ignore (Unix.write_substring t.pipe_wr "x" 0 1) with Unix.Unix_error _ -> ()

let run t =
  while not (Atomic.get t.stop_flag) do
    poll t ~timeout:0.25
  done;
  (* graceful drain: no new accepts, connections with nothing to write
     close now (a persistent peer sees EOF on its next call), pending
     output flushes under a deadline *)
  t.accepting <- false;
  Hashtbl.fold (fun _ c idle -> if c.out = "" then c :: idle else idle) t.conns []
  |> List.iter (close_conn t);
  let deadline = Unix.gettimeofday () +. drain_seconds in
  while Hashtbl.length t.conns > 0 && Unix.gettimeofday () < deadline do
    poll t ~timeout:0.05
  done;
  close t

(* ---- blocking client ---- *)

let connect ~timeout ~host ~port =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
    Unix.connect fd addr
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (* callers key on the failure class: "refused" = nothing listening
       (process dead), "timeout" = a peer that exists but does not
       answer (hung, or still booting) *)
    let klass =
      match e with
      | Unix.ECONNREFUSED -> "refused"
      | Unix.ETIMEDOUT | Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK -> "timeout"
      | _ -> "error"
    in
    Error (Printf.sprintf "%s: connect %s:%d: %s" klass host port (Unix.error_message e))

let write_all fd s =
  let rec go off =
    if off >= String.length s then Ok ()
    else
      match Unix.write_substring fd s off (String.length s - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error "timeout: write stalled"
      | exception Unix.Unix_error (e, _, _) -> Error ("write: " ^ Unix.error_message e)
      | n -> go (off + n)
  in
  go 0

let rec read fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read fd buf
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    (* connected but silent: the accepted-then-hung case, distinct from
       "refused" at connect *)
    Error "timeout: no response"
  | exception Unix.Unix_error (e, _, _) -> Error ("read: " ^ Unix.error_message e)
  | n -> Ok n
