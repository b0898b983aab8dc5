(* Fixed-capacity structured event log. A ring buffer so a long-lived
   server can leave it on: when full, the oldest event is overwritten and
   counted in [dropped] — logging stays O(1) and allocation-bounded no
   matter how long the process runs. *)

type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type event = {
  ts : float;
  clock : string;
  severity : severity;
  name : string;
  labels : Telemetry.labels;
  detail : string;
}

type t = {
  mu : Mutex.t; (* the ring is logged to from pool worker domains *)
  reg : Telemetry.registry;
  ring : event option array;
  mutable head : int; (* next write position *)
  mutable len : int;
  mutable dropped : int;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) reg =
  if capacity < 1 then invalid_arg "Events.create: capacity";
  { mu = Mutex.create (); reg; ring = Array.make capacity None; head = 0; len = 0; dropped = 0 }

let default = create Telemetry.default

let capacity t = Array.length t.ring
let length t = t.len
let dropped t = t.dropped

let log t ?(severity = Info) ?(labels = []) ?(detail = "") name =
  let cap = Array.length t.ring in
  let ev =
    {
      ts = Telemetry.since_epoch t.reg;
      clock = Telemetry.clock_kind t.reg;
      severity;
      name;
      labels = List.sort_uniq compare labels;
      detail;
    }
  in
  Mutex.lock t.mu;
  if t.len = cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.ring.(t.head) <- Some ev;
  t.head <- (t.head + 1) mod cap;
  Mutex.unlock t.mu

let to_list t =
  Mutex.lock t.mu;
  let cap = Array.length t.ring in
  let start = (t.head - t.len + cap) mod cap in
  let l =
    List.init t.len (fun i ->
        match t.ring.((start + i) mod cap) with
        | Some ev -> ev
        | None -> assert false (* len counts only written slots *))
  in
  Mutex.unlock t.mu;
  l

let clear t =
  Mutex.lock t.mu;
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0;
  Mutex.unlock t.mu

(* ---- JSON-lines exporter ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.9g" f else "0"

let event_to_json ev =
  let labels =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
         ev.labels)
  in
  Printf.sprintf
    "{\"ts\":%s,\"clock\":\"%s\",\"severity\":\"%s\",\"name\":\"%s\",\"labels\":{%s},\"detail\":\"%s\"}"
    (json_float ev.ts) (json_escape ev.clock)
    (severity_to_string ev.severity)
    (json_escape ev.name) labels (json_escape ev.detail)

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string b (event_to_json ev);
      Buffer.add_char b '\n')
    (to_list t);
  Buffer.contents b
