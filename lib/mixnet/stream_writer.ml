(* Bounded streaming writer: mailbox contents flow through a fixed-size
   buffer to a sink instead of being materialized per round. The writer
   never holds more than [capacity] bytes; anything larger is cut into
   capacity-sized flushes, so peak heap per round is O(capacity), not
   O(round). *)

type sink = bytes -> int -> int -> unit

type t = {
  sink : sink;
  buf : Bytes.t;
  mutable fill : int;
  mutable written : int;
  mutable peak : int;
}

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) sink =
  if capacity < 8 then invalid_arg "Stream_writer.create: capacity must be >= 8";
  { sink; buf = Bytes.create capacity; fill = 0; written = 0; peak = 0 }

let capacity t = Bytes.length t.buf
let written t = t.written
let peak_buffered t = t.peak

let flush t =
  if t.fill > 0 then begin
    t.sink t.buf 0 t.fill;
    t.written <- t.written + t.fill;
    t.fill <- 0
  end

let write_sub t src pos len =
  if pos < 0 || len < 0 || pos + len > String.length src then
    invalid_arg "Stream_writer.write_sub";
  let cap = Bytes.length t.buf in
  let pos = ref pos and remaining = ref len in
  while !remaining > 0 do
    if t.fill = cap then flush t;
    let chunk = Stdlib.min !remaining (cap - t.fill) in
    Bytes.blit_string src !pos t.buf t.fill chunk;
    t.fill <- t.fill + chunk;
    if t.fill > t.peak then t.peak <- t.fill;
    pos := !pos + chunk;
    remaining := !remaining - chunk
  done

let write t s = write_sub t s 0 (String.length s)

(* Length-prefixed records (u32be + body): the framing the sharded plain
   mailboxes stream through, total to decode. *)

let write_record t body =
  let n = String.length body in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (n land 0xff));
  write t (Bytes.unsafe_to_string hdr);
  write t body

let iter_records blob f =
  let len = String.length blob in
  let pos = ref 0 in
  let ok = ref true in
  while !ok && !pos < len do
    if len - !pos < 4 then ok := false
    else begin
      let n =
        (Char.code blob.[!pos] lsl 24)
        lor (Char.code blob.[!pos + 1] lsl 16)
        lor (Char.code blob.[!pos + 2] lsl 8)
        lor Char.code blob.[!pos + 3]
      in
      if n < 0 || len - !pos - 4 < n then ok := false
      else begin
        f (String.sub blob (!pos + 4) n);
        pos := !pos + 4 + n
      end
    end
  done;
  !ok && !pos = len

let fold_records blob f acc =
  let acc = ref acc in
  let ok = iter_records blob (fun r -> acc := f !acc r) in
  (!acc, ok)

(* Convenience sinks. *)

let counting_sink () =
  let count = ref 0 in
  ((fun _ _ len -> count := !count + len), fun () -> !count)

let buffer_sink buffer : sink = fun buf pos len -> Buffer.add_subbytes buffer buf pos len
