(* SHA-256 over native ints masked to 32 bits (OCaml ints are 63-bit). *)

let m32 = 0xffffffff

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
  0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
  0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
  0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
  0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
  0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
|]

type ctx = {
  h : int array; (* 8 words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int; (* -1 once erased *)
  mutable total : int; (* bytes processed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let live ctx = if ctx.buf_len < 0 then invalid_arg "Sha256: context used after erase"

(* One bounds check for the whole block, then unchecked loads. A rotation
   of a 32-bit word x by n is bits n..n+31 of the doubled word
   x lor (x lsl 32); the 63-bit int drops x's top bit from the upper copy,
   which only rotations by more than 31 would reach, and every Σ/σ
   rotation here is by at most 25. All three rotations of one Σ share the
   doubling and the final mask. *)
let compress ctx block off =
  if off < 0 || off > Bytes.length block - 64 then invalid_arg "Sha256.compress";
  let w = ctx.w in
  for i = 0 to 15 do
    let p = off + (4 * i) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get block p) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (p + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (p + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (p + 3)))
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = ((xx lsr 7) lxor (xx lsr 18)) land m32 lxor (x lsr 3) in
    let s1 = ((yy lsr 17) lxor (yy lsr 19)) land m32 lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land m32)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ev = !e in
    let ee = ev lor (ev lsl 32) in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land m32 in
    let ch = !g lxor (ev land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let av = !a in
    let aa = av lor (av lsl 32) in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land m32 in
    let maj = (av land !b) lor (!c land (av lor !b)) in
    hh := !g; g := !f; f := ev; e := (!d + t1) land m32;
    d := !c; c := !b; b := av; a := (t1 + s0 + maj) land m32
  done;
  h.(0) <- (h.(0) + !a) land m32; h.(1) <- (h.(1) + !b) land m32;
  h.(2) <- (h.(2) + !c) land m32; h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32; h.(5) <- (h.(5) + !f) land m32;
  h.(6) <- (h.(6) + !g) land m32; h.(7) <- (h.(7) + !hh) land m32

let update_bytes ctx data off len =
  if off < 0 || len < 0 || off > Bytes.length data - len then invalid_arg "Sha256.update_bytes";
  live ctx;
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = Stdlib.min need !remaining in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx data !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s = update_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Padding goes into the context's own block buffer: 0x80, zeros, and the
   64-bit big-endian bit length, spilling into a second block when fewer
   than 9 bytes are free. *)
let finalize ctx =
  live ctx;
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let copy ctx =
  live ctx;
  { ctx with h = Array.copy ctx.h; buf = Bytes.copy ctx.buf; w = Array.make 64 0 }

let erase ctx =
  Array.fill ctx.h 0 8 0;
  Bytes.fill ctx.buf 0 64 '\000';
  Array.fill ctx.w 0 64 0;
  ctx.buf_len <- -1;
  ctx.total <- 0

let is_erased ctx =
  ctx.buf_len < 0
  && Array.for_all (( = ) 0) ctx.h
  && Array.for_all (( = ) 0) ctx.w
  && Bytes.for_all (( = ) '\000') ctx.buf

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx
