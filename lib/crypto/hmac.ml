let block_size = 64

(* The SHA-256 states after the key block xor ipad and after the key block
   xor opad: every tag under the key starts from one of them. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let block = Bytes.create block_size in
  let midstate c =
    Bytes.fill block 0 block_size (Char.chr c);
    String.iteri (fun i k -> Bytes.set block i (Char.chr (Char.code k lxor c))) key;
    let ctx = Sha256.init () in
    Sha256.update_bytes ctx block 0 block_size;
    ctx
  in
  let inner = midstate 0x36 in
  let outer = midstate 0x5c in
  Bytes.fill block 0 block_size '\000';
  { inner; outer }

let mac k msg =
  let c = Sha256.copy k.inner in
  Sha256.update c msg;
  let inner = Sha256.finalize c in
  let c = Sha256.copy k.outer in
  Sha256.update c inner;
  Sha256.finalize c

let erase k =
  Sha256.erase k.inner;
  Sha256.erase k.outer

let is_erased k = Sha256.is_erased k.inner && Sha256.is_erased k.outer

let hmac_sha256 ~key msg =
  let k = prepare key in
  let tag = mac k msg in
  erase k;
  tag

let hkdf_extract ~salt ~ikm = hmac_sha256 ~key:salt ikm

let hkdf_expand ~prk ~info ~len =
  if len > 255 * 32 then invalid_arg "Hmac.hkdf_expand: len";
  let key = prepare prk in
  let buf = Buffer.create len in
  let t = ref "" in
  let i = ref 1 in
  while Buffer.length buf < len do
    t := mac key (!t ^ info ^ String.make 1 (Char.chr !i));
    Buffer.add_string buf !t;
    incr i
  done;
  erase key;
  String.sub (Buffer.contents buf) 0 len

let hkdf ?salt ~info ~len ikm =
  let salt = match salt with Some s -> s | None -> String.make 32 '\000' in
  hkdf_expand ~prk:(hkdf_extract ~salt ~ikm) ~info ~len
