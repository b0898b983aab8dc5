module Sha256 = Alpenhorn_crypto.Sha256
module Util = Alpenhorn_crypto.Util

type t = { bits : Bytes.t; nbits : int; k : int; mutable n : int }

let target_fp_rate = 1e-10

(* At the optimal point, bits/element = -log2(fp)/ln 2 ≈ 47.9 -> 48, and
   k = bits/element * ln 2 ≈ 33. *)
let bits_per_element = 48
let optimal_hashes = 33

let create ~expected_elements =
  let n = Stdlib.max 1 expected_elements in
  let nbits = n * bits_per_element in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; k = optimal_hashes; n = 0 }

let create_custom ~bits ~hashes =
  if bits <= 0 || hashes <= 0 then invalid_arg "Bloom.create_custom";
  { bits = Bytes.make ((bits + 7) / 8) '\000'; nbits = bits; k = hashes; n = 0 }

(* Derive the k indices from all four 64-bit words of the digest: start
   at h1 and step by a difference that itself moves by h2, h3, h4 and i
   (enhanced double hashing, Dillinger-Manolios, carried to four terms).
   Plain double hashing (h1 + i·h2) is weak twice over here. It cycles
   through only nbits/gcd(h2, nbits) positions, and nbits = 48·n has many
   divisors, so an unlucky element sets as few as two bits. And every
   index set is fixed by (h1, h2) mod nbits, so a probe matches one of n
   members' sets outright with probability about n/nbits², 2·10⁻⁶ for a
   203-token mailbox, far above the 10⁻¹⁰ target. With four words the
   index set carries nbits⁴ choices, and the final i term keeps the
   sequence from falling into a short cycle whatever the digest is. *)
let indices_of_digest t d =
  let m = t.nbits in
  let wrap v = if v < m then v else v mod m in
  let word j = wrap (Util.read_be64 d (8 * j) land max_int) in
  let x = ref (word 0) and y = ref (word 1) and z = ref (word 2) and w = ref (word 3) in
  Array.init t.k (fun i ->
      let idx = !x in
      x := wrap (!x + !y);
      y := wrap (!y + !z);
      z := wrap (!z + !w);
      w := wrap (!w + i + 1);
      idx)

let indices t elem = indices_of_digest t (Sha256.digest ("bloom" ^ elem))

(* Same digest as [indices], streamed over a slice of a flat buffer: the
   sharded distribution paths add millions of tokens straight out of one
   preallocated [Bytes.t] without a substring per token. *)
let indices_sub t buf ~pos ~len =
  let c = Sha256.init () in
  Sha256.update c "bloom";
  Sha256.update_bytes c buf pos len;
  indices_of_digest t (Sha256.finalize c)

let set_bit b i = Bytes.set b (i / 8) (Char.chr (Char.code (Bytes.get b (i / 8)) lor (1 lsl (i mod 8))))
let get_bit b i = (Char.code (Bytes.get b (i / 8)) lsr (i mod 8)) land 1 = 1

let add t elem =
  Array.iter (set_bit t.bits) (indices t elem);
  t.n <- t.n + 1

let mem t elem = Array.for_all (get_bit t.bits) (indices t elem)

let add_sub t buf ~pos ~len =
  Array.iter (set_bit t.bits) (indices_sub t buf ~pos ~len);
  t.n <- t.n + 1

let mem_sub t buf ~pos ~len = Array.for_all (get_bit t.bits) (indices_sub t buf ~pos ~len)

let fill_ratio t =
  let set = ref 0 in
  Bytes.iter
    (fun c ->
      let x = Char.code c in
      (* popcount of one byte *)
      let x = x - ((x lsr 1) land 0x55) in
      let x = (x land 0x33) + ((x lsr 2) land 0x33) in
      set := !set + ((x + (x lsr 4)) land 0x0f))
    t.bits;
  float_of_int !set /. float_of_int t.nbits

let size_bits t = t.nbits
let size_bytes t = Bytes.length t.bits + 12 (* header included, matching to_bytes *)
let num_hashes t = t.k
let count t = t.n

let to_bytes t = Util.be32 t.nbits ^ Util.be32 t.k ^ Util.be32 t.n ^ Bytes.to_string t.bits

let of_bytes s =
  if String.length s < 12 then None
  else begin
    let nbits = Util.read_be32 s 0 and k = Util.read_be32 s 4 and n = Util.read_be32 s 8 in
    if nbits <= 0 || k <= 0 || String.length s <> 12 + ((nbits + 7) / 8) then None
    else Some { bits = Bytes.of_string (String.sub s 12 (String.length s - 12)); nbits; k; n }
  end

let false_positive_estimate t =
  let frac = 1.0 -. exp (-.float_of_int (t.k * t.n) /. float_of_int t.nbits) in
  frac ** float_of_int t.k
