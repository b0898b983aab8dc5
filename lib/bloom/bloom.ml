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

let digest_sub buf ~pos ~len =
  let c = Sha256.init () in
  Sha256.update c "bloom";
  Sha256.update_bytes c buf pos len;
  Sha256.finalize c

let get_bit b i = (Char.code (Bytes.get b (i lsr 3)) lsr (i land 7)) land 1 = 1

let set_bit b i =
  let byte = Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7)) in
  Bytes.set b (i lsr 3) (Char.unsafe_chr byte);
  true

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
   sequence from falling into a short cycle whatever the digest is.

   [walk t d visit] calls [visit bits idx] on the indices in order up to
   the first [false], and is [true] when every call was. It builds no
   index array: [mem] stops at the first clear bit. A sum of two reduced
   terms is below 2·nbits, so one subtraction reduces it. *)
let walk t d visit =
  let m = t.nbits and bits = t.bits and k = t.k in
  let reduce v = if v < m then v else v - m in
  let word j = (Util.read_be64 d (8 * j) land max_int) mod m in
  let rec go i x y z w =
    i = k
    || visit bits x
       && go (i + 1) (reduce (x + y)) (reduce (y + z)) (reduce (z + w))
            (let v = w + i + 1 in if v < m then v else v mod m)
  in
  go 0 (word 0) (word 1) (word 2) (word 3)

let add_sub t buf ~pos ~len =
  ignore (walk t (digest_sub buf ~pos ~len) set_bit);
  t.n <- t.n + 1

let mem_sub t buf ~pos ~len = walk t (digest_sub buf ~pos ~len) get_bit
let add t elem = add_sub t (Bytes.unsafe_of_string elem) ~pos:0 ~len:(String.length elem)
let mem t elem = mem_sub t (Bytes.unsafe_of_string elem) ~pos:0 ~len:(String.length elem)

let indices t elem =
  let d = digest_sub (Bytes.unsafe_of_string elem) ~pos:0 ~len:(String.length elem) in
  let out = ref [] in
  ignore (walk t d (fun _ i -> out := i :: !out; true));
  Array.of_list (List.rev !out)

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
