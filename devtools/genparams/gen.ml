(* Generate (q, l) pairs for Params pregenerated sets.

   usage: gen QBITS

   p = 12·l·q − 1 with l found by a short search upward from at most
   2^8, so 12·l stays below 2^12 and p has at most QBITS + 12 bits. The
   Montgomery kernel (lib/pairing/mont.ml) holds moduli of at most 248
   bits, so QBITS may be at most 236. *)
module B = Alpenhorn_bigint.Bigint
module P = Alpenhorn_pairing

let max_qbits = 248 - 12

let () =
  let qbits =
    match Array.to_list Sys.argv with
    | [ _; s ] -> (match int_of_string_opt s with Some n when n >= 8 && n <= max_qbits -> Some n | _ -> None)
    | _ -> None
  in
  let qbits =
    match qbits with
    | Some n -> n
    | None ->
      Printf.eprintf
        "usage: gen QBITS   (8 <= QBITS <= %d: p = 12*l*q - 1 must fit the 248-bit Montgomery kernel)\n"
        max_qbits;
      exit 2
  in
  let rng = Alpenhorn_crypto.Drbg.create ~seed:("genparams-" ^ Sys.argv.(1)) in
  let t0 = Unix.gettimeofday () in
  let p = P.Params.generate rng ~qbits in
  Printf.printf "qbits=%d time=%.1fs\n" qbits (Unix.gettimeofday () -. t0);
  Printf.printf "q = 0x%s\n" (B.to_hex p.P.Params.q);
  Printf.printf "l = 0x%s\n" (B.to_hex (B.div p.P.Params.cofactor (B.of_int 12)));
  Printf.printf "p bits = %d\n" (B.numbits (P.Field.modulus p.P.Params.fp));
  P.Params.validate p;
  print_endline "validate OK";
  (* quick bilinearity smoke *)
  let fp = p.P.Params.fp and g = p.P.Params.g in
  let a = B.of_int 7 and b = B.of_int 11 in
  let e1 = P.Pairing.pair p (P.Curve.mul fp a g) (P.Curve.mul fp b g) in
  let e2 = P.Fp2.pow fp (P.Pairing.pair p g g) (B.of_int 77) in
  Printf.printf "bilinear: %b\n" (P.Fp2.equal e1 e2);
  Printf.printf "nondegenerate: %b\n" (not (P.Fp2.equal (P.Pairing.pair p g g) P.Fp2.one))
