(* Reference kernels timed on fixed inputs in every run. They measure the
   host, not the workload: a kernel that moves between two runs of the
   same code shows host drift, not a code change. *)

module Params = Alpenhorn_pairing.Params
module Pairing = Alpenhorn_pairing.Pairing
module Ibe = Alpenhorn_ibe.Ibe
module Dh = Alpenhorn_dh.Dh
module Onion = Alpenhorn_mixnet.Onion
module Sha256 = Alpenhorn_crypto.Sha256
module Drbg = Alpenhorn_crypto.Drbg
module Bloom = Alpenhorn_bloom.Bloom

(* Median over [batches] batches of the mean time of one call. *)
let per_call ?(batches = 5) ~reps f =
  Alpenhorn_sim.Stats.median
    (Array.init batches (fun _ ->
         let t0 = Probe.now () in
         for _ = 1 to reps do
           ignore (Sys.opaque_identity (f ()))
         done;
         (Probe.now () -. t0) /. float_of_int reps))

let sha_input = String.make 4096 'k'

(* 4096 bytes hash as 64 message blocks plus one padding block. *)
let sha_blocks = 65

let run () =
  let pr = Params.production () in
  let rng = Drbg.create ~seed:"perfbench-kernels" in
  let msk, mpk = Ibe.setup pr rng in
  let d_id = Ibe.extract pr msk "kernel@bench.example" in
  let msg = String.make 128 'm' in
  let ctxt = Ibe.encrypt pr rng mpk ~id:"kernel@bench.example" msg in
  let scalar = Drbg.bigint_below rng pr.Params.q in
  ignore (Params.mul_g pr scalar);
  let ssk, spk = Dh.keygen pr rng in
  let onion = Onion.wrap pr rng ~server_pks:[ spk ] msg in
  let bloom = Bloom.create ~expected_elements:8192 in
  for i = 0 to 8191 do
    Bloom.add bloom (Sha256.digest (Printf.sprintf "member-%d" i))
  done;
  (* half the probes are members, half are not *)
  let probes =
    Array.init 1024 (fun i ->
        Sha256.digest (Printf.sprintf "%s-%d" (if i land 1 = 0 then "member" else "other") i))
  in
  let us s = s *. 1e6 and ns s = s *. 1e9 in
  [
    Report.metric "kernel.pair_us" "us"
      (us (per_call ~reps:10 (fun () -> Pairing.pair pr pr.Params.g d_id)));
    Report.metric "kernel.mul_g_us" "us" (us (per_call ~reps:40 (fun () -> Params.mul_g pr scalar)));
    Report.metric "kernel.ibe_decrypt_us" "us"
      (us (per_call ~reps:8 (fun () -> Ibe.decrypt pr d_id ctxt)));
    Report.metric "kernel.onion_unwrap_us" "us"
      (us (per_call ~reps:20 (fun () -> Onion.unwrap pr ~sk:ssk onion)));
    Report.metric "kernel.sha256_block_ns" "ns"
      (ns (per_call ~reps:200 (fun () -> Sha256.digest sha_input)) /. float_of_int sha_blocks);
    Report.metric "kernel.bloom_mem_ns" "ns"
      (ns (per_call ~reps:20 (fun () -> Array.iter (fun p -> ignore (Bloom.mem bloom p)) probes))
      /. float_of_int (Array.length probes));
  ]
