(* How fast the host runs right now, so that a time measured on a busy
   host can be stated in seconds of an unloaded one.

   The host is a shared VM. When other tenants are busy, throughput-bound
   code (bigint arithmetic, hashing, allocation) runs up to 1.7 times
   slower, for seconds to minutes at a time, with no steal time and no
   gap between CPU and wall time to show for it (perfbench/NOTES.md,
   "Host noise"). The reference kernel below
   is built from the same ingredients: small freshly allocated arrays
   filled by multiply-xorshift steps. It is benchmark code, so no change
   to the program moves it. It runs on every domain of the pool at once,
   like the work it is set beside, and its time over [nominal_s] says how
   much slower than unloaded the host is.

   Over one minute of alternating runs on one domain, while the host's
   load moved the pairing time by 70%, pairing time over kernel time
   stayed within 4% from one six-second window to the next. *)

module Parallel = Alpenhorn_parallel.Parallel

let iterations = 3_000_000

(* The kernel's time on one domain of an unloaded host: about the fastest
   of many runs on a 2.0 GHz Intel Xeon vCPU. Scaled times are seconds of
   a host that runs the kernel this fast. *)
let nominal_s = 0.08

let kernel () =
  let s = ref 0 in
  for i = 1 to iterations do
    let x = Array.make 8 i in
    for j = 1 to 7 do
      x.(j) <- ((x.(j - 1) * 0x5bd1e995) + j) lxor (x.(j - 1) lsr 17)
    done;
    s := !s + x.(7)
  done;
  !s

(* One kernel run per domain of the default pool, all at once; the time
   until the last one ends. *)
let sample () =
  let pool = Parallel.get () in
  let t0 = Probe.now () in
  ignore (Sys.opaque_identity (Parallel.map_range pool (fun _ -> kernel ()) (Parallel.size pool)));
  Probe.now () -. t0

(* [f ()] with its wall time, and that time scaled to an unloaded host
   by the kernel timed right before and right after it. *)
let time f =
  let before = sample () in
  let r, dt = Probe.time f in
  let after = sample () in
  (r, dt, dt *. nominal_s /. ((before +. after) /. 2.0))
