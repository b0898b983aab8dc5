(* Measurement probes: the wall clock, in-memory layer spans, counter
   deltas from the library's own telemetry registry, and OCaml GC
   readings taken from outside the program. *)

module Tel = Alpenhorn_telemetry.Telemetry

(* Seconds on the monotonic clock: the wall clock can step backwards
   under time synchronisation, which once made two consecutive spans
   appear to overlap. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- spans ---- *)

(* Spans of one traced round, kept in memory. The benchmark opens them
   around calls into the layers, never inside the program, and never
   nests them, so a round's layer time is the plain sum of its spans. *)
type span = { layer : string; start : float; stop : float }
type spans = { mutable list : span list }

let spans () = { list = [] }

let span sp layer f =
  let start = now () in
  let r = f () in
  sp.list <- { layer; start; stop = now () } :: sp.list;
  r

let layer_total sp layer =
  List.fold_left
    (fun acc s -> if s.layer = layer then acc +. (s.stop -. s.start) else acc)
    0.0 sp.list

let covered sp = List.fold_left (fun acc s -> acc +. (s.stop -. s.start)) 0.0 sp.list

(* Spans of one round must lie inside the round and must not overlap,
   otherwise "round total = layer spans + unattributed" would not hold. *)
let disjoint_within sp ~start ~stop =
  let ordered = List.sort (fun a b -> Float.compare a.start b.start) sp.list in
  let rec go prev = function
    | [] -> prev <= stop
    | s :: rest -> s.start >= prev && s.stop >= s.start && go s.stop rest
  in
  go start ordered

(* ---- telemetry counters ---- *)

type reading = Tel.Snapshot.t

let read () : reading = Tel.Snapshot.take Tel.default
let delta (a : reading) (b : reading) name =
  Tel.Snapshot.counter_sum b name - Tel.Snapshot.counter_sum a name

(* ---- GC ---- *)

let alloc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Peak major-heap size while [f] runs: sampled at the end of every
   major cycle and once more when [f] returns. *)
let heap_peak_during f =
  let peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let sample () = peak := Stdlib.max !peak (Gc.quick_stat ()).Gc.heap_words in
  let alarm = Gc.create_alarm sample in
  let r = Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f in
  sample ();
  (r, !peak)
