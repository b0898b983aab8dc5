(* Runtime/GC sampling: quick_stat deltas -> counters, heap levels ->
   gauges, a Gc alarm at every major-cycle end, and a forced-minor pause
   probe. No Gc.Memprof, no dependencies beyond Unix for the wall clock.

   The pause probe is deliberately honest about what it measures: a
   forced minor collection is a real stop-the-world evacuation of
   whatever the minor heap currently holds, so the observed duration is a
   genuine pause the program would have paid shortly anyway — we only
   choose the moment. It under-reports the worst case when the probe
   fires on a nearly-empty minor heap; the max over many samples
   converges on the true pause ceiling, which is what the SLO rule
   bounds. *)

module Tel = Telemetry

type t = {
  reg : Tel.registry;
  mu : Mutex.t; (* [sample] runs from both the orchestrator and the scrape domain *)
  mutable prev : Gc.stat;
  mutable last_probe : float; (* wall time of the last pause probe *)
  min_probe_interval : float;
  mutable max_pause : float; (* all-time, unaffected by registry resets *)
  (* end of the previous major cycle, wall time; written by whichever
     domain ends a cycle, hence atomic *)
  last_major_end : float Atomic.t;
  c_minor : Tel.Counter.t;
  c_major : Tel.Counter.t;
  c_compact : Tel.Counter.t;
  c_forced : Tel.Counter.t;
  c_minor_words : Tel.Counter.t;
  c_promoted : Tel.Counter.t;
  c_major_words : Tel.Counter.t;
  g_heap : Tel.Gauge.t;
  g_top_heap : Tel.Gauge.t;
  g_stack : Tel.Gauge.t;
  g_live : Tel.Gauge.t;
  g_free : Tel.Gauge.t;
  g_max_pause : Tel.Gauge.t;
  h_pause : Tel.Histogram.t;
  h_cycle : Tel.Histogram.t;
}

(* Register the metrics on the default registry, take the baseline, and
   hook the major-cycle alarm; pause probes at most every 0.5 s. *)
let install () =
  let reg = Tel.default in
  let t =
    {
      reg;
      mu = Mutex.create ();
      prev = Gc.quick_stat ();
      last_probe = 0.0;
      min_probe_interval = 0.5;
      max_pause = 0.0;
      last_major_end = Atomic.make (Unix.gettimeofday ());
      c_minor = Tel.Counter.v reg "runtime.gc.minor_collections";
      c_major = Tel.Counter.v reg "runtime.gc.major_collections";
      c_compact = Tel.Counter.v reg "runtime.gc.compactions";
      c_forced = Tel.Counter.v reg "runtime.gc.forced_major_collections";
      c_minor_words = Tel.Counter.v reg "runtime.alloc.minor_words";
      c_promoted = Tel.Counter.v reg "runtime.alloc.promoted_words";
      c_major_words = Tel.Counter.v reg "runtime.alloc.major_words";
      g_heap = Tel.Gauge.v reg "runtime.heap_words";
      g_top_heap = Tel.Gauge.v reg "runtime.top_heap_words";
      g_stack = Tel.Gauge.v reg "runtime.stack_words";
      g_live = Tel.Gauge.v reg "runtime.live_words";
      g_free = Tel.Gauge.v reg "runtime.free_words";
      g_max_pause = Tel.Gauge.v reg "runtime.gc.max_pause_seconds";
      h_pause = Tel.Histogram.v reg "runtime.gc.pause_seconds";
      h_cycle = Tel.Histogram.v reg "runtime.gc.major_cycle_seconds";
    }
  in
  ignore
    (Gc.create_alarm (fun () ->
         (* end of a major cycle: observe the interval since the last one *)
         let now = Unix.gettimeofday () in
         let prev = Atomic.exchange t.last_major_end now in
         let dt = now -. prev in
         if dt > 0.0 then Tel.Histogram.observe t.h_cycle dt));
  t

(* Word-count deltas arrive as floats from quick_stat; saturate to int. *)
let word_delta cur prev =
  let d = cur -. prev in
  if d <= 0.0 then 0
  else if d >= float_of_int max_int then max_int
  else int_of_float d

let probe_pause t now =
  if now -. t.last_probe >= t.min_probe_interval then begin
    t.last_probe <- now;
    let t0 = Unix.gettimeofday () in
    Gc.minor ();
    let pause = Unix.gettimeofday () -. t0 in
    Tel.Histogram.observe t.h_pause pause;
    if pause > t.max_pause then t.max_pause <- pause;
    (* window max: the gauge is zeroed by snapshot resets, so keep it at
       the largest probe of the current window *)
    if pause > Tel.Gauge.value t.g_max_pause then Tel.Gauge.set t.g_max_pause pause
  end

let sample ?(full = false) t =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () ->
  let s = if full then Gc.stat () else Gc.quick_stat () in
  let p = t.prev in
  t.prev <- s;
  Tel.Counter.add t.c_minor (max 0 (s.Gc.minor_collections - p.Gc.minor_collections));
  Tel.Counter.add t.c_major (max 0 (s.Gc.major_collections - p.Gc.major_collections));
  Tel.Counter.add t.c_compact (max 0 (s.Gc.compactions - p.Gc.compactions));
  Tel.Counter.add t.c_forced
    (max 0 (s.Gc.forced_major_collections - p.Gc.forced_major_collections));
  Tel.Counter.add t.c_minor_words (word_delta s.Gc.minor_words p.Gc.minor_words);
  Tel.Counter.add t.c_promoted (word_delta s.Gc.promoted_words p.Gc.promoted_words);
  Tel.Counter.add t.c_major_words (word_delta s.Gc.major_words p.Gc.major_words);
  Tel.Gauge.set t.g_heap (float_of_int s.Gc.heap_words);
  Tel.Gauge.set t.g_top_heap (float_of_int s.Gc.top_heap_words);
  Tel.Gauge.set t.g_stack (float_of_int s.Gc.stack_size);
  if full then begin
    Tel.Gauge.set t.g_live (float_of_int s.Gc.live_words);
    Tel.Gauge.set t.g_free (float_of_int s.Gc.free_words)
  end;
  probe_pause t (Unix.gettimeofday ())

(* Process-wide sampler on the default registry, installed on first use.
   Guarded by a mutex rather than Lazy: first use can race between the
   orchestrating domain and a scrape domain. *)
let default_mu = Mutex.create ()
let default_ref : t option ref = ref None

let get_default () =
  Mutex.lock default_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock default_mu) @@ fun () ->
  match !default_ref with
  | Some t -> t
  | None ->
    let t = install () in
    default_ref := Some t;
    t

let max_pause_seconds t = t.max_pause
