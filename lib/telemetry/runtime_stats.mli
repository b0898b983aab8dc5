(** Live OCaml runtime/GC observability: periodic sampling of
    [Gc.quick_stat] (and optionally the heap-walking [Gc.stat]) into the
    telemetry registry, plus an end-of-major-cycle alarm hook and a
    stop-the-world pause probe (DESIGN.md §12).

    Alpenhorn is meant to run for months sustaining millions of users
    (§7), and its round latency budget lives or dies on allocation rate,
    heap growth and GC pauses — none of which the protocol-level metrics
    (PRs 1, 3) see. This module closes that gap with zero dependencies
    and no [Gc.Memprof] (which would conflict with any future memory
    profiler the operator attaches):

    - {b Deltas as counters.} Each {!sample} diffs the previous
      [Gc.quick_stat] against the current one and adds the increments to
      [runtime.gc.minor_collections], [runtime.gc.major_collections],
      [runtime.gc.compactions], [runtime.alloc.minor_words],
      [runtime.alloc.promoted_words] and [runtime.alloc.major_words]
      (word counters are saturating on 63-bit ints — a non-issue in
      practice). Counters survive {!Telemetry.Snapshot.take}
      [~reset:true] as per-window deltas, exactly like the protocol
      counters.
    - {b Levels as gauges.} [runtime.heap_words], [runtime.top_heap_words]
      and [runtime.stack_words] track the current heap; a [~full:true]
      sample also walks the heap ([Gc.stat]) for [runtime.live_words] and
      [runtime.free_words].
    - {b Major-cycle alarm.} The sampler registers a [Gc.create_alarm]
      hook; at the end of every major cycle it observes the wall-clock
      interval since the previous cycle end into
      [runtime.gc.major_cycle_seconds] — the cadence of full-heap marking.
    - {b Pause probe.} Each {!sample} (at most once every half second of
      wall time) times one forced minor collection —
      a genuine stop-the-world pause, merely moved in time — into
      [runtime.gc.pause_seconds], and mirrors the largest observation
      since the last registry reset into the [runtime.gc.max_pause_seconds]
      gauge the SLO engine reads. The probe measures real evacuation work
      the program was about to do anyway; its cost is bounded by the
      minor-heap size (microseconds at the default 256k words).

    Sampling is driven by whoever owns a loop: the metrics listener
    samples on scrape, [Deployment] and [Round_sim] sample at round
    close, and [bench e2e] samples per round so BENCH snapshots carry
    allocation and pause data. All metrics land in
    {!Telemetry.default}, so they ride the existing exporters, the time-series ring
    and the SLO rules unchanged.

    Statistics are per-domain in OCaml 5: [Gc.quick_stat] reports the
    calling domain's minor counts plus the shared major heap. Sample from the orchestrating domain (worker-domain minor allocation
    is promoted through the shared major heap, which {e is} visible
    here); the alarm fires on whichever domain ends the major cycle and
    only touches its own atomic. *)

type t

val get_default : unit -> t
(** The process-wide sampler on {!Telemetry.default}: on first use (safe
    from any domain) it registers the gauges/counters/histograms, takes
    the baseline [Gc.quick_stat] and hooks the major-cycle alarm. [Deployment], [Round_sim] and
    the metrics endpoint share this instance, so the alarm hook is
    registered exactly once. *)

val sample : ?full:bool -> t -> unit
(** Diff [Gc.quick_stat] against the previous sample and publish (see
    above). [~full:true] additionally runs the heap-walking [Gc.stat]
    for [runtime.live_words]/[runtime.free_words] — noticeably more
    expensive; reserve it for round boundaries. *)

val max_pause_seconds : t -> float
(** Largest probed pause since the sampler was installed (not affected
    by registry resets); [0.] before the first probe. *)
