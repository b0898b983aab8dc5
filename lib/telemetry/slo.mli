(** SLO / health engine: declarative rules evaluated over snapshots
    (DESIGN.md §9).

    A {!rule} names a scalar {!source} derived from a
    {!Telemetry.Snapshot.t} (counter sum, worst gauge, histogram
    statistic, span statistic, or a hit-rate over two counters), a
    comparison and a threshold. {!evaluate} turns a rule list and a
    snapshot into a pass/fail {!report}. Rules whose metric is absent
    from the snapshot are {e skipped} (reported with [value = None],
    passing), so one rule set serves wall-clock rounds, simulated rounds
    and partial deployments alike.

    {!default_rules} is Alpenhorn's built-in set: round-deadline misses
    for both phases, the §6 mailbox-load ceiling, the pairing-cache
    hit-rate floor, zero undecryptable onions, and DES queue quiescence. *)

type source =
  | Counter of string  (** {!Telemetry.Snapshot.counter_sum} *)
  | Gauge of string  (** max over the gauge's label sets *)
  | Gauge_min of string
      (** min over the gauge's label sets — the worst reading when the
          rule is a floor (e.g. per-domain pool utilization) *)
  | Hist_mean of string  (** mean of label-merged histogram *)
  | Hist_p99 of string
  | Hist_max of string
  | Span_total of string  (** summed duration of spans with this name *)
  | Span_max of string  (** slowest single span *)
  | Span_count of string
  | Hit_rate of string * string
      (** [Hit_rate (hits, misses)] = hits / (hits + misses); absent when
          both counters are missing or their sum is zero *)

type cmp = Le | Ge

type rule = {
  name : string;
  description : string;
  source : source;
  cmp : cmp;
  threshold : float;
}

val rule : name:string -> description:string -> source -> cmp -> float -> rule

val value_of : Telemetry.Snapshot.t -> source -> float option
(** The scalar a source denotes in this snapshot; [None] when the
    underlying metric is absent (or a hit-rate has no observations). *)

type check = {
  rule : rule;
  value : float option;  (** [None] = metric absent, rule skipped *)
  pass : bool;
}

type report = { checks : check list; healthy : bool }

val evaluate : rule list -> Telemetry.Snapshot.t -> report

val default_rules :
  ?addfriend_deadline:float ->
  ?dialing_deadline:float ->
  ?mailbox_ceiling:float ->
  ?cache_hit_floor:float ->
  ?max_consecutive_aborts:float ->
  ?recovery_ceiling:float ->
  ?gc_pause_ceiling:float ->
  ?heap_words_ceiling:float ->
  ?pool_util_floor:float ->
  ?scale_bytes_per_client_ceiling:float ->
  ?scale_words_per_client_ceiling:float ->
  unit ->
  rule list
(** Alpenhorn's built-in rule set. Deadlines, the mailbox ceiling and the
    failure-model bounds ([max_consecutive_aborts] over the
    [faults.consecutive_aborts] gauge, [recovery_ceiling] in seconds over
    the [faults.recovery_seconds] histogram — DESIGN.md §10) default to
    [infinity] (never fail) and the cache floor to [0.0], so callers opt
    into exactly the bounds they can justify; the zero-drop and
    DES-quiescence rules are always armed. Fault metrics are absent in a
    fault-free run, so those rules skip rather than pass vacuously.

    Runtime rules (DESIGN.md §12) follow the same pattern:
    [gc_pause_ceiling] bounds the [runtime.gc.max_pause_seconds] gauge,
    [heap_words_ceiling] the [runtime.heap_words] gauge (both default
    [infinity]), and [pool_util_floor] (default [0.0]) puts a
    {!Gauge_min} floor under [parallel.domain_util] — every rule skips
    when no {!Runtime_stats} sampler or domain pool has populated its
    metric.

    Scale rules guard million-user rounds (DESIGN.md §15):
    [scale_bytes_per_client_ceiling] bounds the [scale.bytes_per_client]
    gauge (a client's §5.1 shard download) and
    [scale_words_per_client_ceiling] the [scale.words_per_client] gauge
    (server-side peak heap amortized per client); both default [infinity]
    and skip when no scale round has run. *)

val pp_report : Format.formatter -> report -> unit
(** One line per rule: [[ok|FAIL|skip] name value cmp threshold]. *)

val report_to_json : report -> string
(** Self-contained JSON document; non-finite thresholds serialize as
    [null]. *)
