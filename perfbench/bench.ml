(* The repository benchmark: one named workload per run, inputs from a
   seed, outputs checked, metrics printed as one JSON line (the last line
   of standard output). See perfbench/NOTES.md.

     bench.exe <addfriend|dialing|scale|wire> --seed N --seconds S --trace 0|1
               [--rounds R] [--domains D]

   --trace 0 times rounds of the public round engines and prints the
   end-to-end metrics; --trace 1 replays the same rounds layer by layer
   and prints the per-layer metrics. --rounds runs exactly R timed rounds
   instead of S seconds and --domains sets the pool size (the self-test
   uses both). *)

module Config = Alpenhorn_core.Config
module Deployment = Alpenhorn_core.Deployment
module Scale = Alpenhorn_sim.Scale
module Parallel = Alpenhorn_parallel.Parallel

type opts = { seed : int; seconds : float; rounds : int option }

module Stats = Alpenhorn_sim.Stats

(* Set-ups per untraced run; [setup_s] is the median of their host-scaled
   times. *)
let setup_runs = 5

(* The driver's domain pool: one domain unless --domains says otherwise.
   On the two-vCPU host a second domain made no round faster (dialing
   and wire rounds ran slower), made the host-speed correction useless
   and made [pairing.mont_mul] differ between runs of the same seed
   (perfbench/NOTES.md, "Host noise" and "Work counts"). *)
let pool_size = ref 1

(* ---- per-round series ---- *)

(* Named per-round samples, in round order. *)
type series = (string, float list) Hashtbl.t

let series () : series = Hashtbl.create 64
let get (s : series) name = Option.value ~default:[] (Hashtbl.find_opt s name)
let push (s : series) name v = Hashtbl.replace s name (v :: get s name)
let values (s : series) name = Array.of_list (List.rev (get s name))
let med s name = match values s name with [||] -> 0.0 | a -> Stats.median a
let total s name = Array.fold_left ( +. ) 0.0 (values s name)

(* ---- checks ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable spurious : int;  (** incoming calls nobody placed *)
  mutable problems : string list;
}

let tally () = { attempted = 0; failed = 0; spurious = 0; problems = [] }

let count t (attempted, failed) =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let problem t msg = t.problems <- msg :: t.problems

(* ---- the timed loop ---- *)

(* Closed loop: each round starts when the previous one returns. Runs
   [step] until [seconds] of wall time have passed (or exactly [rounds]
   rounds), never more than [max_rounds]. *)
let timed_loop o ~max_rounds step =
  let t0 = Probe.now () in
  let i = ref 0 in
  let more () =
    match o.rounds with
    | Some n -> !i < n
    | None -> !i < max_rounds && (!i = 0 || Probe.now () -. t0 < o.seconds)
  in
  while more () do
    step !i;
    incr i
  done

(* [step] for [timed_loop] that also records, in [heap], the peak
   major-heap words during the first timed round. Each add-friend round
   leaves more friends behind, so a peak over the whole run would depend
   on how many rounds fit into it. *)
let first_round_heap heap step i =
  if i = 0 then heap := snd (Probe.heap_peak_during (fun () -> step i)) else step i

(* A set-up's world with its wall time and host-scaled time. *)
let timed_setup setup =
  let w, dt, scaled = Hostspeed.time setup in
  (w, (dt, scaled))

(* All [setup_runs] set-up times: [first]'s, then those of the set-ups
   run after the timed rounds, each discarded at once, so the heap
   measured during the rounds holds one world only. *)
let setup_times first ~setup ~discard =
  Array.append [| first |]
    (Array.init (setup_runs - 1) (fun _ ->
         let w, t = timed_setup setup in
         discard w;
         t))

(* ---- output ---- *)

let per_layer_names =
  [
    ("pkg.rotate_s", "s"); ("pkg.extract_s", "s"); ("pkg.extractions", "count");
    ("pkg.extract_errors", "count"); ("client.af_submit_s", "s"); ("client.af_scan_s", "s");
    ("client.dial_advance_s", "s"); ("client.dial_submit_s", "s"); ("client.dial_scan_s", "s");
    ("client.af_scan_trials", "count"); ("client.af_scan_hits", "count");
    ("client.dial_tokens_checked", "count"); ("client.dial_hits", "count");
    ("client.af_hit_ratio", "ratio"); ("client.dial_hit_ratio", "ratio");
    ("client.dial_false_call_ratio", "ratio");
    ("mixnet.begin_round_s", "s"); ("mixnet.hop0_s", "s"); ("mixnet.hop1_s", "s");
    ("mixnet.hop2_s", "s"); ("mixnet.end_round_s", "s"); ("mixnet.onions_in", "count");
    ("mixnet.noise_added", "count"); ("mixnet.dropped", "count");
    ("mixnet.real_out_ratio", "ratio");
    ("mailbox.distribute_s", "s"); ("mailbox.bytes_published", "bytes");
    ("mailbox.max_load", "count"); ("pairing.mont_mul", "count");
    ("pairing.cache_hit_ratio", "ratio");
    ("runtime.alloc_mwords", "Mwords"); ("runtime.major_gcs", "count"); ("scale.run_s", "s");
    ("scale.tokens", "count"); ("scale.shards", "count"); ("scale.peak_words", "words");
    ("scale.writer_peak_bytes", "bytes"); ("scale.false_positive_ratio", "ratio");
    ("scale.false_negatives", "count"); ("rpc.hop0_s", "s"); ("rpc.hop1_s", "s");
    ("rpc.calls", "count"); ("rpc.bytes_per_round", "bytes"); ("rpc.errors", "count");
    ("trace.round_s", "s"); ("trace.unattributed_s", "s"); ("trace.overhead_ratio", "ratio");
    ("engine.round_p50_s", "s"); ("engine.clients_per_s", "1/s");
  ]

(* Every per-layer metric, 0 where the workload does not run that layer. *)
let layer_metrics measured =
  List.map
    (fun (name, unit_) ->
      Report.metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name measured)))
    per_layer_names

(* The per-round work counts the self-test requires to repeat exactly. *)
let work_counts =
  [
    "pairing.mont_mul"; "pkg.extractions"; "mixnet.onions_in"; "mixnet.noise_added";
    "mixnet.dropped"; "client.af_scan_trials"; "client.af_scan_hits";
    "client.dial_tokens_checked"; "client.dial_hits"; "mailbox.bytes_published"; "scale.tokens";
    "scale.shards"; "scale.peak_words"; "scale.writer_peak_bytes"; "scale.false_negatives";
    "rpc.calls";
  ]

let finish ~workload ~tally ~info ~metrics ~kernels ~trace (s : series option) =
  let correct = tally.problems = [] && tally.failed = 0 in
  let counts =
    match s with
    | None -> []
    | Some s ->
      [
        ( "counts",
          Report.Obj
            (List.filter_map
               (fun n ->
                 match values s n with
                 | [||] -> None
                 | a -> Some (n, Report.Arr (Array.to_list (Array.map (fun v -> Report.Num v) a))))
               work_counts) );
      ]
  in
  Report.print_info
    ([
       ("workload", Report.Str workload); ("pool_domains", Report.Num (float_of_int !pool_size));
       ("problems", Report.Arr (List.rev_map (fun p -> Report.Str p) tally.problems));
       ("spurious_calls", Report.Num (float_of_int tally.spurious));
     ]
    @ info @ counts
    @ if trace then [] else [ ("kernels", Report.metrics_json kernels) ]);
  List.iter prerr_endline (List.rev tally.problems);
  Report.print_result ~correct ~attempted:(Stdlib.max 1 tally.attempted) ~failed:tally.failed
    (if trace then metrics @ kernels else metrics);
  if not correct then exit 1

(* The end-to-end metrics of an untraced run, and its info-line
   figures. [setups] holds (wall time, host-scaled time) pairs from
   [Hostspeed.time]; [setup_s] is the median host-scaled set-up, because
   the host's own speed moved the wall time of identical set-ups by up to
   a third between sets of runs (perfbench/NOTES.md, "Host noise").
   Round wall times are printed but not gated: the median round of a run
   moved from run to run by more than the largest bound a gated metric
   may have. Traced runs carry the same figures as the ungated per-layer
   metrics [engine.round_p50_s] and [engine.clients_per_s]. *)
let e2e ~setups ~durations ~clients ~download ~heap_words ~tally =
  let n = Array.length durations in
  let num v = Report.Num v in
  let nums a = Report.Arr (Array.to_list (Array.map num a)) in
  let tail =
    match Report.tail durations with
    | Some (pct, v) ->
      [ ("round_tail_s", Report.Obj [ ("percentile", num (float_of_int pct)); ("value", num v) ]) ]
    | None -> []
  in
  ( [
      Report.metric "setup_s" "s" (Stats.median (Array.map snd setups));
      Report.metric "download_bytes_per_client" "bytes" (float_of_int download);
      Report.metric "heap_words_per_client" "words" (heap_words /. float_of_int clients);
      Report.metric "ok_frac" "ratio"
        (1.0
        -. Report.ratio (float_of_int tally.failed) (float_of_int (Stdlib.max 1 tally.attempted)));
    ],
    [
      ("round_p50_s", num (Stats.median durations));
      ("clients_per_s", num (float_of_int (clients * n) /. Array.fold_left ( +. ) 0.0 durations));
      ("round_samples", num (float_of_int n));
      ("rounds_s", nums durations);
      ("setups_s", nums (Array.map fst setups));
      ("setups_scaled_s", nums (Array.map snd setups));
    ]
    @ tail )

let max_size sizes = Array.fold_left Stdlib.max 0 sizes

(* ---- comparing two drivers' rounds ---- *)

let same_round tally ~what (a : Inproc.round) (b : Inproc.round) =
  let placed p =
    List.sort compare
      (List.map (fun x -> (x.Shape.caller, x.Shape.callee, x.Shape.intent, x.Shape.key)) p)
  in
  (* all events but the spurious calls, which depend on noise bytes *)
  let genuine (r : Inproc.round) =
    let spurious = Shape.spurious_calls ~placed:r.Inproc.placed r.Inproc.events in
    List.filter (fun e -> not (List.mem e spurious)) r.Inproc.events
  in
  let ga = genuine a and gb = genuine b in
  if ga <> gb then begin
    let only x y = String.concat " " (List.filter (fun e -> not (List.mem e y)) x) in
    problem tally
      (Printf.sprintf "%s: client events differ (only first: %s; only second: %s)" what (only ga gb)
         (only gb ga))
  end;
  if placed a.Inproc.placed <> placed b.Inproc.placed then
    problem tally (what ^ ": placed calls differ");
  if
    (a.Inproc.real_in, a.Inproc.noise_added, a.Inproc.dropped)
    <> (b.Inproc.real_in, b.Inproc.noise_added, b.Inproc.dropped)
  then problem tally (what ^ ": mixnet counts differ");
  if a.Inproc.sizes <> b.Inproc.sizes then problem tally (what ^ ": mailbox sizes differ")

(* Client, PKG and mixnet counters that must move identically in both
   drivers' rounds. [client.dial_hits] is compared less the spurious
   calls, whose number depends on the noise bytes. *)
let compared_counters =
  [
    "client.scan_attempts"; "client.scan_hits"; "client.dial_tokens_checked"; "pkg.extractions";
    "mix.onions_in"; "mix.onions_out"; "mix.onions_dropped"; "mix.noise_generated";
  ]

(* Workload checks on one round: requests of the previous round complete
   (add-friend), or this round's calls arrive (dialing). *)
let check_round tally (shape : Shape.t) ~seed phase ~round ~prev (r : Inproc.round) clients =
  match phase with
  | Inproc.Addfriend -> (
    match prev with
    | Some (p : Inproc.round) ->
      count tally
        (Shape.check_requests shape ~seed ~round:(round - 1) ~events_sent:p.Inproc.events
           ~events_next:r.Inproc.events clients)
    | None -> ())
  | Inproc.Dialing ->
    count tally
      (Shape.check_calls shape ~seed ~round ~placed:r.Inproc.placed ~events:r.Inproc.events);
    tally.spurious <-
      tally.spurious + List.length (Shape.spurious_calls ~placed:r.Inproc.placed r.Inproc.events)

(* ---- traced rounds ---- *)

(* Span names the replays use; each becomes the per-layer metric
   [<name>_s]. *)
let layers =
  [
    "pkg.rotate"; "pkg.extract"; "client.af_submit"; "client.af_scan"; "client.dial_advance";
    "client.dial_submit"; "client.dial_scan"; "mixnet.begin_round"; "mixnet.hop0"; "mixnet.hop1";
    "mixnet.hop2"; "mixnet.end_round"; "mailbox.distribute"; "rpc.hop0"; "rpc.hop1"; "scale.run";
  ]

(* One traced round's layer split. The spans are disjoint, lie inside
   the round and all belong to a known layer, so the layer times plus
   [trace.unattributed_s] add up to [trace.round_s]. *)
let record_layers s tally sp ~start ~stop =
  let per_layer = List.map (fun l -> (l, Probe.layer_total sp l)) layers in
  let covered = Probe.covered sp in
  if not (Probe.disjoint_within sp ~start ~stop) then
    problem tally "trace: layer spans overlap or leave the round";
  if Float.abs (List.fold_left (fun acc (_, v) -> acc +. v) 0.0 per_layer -. covered) > 1e-9 then
    problem tally "trace: a span belongs to no layer";
  List.iter (fun (l, v) -> push s (l ^ "_s") v) per_layer;
  push s "trace.round_s" (stop -. start);
  push s "trace.unattributed_s" (stop -. start -. covered)

(* Work counts of one replayed round, from counter deltas and the
   round's own result. *)
let record_counts s (c0, g0) (c1, g1) (r : Inproc.round) =
  let d name = float_of_int (Probe.delta c0 c1 name) in
  let f = float_of_int in
  List.iter
    (fun (name, v) -> push s name v)
    [
      ("pkg.extractions", d "pkg.extractions"); ("pkg.extract_errors", d "pkg.extract_errors");
      ("client.af_scan_trials", d "client.scan_attempts");
      ("client.af_scan_hits", d "client.scan_hits");
      ("client.dial_tokens_checked", d "client.dial_tokens_checked");
      ("client.dial_hits", d "client.dial_hits");
      ( "client.dial_false_calls",
        f (List.length (Shape.spurious_calls ~placed:r.Inproc.placed r.Inproc.events)) );
      ("mixnet.onions_in", f r.Inproc.onions_in);
      ("mixnet.noise_added", f r.Inproc.noise_added); ("mixnet.dropped", f r.Inproc.dropped);
      ("mixnet.real_out", f (r.Inproc.out - r.Inproc.dropped - r.Inproc.noise_added));
      ("mixnet.out", f r.Inproc.out);
      ("mailbox.bytes_published", f (Array.fold_left ( + ) 0 r.Inproc.sizes));
      ("mailbox.max_load", f (max_size r.Inproc.loads));
      ("pairing.mont_mul", d "pairing.mont_mul"); ("pairing.cache_hits", d "pairing.cache_hits");
      ("pairing.cache_misses", d "pairing.cache_misses");
      ("runtime.alloc_mwords", (Probe.alloc_words g1 -. Probe.alloc_words g0) /. 1e6);
      ("runtime.major_gcs", f (g1.Gc.major_collections - g0.Gc.major_collections));
    ]

let reading () = (Probe.read (), Gc.quick_stat ())

(* A traced round: counters and GC read outside the round's window. *)
let traced_round s tally f =
  let sp = Probe.spans () in
  let before = reading () in
  let start = Probe.now () in
  let r = f sp in
  let stop = Probe.now () in
  let after = reading () in
  record_layers s tally sp ~start ~stop;
  record_counts s before after r;
  (r, fst before, fst after)

let traced_metrics s ~clients ~engine_times =
  let tot = total s in
  List.map (fun n -> (n, med s n)) (List.map (fun l -> l ^ "_s") layers)
  @ List.map
      (fun n -> (n, med s n))
      [
        "pkg.extractions"; "pkg.extract_errors"; "client.af_scan_trials"; "client.af_scan_hits";
        "client.dial_tokens_checked"; "client.dial_hits"; "mixnet.onions_in"; "mixnet.noise_added";
        "mixnet.dropped"; "mailbox.bytes_published"; "mailbox.max_load"; "pairing.mont_mul";
        "runtime.alloc_mwords"; "runtime.major_gcs"; "scale.tokens"; "scale.shards";
        "scale.peak_words"; "scale.writer_peak_bytes"; "scale.false_positive_ratio";
        "scale.false_negatives"; "rpc.calls"; "rpc.bytes_per_round"; "rpc.errors"; "trace.round_s";
        "trace.unattributed_s";
      ]
  @ [
      ( "client.af_hit_ratio",
        Report.ratio (tot "client.af_scan_hits") (tot "client.af_scan_trials") );
      ( "client.dial_hit_ratio",
        Report.ratio (tot "client.dial_hits") (tot "client.dial_tokens_checked") );
      ( "client.dial_false_call_ratio",
        Report.ratio (tot "client.dial_false_calls") (tot "client.dial_tokens_checked") );
      ("mixnet.real_out_ratio", Report.ratio (tot "mixnet.real_out") (tot "mixnet.out"));
      ( "pairing.cache_hit_ratio",
        Report.ratio (tot "pairing.cache_hits")
          (tot "pairing.cache_hits" +. tot "pairing.cache_misses")
      );
      ( "trace.overhead_ratio",
        med s "trace.round_s" /. Stats.median (Array.of_list engine_times) -. 1.0 );
      ("engine.round_p50_s", Stats.median (Array.of_list engine_times));
      ( "engine.clients_per_s",
        float_of_int (clients * List.length engine_times)
        /. List.fold_left ( +. ) 0.0 engine_times );
    ]

let compare_counters tally ~what (c0, c1, (a : Inproc.round)) (c2, c3, (b : Inproc.round)) =
  List.iter
    (fun n ->
      if Probe.delta c0 c1 n <> Probe.delta c2 c3 n then
        problem tally (Printf.sprintf "%s: counter %s differs between drivers" what n))
    compared_counters;
  let genuine_hits c0 c1 (r : Inproc.round) =
    Probe.delta c0 c1 "client.dial_hits"
    - List.length (Shape.spurious_calls ~placed:r.Inproc.placed r.Inproc.events)
  in
  if genuine_hits c0 c1 a <> genuine_hits c2 c3 b then
    problem tally (what ^ ": genuine dial hits differ between drivers")

(* ---- in-process workloads: addfriend, dialing ---- *)

let shape_info (shape : Shape.t) phase =
  let c = shape.Shape.config in
  let mu =
    match phase with
    | Inproc.Addfriend -> c.Config.addfriend_noise_mu
    | Inproc.Dialing -> c.Config.dialing_noise_mu
  in
  [
    ("clients", Report.Num (float_of_int shape.Shape.clients));
    ("noise_per_mailbox", Report.Num (mu *. float_of_int c.Config.chain_length));
    ("chain_length", Report.Num (float_of_int c.Config.chain_length));
    ("pkgs", Report.Num (float_of_int c.Config.n_pkgs));
    ("curve", Report.Str c.Config.param_name);
  ]

let max_rounds (shape : Shape.t) = function
  | Inproc.Addfriend -> Shape.max_af_rounds shape - 1
  | Inproc.Dialing -> max_int

let inproc_untraced o (shape : Shape.t) phase =
  let seed = o.seed and tally = tally () in
  let setup () =
    let e = Inproc.engine_setup shape ~seed in
    Inproc.prepare_engine e phase;
    (e, Inproc.engine_round e phase)
  in
  let (e, warm), first = timed_setup setup in
  let clients = e.Inproc.e_clients in
  check_round tally shape ~seed phase ~round:1 ~prev:None warm clients;
  let prev = ref warm and durations = ref [] and download = ref (max_size warm.Inproc.sizes) in
  let heap = ref 0 in
  Gc.full_major ();
  timed_loop o ~max_rounds:(max_rounds shape phase)
    (first_round_heap heap (fun _ ->
         Inproc.prepare_engine e phase;
         let r, dt = Probe.time (fun () -> Inproc.engine_round e phase) in
         durations := dt :: !durations;
         download := Stdlib.max !download (max_size r.Inproc.sizes);
         check_round tally shape ~seed phase
           ~round:(Inproc.engine_round_number e phase)
           ~prev:(Some !prev) r clients;
         prev := r));
  let setups = setup_times first ~setup ~discard:ignore in
  let kernels = Kernels.run () in
  let metrics, info =
    e2e ~setups ~durations:(Array.of_list (List.rev !durations)) ~clients:shape.Shape.clients
      ~download:!download ~heap_words:(float_of_int !heap) ~tally
  in
  finish ~workload:shape.Shape.name ~tally ~info:(info @ shape_info shape phase) ~metrics ~kernels
    ~trace:false None

let inproc_traced o (shape : Shape.t) phase =
  let seed = o.seed and tally = tally () and s = series () in
  let e = Inproc.engine_setup ~twin:true shape ~seed in
  let r = Inproc.replay_setup shape ~seed in
  Inproc.prepare_engine e phase;
  let warm_e = Inproc.engine_round e phase in
  Inproc.prepare_replay r phase;
  let warm_r = Inproc.replay_round (Probe.spans ()) r phase in
  same_round tally ~what:"round 1" warm_e warm_r;
  check_round tally shape ~seed phase ~round:1 ~prev:None warm_r r.Inproc.r_clients;
  let prev = ref warm_r and engine_times = ref [] in
  timed_loop o ~max_rounds:(max_rounds shape phase) (fun i ->
      let round = i + 2 in
      let what = Printf.sprintf "round %d" round in
      Inproc.prepare_engine e phase;
      let c0 = Probe.read () in
      let er, te = Probe.time (fun () -> Inproc.engine_round e phase) in
      let c1 = Probe.read () in
      engine_times := te :: !engine_times;
      Inproc.prepare_replay r phase;
      let rr, c2, c3 = traced_round s tally (fun sp -> Inproc.replay_round sp r phase) in
      same_round tally ~what er rr;
      compare_counters tally ~what (c0, c1, er) (c2, c3, rr);
      check_round tally shape ~seed phase ~round ~prev:(Some !prev) rr r.Inproc.r_clients;
      prev := rr);
  let kernels = Kernels.run () in
  finish ~workload:shape.Shape.name ~tally
    ~info:(("round_samples", Report.Num (float_of_int (List.length !engine_times))) :: shape_info shape phase)
    ~metrics:
      (layer_metrics (traced_metrics s ~clients:shape.Shape.clients ~engine_times:!engine_times))
    ~kernels ~trace:true (Some s)

(* ---- scale ---- *)

let scale_round ~seed ~round =
  Scale.run
    ~seed:(Printf.sprintf "perfbench-scale-%d-%d" seed round)
    ~clients:Shape.scale_clients ()

let scale_check tally (r : Scale.result) =
  count tally (r.Scale.scan_dialed, r.Scale.scan_dialed - r.Scale.scan_hits);
  if not (Scale.within_budget r) then
    problem tally
      (Printf.sprintf "scale: %d peak words exceed the budget of %d" r.Scale.peak_words
         (Scale.budget_words ~clients:r.Scale.clients))

let scale_info (r : Scale.result) =
  [
    ("clients", Report.Num (float_of_int r.Scale.clients));
    ("shards", Report.Num (float_of_int r.Scale.shards));
    ("noise_per_mailbox", Report.Num (float_of_int (r.Scale.noise / r.Scale.num_mailboxes)));
    ("active", Report.Num (float_of_int r.Scale.active));
  ]

let scale_untraced o =
  let seed = o.seed and tally = tally () in
  let setup () = scale_round ~seed ~round:0 in
  let warm, first = timed_setup setup in
  let durations = ref [] and words = ref [] and download = ref 0 in
  timed_loop o ~max_rounds:max_int (fun i ->
      let r, dt = Probe.time (fun () -> scale_round ~seed ~round:(i + 1)) in
      durations := dt :: !durations;
      words := r.Scale.words_per_client :: !words;
      download := Stdlib.max !download r.Scale.bytes_per_client;
      scale_check tally r);
  let setups = setup_times first ~setup ~discard:ignore in
  let kernels = Kernels.run () in
  let metrics, info =
    e2e ~setups ~durations:(Array.of_list (List.rev !durations)) ~clients:Shape.scale_clients
      ~download:!download
      ~heap_words:(Stats.median (Array.of_list !words) *. float_of_int Shape.scale_clients)
      ~tally
  in
  finish ~workload:"scale" ~tally ~info:(info @ scale_info warm) ~metrics ~kernels ~trace:false None

(* [Scale.run] is one call from outside, so the traced round is that one
   call under the [scale.run] span, and its time is the engine's too. *)
let scale_traced o =
  let seed = o.seed and tally = tally () and s = series () in
  let warm = scale_round ~seed ~round:0 in
  let engine_times = ref [] in
  timed_loop o ~max_rounds:max_int (fun i ->
      let round = i + 1 in
      let sp = Probe.spans () in
      let before = reading () in
      let start = Probe.now () in
      let r = Probe.span sp "scale.run" (fun () -> scale_round ~seed ~round) in
      let stop = Probe.now () in
      let after = reading () in
      engine_times := (stop -. start) :: !engine_times;
      record_layers s tally sp ~start ~stop;
      scale_check tally r;
      let f = float_of_int in
      let d name = f (Probe.delta (fst before) (fst after) name) in
      List.iter
        (fun (name, v) -> push s name v)
        [
          ("scale.tokens", f r.Scale.tokens); ("scale.shards", f r.Scale.shards);
          ("scale.peak_words", f r.Scale.peak_words);
          ("scale.writer_peak_bytes", f r.Scale.writer_peak_bytes);
          ( "scale.false_positive_ratio",
            Report.ratio
              (f r.Scale.scan_false_positives)
              (f (r.Scale.scan_clients - r.Scale.scan_dialed)) );
          ("scale.false_negatives", f (r.Scale.scan_dialed - r.Scale.scan_hits));
          ("mailbox.bytes_published", f r.Scale.total_filter_bytes);
          ("pairing.mont_mul", d "pairing.mont_mul");
          ( "runtime.alloc_mwords",
            (Probe.alloc_words (snd after) -. Probe.alloc_words (snd before)) /. 1e6 );
          ( "runtime.major_gcs",
            f ((snd after).Gc.major_collections - (snd before).Gc.major_collections) );
        ]);
  let kernels = Kernels.run () in
  finish ~workload:"scale" ~tally
    ~info:(("round_samples", Report.Num (float_of_int (List.length !engine_times))) :: scale_info warm)
    ~metrics:
      (layer_metrics (traced_metrics s ~clients:Shape.scale_clients ~engine_times:!engine_times))
    ~kernels ~trace:true (Some s)

(* ---- wire ---- *)

let wire_info =
  ( "server_processes",
    Report.Num (float_of_int (Wirewl.config.Config.n_pkgs + Wirewl.config.Config.chain_length)) )
  :: ("server_pool_domains", Report.Num 1.0)
  :: shape_info Shape.wire Inproc.Dialing

(* An operation is a wire round; one that raises [Round_failed] failed,
   and the failure is a problem of the run. *)
let wire_round tally (w : Wirewl.world) =
  Wirewl.prepare w;
  tally.attempted <- tally.attempted + 1;
  match Probe.time (fun () -> Wirewl.engine_round w) with
  | x -> Some x
  | exception Deployment.Round_failed { round; attempts; _ } ->
    tally.failed <- tally.failed + 1;
    problem tally
      (Printf.sprintf "wire round %d: Round_failed after %d attempts" round attempts);
    None

let wire_untraced o =
  let seed = o.seed and tally = tally () in
  let setup () =
    let w = Wirewl.setup ~seed in
    Wirewl.prepare w;
    (w, Wirewl.engine_round w)
  in
  let (w, warm), first = timed_setup setup in
  (* A failed round still uses up a round number and may leave clients
     mid-round, so the in-process replay below covers only the rounds
     before the first failure. *)
  let compared = ref [ warm ] and failed = ref false and durations = ref [] in
  let download = ref (max_size warm.Inproc.sizes) in
  let heap = ref 0 in
  Gc.full_major ();
  timed_loop o ~max_rounds:max_int
    (first_round_heap heap (fun _ ->
         match wire_round tally w with
         | Some (r, dt) ->
           durations := dt :: !durations;
           download := Stdlib.max !download (max_size r.Inproc.sizes);
           if not !failed then compared := r :: !compared
         | None -> failed := true));
  Wirewl.teardown w;
  let setups = setup_times first ~setup ~discard:(fun (w, _) -> Wirewl.teardown w) in
  (* The same rounds through the in-process engine must give the same
     client events; run after the timing so it shares no heap with it. *)
  let shadow = Inproc.engine_setup Shape.wire ~seed in
  List.iteri
    (fun i (wr : Inproc.round) ->
      let round = i + 1 in
      Inproc.prepare_engine shadow Inproc.Dialing;
      let sr = Inproc.engine_round shadow Inproc.Dialing in
      same_round tally ~what:(Printf.sprintf "wire vs in-process, round %d" round) wr sr;
      tally.spurious <-
        tally.spurious + List.length (Shape.spurious_calls ~placed:wr.Inproc.placed wr.Inproc.events);
      let _, failed =
        Shape.check_calls Shape.wire ~seed ~round ~placed:wr.Inproc.placed ~events:wr.Inproc.events
      in
      if failed > 0 then
        problem tally (Printf.sprintf "wire round %d: %d calls did not arrive" round failed))
    (List.rev !compared);
  let kernels = Kernels.run () in
  let metrics, info =
    e2e ~setups ~durations:(Array.of_list (List.rev !durations)) ~clients:Shape.wire.Shape.clients
      ~download:!download ~heap_words:(float_of_int !heap) ~tally
  in
  finish ~workload:"wire" ~tally ~info:(info @ wire_info) ~metrics ~kernels ~trace:false None

let wire_traced o =
  let seed = o.seed and tally = tally () and s = series () in
  let w = Wirewl.setup ~seed in
  let r = Wirewl.replay_setup w in
  Fun.protect ~finally:(fun () -> Wirewl.replay_close r; Wirewl.teardown w) @@ fun () ->
  Wirewl.prepare w;
  let warm_e = Wirewl.engine_round w in
  Wirewl.prepare_replay r;
  let warm_r = Wirewl.replay_round (Probe.spans ()) r in
  same_round tally ~what:"round 1" warm_e warm_r;
  (* After a failed engine round the replay is out of step with the
     engine, so the rounds after it are timed but not replayed. *)
  let engine_times = ref [] and failed = ref false in
  timed_loop o ~max_rounds:max_int (fun i ->
      let round = i + 2 in
      let what = Printf.sprintf "round %d" round in
      let c0 = Probe.read () in
      match wire_round tally w with
      | None -> failed := true
      | Some (_, te) when !failed -> engine_times := te :: !engine_times
      | Some (er, te) ->
        let c1 = Probe.read () in
        engine_times := te :: !engine_times;
        Wirewl.prepare_replay r;
        let calls = r.Wirewl.calls and errors = r.Wirewl.errors and bytes = r.Wirewl.bytes in
        let rr, c2, c3 = traced_round s tally (fun sp -> Wirewl.replay_round sp r) in
        push s "rpc.calls" (float_of_int (r.Wirewl.calls - calls));
        push s "rpc.errors" (float_of_int (r.Wirewl.errors - errors));
        push s "rpc.bytes_per_round" (float_of_int (r.Wirewl.bytes - bytes));
        same_round tally ~what er rr;
        compare_counters tally ~what (c0, c1, er) (c2, c3, rr);
        let _, failed =
          Shape.check_calls Shape.wire ~seed ~round ~placed:rr.Inproc.placed ~events:rr.Inproc.events
        in
        if failed > 0 then
          problem tally (Printf.sprintf "%s: %d calls did not arrive" what failed));
  let kernels = Kernels.run () in
  finish ~workload:"wire" ~tally
    ~info:(("round_samples", Report.Num (float_of_int (List.length !engine_times))) :: wire_info)
    ~metrics:
      (layer_metrics (traced_metrics s ~clients:Shape.wire.Shape.clients ~engine_times:!engine_times))
    ~kernels ~trace:true (Some s)

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: bench.exe <addfriend|dialing|scale|wire> --seed N --seconds S --trace 0|1 [--rounds R] \
     [--domains D]\n       bench.exe serve <pkg|mixer> --seed SEED --index I";
  exit 2

let flags args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let int_flag fl name ~default =
  match List.assoc_opt name fl with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: role :: rest ->
    let fl = flags rest in
    Wirewl.serve ~role
      ~seed:(Option.value ~default:"" (List.assoc_opt "seed" fl))
      ~index:(int_flag fl "index" ~default:0)
  | _ :: workload :: rest ->
    let fl = flags rest in
    let o =
      {
        seed = int_flag fl "seed" ~default:1;
        seconds = float_of_int (int_flag fl "seconds" ~default:10);
        rounds = Option.map (fun _ -> int_flag fl "rounds" ~default:1) (List.assoc_opt "rounds" fl);
      }
    in
    let trace = int_flag fl "trace" ~default:0 = 1 in
    pool_size := Stdlib.max 1 (int_flag fl "domains" ~default:!pool_size);
    Parallel.set_default_size !pool_size;
    (match (workload, trace) with
    | "addfriend", false -> inproc_untraced o Shape.addfriend Inproc.Addfriend
    | "addfriend", true -> inproc_traced o Shape.addfriend Inproc.Addfriend
    | "dialing", false -> inproc_untraced o Shape.dialing Inproc.Dialing
    | "dialing", true -> inproc_traced o Shape.dialing Inproc.Dialing
    | "scale", false -> scale_untraced o
    | "scale", true -> scale_traced o
    | "wire", false -> wire_untraced o
    | "wire", true -> wire_traced o
    | _ -> usage ())
  | _ -> usage ()
