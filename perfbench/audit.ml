(* Workload [audit]: the certified-soak path [colock soak] runs for a
   [certify on] scenario.

   Many fixed-size scenario runs of 500 jobs each, alternating a
   hotspot-style and a library-style scenario, no fault injection. Each
   scenario population runs under the proposed protocol, whole-object and
   tuple-level locking. A live sink feeds a JSONL encoder, [Obs.Certify],
   [Obs.Profile] and [Obs.Blame]; each [finish] runs after the run. The job
   count per scenario run stays fixed whatever the total work, because
   [Obs.Certify.finish] grows superlinearly with run length. *)

module Table = Lockmgr.Lock_table
module Metrics = Sim.Metrics

let templates =
  [| {|scenario audit-hotspot
catalog cells=8 objects=12 robots=4 effectors=32 refs=2
jobs 500
seed 23
techniques proposed whole-object tuple-level
arrivals uniform gap=90
popularity zipf skew=1.2
mix read=0.45 update=0.55 library=0 checkout=0
steps 1
cost 100
certify on
|};
     {|scenario audit-library
catalog cells=4 objects=20 robots=4 effectors=8 refs=2
jobs 500
seed 41
techniques proposed whole-object tuple-level
arrivals uniform gap=90
popularity zipf skew=1
mix read=0.4 update=0.25 library=0.35 checkout=0
steps 1
cost 100
certify on
|} |]

let techniques =
  [ Workload.Dsl.Proposed; Workload.Dsl.Whole_object; Workload.Dsl.Tuple_level ]

(* Scenario populations (each under all three techniques) per 10 seconds of
   [--seconds]; sized so one run measures about that long on a 2-core
   x86-64 host. A batch is one population of each template, so batches are
   equal work. *)
let populations_per_10_seconds = 6

(* The set-up of one scenario population: its scenario's catalog and
   instance graph, and its jobs. Population [p] uses template [p mod 2] and
   draws its jobs from seed [seed * 1000 + p]; the catalogs are the
   templates' own (their [seed] directives). *)
type setup = {
  dsl : Workload.Dsl.t;
  graph : Colock.Instance_graph.t;
  specs : Sim.Scenario.job_spec list;
}

let build ?(scope = Spans.untraced) ~seed ~population () =
  let dsl =
    match Workload.Dsl.parse templates.(population mod Array.length templates) with
    | Ok dsl -> dsl
    | Error message -> failwith message
  in
  let db = scope.within "setup.generate" (fun () -> Workload.Dsl.database dsl) in
  let graph =
    scope.within "setup.graph_build" (fun () -> Colock.Instance_graph.build db)
  in
  let specs =
    scope.within "setup.compile" (fun () ->
        Sim.Scenario.of_dsl db graph
          { dsl with Workload.Dsl.seed = (seed * 1000) + population })
  in
  { dsl; graph; specs }

(* Where the traced run puts its spans: around each sink handler (by the
   span's name), each finish and run ([scope]), and each plan closure. *)
type handlers = {
  on : string -> (Obs.Event.t -> unit) -> Obs.Event.t -> unit;
  scope : Spans.scope;
  wrap_plan :
    Workload.Dsl.technique ->
    (Table.txn_id -> Baselines.Technique.request list) ->
    Table.txn_id -> Baselines.Technique.request list;
}

let direct =
  { on = (fun _label handler -> handler); scope = Spans.untraced;
    wrap_plan = (fun _technique plan -> plan) }

type totals = {
  mutable jobs : int;
  mutable committed : int;
  mutable gave_up : int;
  mutable restarts : int;
  mutable response : int;
  mutable finished : int;
  mutable wait : int;
  mutable deadlocks : int;
  mutable requests : int;
  mutable conflict_tests : int;
  mutable waits : int;
  mutable events : int;
  mutable bytes : int;
  mutable uncertified : int;
  mutable unclean : int;
}

let totals () =
  { jobs = 0; committed = 0; gave_up = 0; restarts = 0; response = 0;
    finished = 0; wait = 0; deadlocks = 0; requests = 0; conflict_tests = 0;
    waits = 0; events = 0; bytes = 0; uncertified = 0; unclean = 0 }

(* One certified scenario run under one technique: the unit [colock soak]
   executes per scenario x technique. *)
let soak_run handlers totals setup technique =
  let channel = open_out (Report.output_file "audit.jsonl") in
  let sink = Obs.Sink.create [] in
  let certifier = Obs.Certify.create ~modes:Lockmgr.Lock_mode.certify_modes () in
  let profile = Obs.Profile.create () and blame = Obs.Blame.create () in
  let attach label handler = Obs.Sink.attach sink (handlers.on label handler) in
  attach "obs.jsonl_write" (Obs.Jsonl.handler ~meter:(Obs.Sink.meter sink) channel);
  attach "obs.certify_handle" (Obs.Certify.handle certifier);
  attach "obs.profile_handle" (Obs.Profile.handle profile);
  attach "obs.blame_handle" (Obs.Blame.handle blame);
  let table =
    Table.create ~obs:sink ~meta:(Colock.Instance_graph.lu_resolver setup.graph) ()
  in
  let jobs =
    Sim.Scenario.compile setup.graph
      (Sim.Scenario.technique_of_dsl setup.graph table technique)
      setup.specs
    |> List.map (fun job ->
           { job with
             Sim.Runner.steps =
               List.map
                 (fun step ->
                   { step with
                     Sim.Runner.plan = handlers.wrap_plan technique step.Sim.Runner.plan })
                 job.Sim.Runner.steps })
  in
  let metrics =
    handlers.scope.within "sim.run" (fun () ->
        Sim.Runner.run ~config:(Sim.Scenario.config_of_dsl setup.dsl) ~obs:sink
          ~table jobs)
  in
  let certificate =
    handlers.scope.within "obs.certify_finish" (fun () ->
        Obs.Certify.finish certifier)
  in
  ignore
    (handlers.scope.within "obs.profile_finish" (fun () ->
         Obs.Profile.finish profile)
      : Obs.Profile.report);
  ignore
    (handlers.scope.within "obs.blame_finish" (fun () ->
         Obs.Blame.finish blame)
      : Obs.Blame.report);
  close_out channel;
  let stats = Table.stats table in
  totals.jobs <- totals.jobs + List.length jobs;
  totals.committed <- totals.committed + metrics.Metrics.committed;
  totals.gave_up <- totals.gave_up + metrics.gave_up;
  totals.restarts <-
    totals.restarts + metrics.deadlock_aborts + metrics.timeout_aborts
    + metrics.wdl_aborts;
  totals.response <- totals.response + metrics.total_response;
  totals.finished <-
    totals.finished + metrics.committed + metrics.gave_up + metrics.crashed
    + metrics.shed;
  totals.wait <- totals.wait + metrics.total_wait;
  totals.deadlocks <- totals.deadlocks + metrics.deadlock_aborts;
  totals.requests <- totals.requests + stats.Lockmgr.Lock_stats.requests;
  totals.conflict_tests <- totals.conflict_tests + stats.conflict_tests;
  totals.waits <- totals.waits + stats.waits;
  totals.events <- totals.events + Obs.Sink.emit_count sink;
  totals.bytes <- totals.bytes + Obs.Sink.bytes_written sink;
  if not (Obs.Certify.certified certificate) then
    totals.uncertified <- totals.uncertified + 1;
  if Table.entry_count table <> 0 || Table.check_invariants table <> [] then
    totals.unclean <- totals.unclean + 1;
  metrics

let check report totals =
  Report.check report (totals.committed + totals.gave_up = totals.jobs)
    (Printf.sprintf "audit: %d committed + %d gave up <> %d jobs"
       totals.committed totals.gave_up totals.jobs);
  Report.check report (totals.uncertified = 0)
    (Printf.sprintf "audit: %d scenario run(s) not certified" totals.uncertified);
  Report.check report (totals.unclean = 0)
    (Printf.sprintf "audit: %d scenario run(s) left the lock table unclean"
       totals.unclean)

(* --------------------------------------------------------------- untraced *)

let measure report ~seed ~seconds =
  let template_count = Array.length templates in
  let batch_count = max 1 (populations_per_10_seconds * seconds / 10 / template_count) in
  let population_count = batch_count * template_count in
  let setups = Float.Array.make population_count 0.0 in
  let raw_setups = Float.Array.make population_count 0.0 in
  let totals = totals () in
  let batches = Measure.batches batch_count in
  let latencies_us =
    Float.Array.make (population_count * List.length techniques) 0.0
  in
  let sample = ref 0 in
  let committed = ref 0 and raw = ref 0.0 and normalized = ref 0.0 in
  ignore (Measure.live_words () : int);
  let start = Measure.now_ns () in
  for population = 0 to population_count - 1 do
    (* each population is set up right before its runs, so the set-up
       samples spread over the whole run like the batches do *)
    let setup, raw_setup, normalized_setup =
      Measure.time_normalized (fun () -> build ~seed ~population ())
    in
    Float.Array.set setups population normalized_setup;
    Float.Array.set raw_setups population raw_setup;
    (* a run lasts up to seconds, so each is normalized by the mean of the
       probes right before and right after it *)
    let probe_before = ref (Measure.probe ()) in
    List.iter
      (fun technique ->
        let metrics, seconds =
          Measure.time (fun () -> soak_run direct totals setup technique)
        in
        let probe_after = Measure.probe () in
        let on_reference =
          Measure.to_reference ~probe_ms:((!probe_before +. probe_after) /. 2.0)
            seconds
        in
        probe_before := probe_after;
        Float.Array.set latencies_us !sample (on_reference *. 1e6);
        incr sample;
        raw := !raw +. seconds;
        normalized := !normalized +. on_reference;
        committed := !committed + metrics.Metrics.committed)
      techniques;
    if (population + 1) mod template_count = 0 then begin
      ignore
        (Measure.record_batch batches ~work:!committed ~seconds:!raw
           ~probe_ms:(Measure.reference_probe_ms *. !raw /. !normalized)
          : float);
      committed := 0;
      raw := 0.0;
      normalized := 0.0
    end
  done;
  let measured = Measure.seconds_since start in
  Sys.remove (Report.output_file "audit.jsonl");
  let heap_mb = Measure.live_mb () in
  check report totals;
  report.Report.attempted <- totals.jobs;
  report.Report.failed <- totals.gave_up;
  Report.note
    "audit: %d populations x %d techniques, %d jobs, %d committed, %d \
     restarts, %d events, %.3f s measured, latency samples %d (one per \
     certified scenario run; quantiles per population, median over \
     populations)"
    population_count (List.length techniques) totals.jobs totals.committed
    totals.restarts totals.events measured !sample;
  let metric = Report.metric report in
  Report.note_wall_clock batches ~setup_s:(Measure.median raw_setups);
  metric "txn_per_s" ~unit:"1/s" (Measure.median_rate batches);
  let latency q =
    Measure.median (Measure.slice_quantiles latencies_us ~count:population_count q)
  in
  metric "latency_p50_us" ~unit:"us" (latency 0.5);
  metric "latency_p99_us" ~unit:"us" (latency 0.99);
  metric "attempts_per_commit" ~unit:"ratio"
    (Report.ratio (totals.committed + totals.restarts) totals.committed);
  metric "response_mean_ticks" ~unit:"ticks"
    (Report.ratio totals.response totals.finished);
  metric "setup_s" ~unit:"s" (Measure.median setups);
  metric "heap_live_mb" ~unit:"MB" heap_mb

(* ----------------------------------------------------------------- traced *)

let run_batches handlers totals ~seed ~batch_count =
  let batches = Measure.batches batch_count in
  for batch = 0 to batch_count - 1 do
    let setup = build ~scope:handlers.scope ~seed ~population:batch () in
    let batch_start = Measure.now_ns () in
    let committed =
      List.fold_left
        (fun committed technique ->
          let metrics = soak_run handlers totals setup technique in
          committed + metrics.Metrics.committed)
        0 techniques
    in
    ignore
      (Measure.record_batch batches ~work:committed
         ~seconds:(Measure.seconds_since batch_start)
        : float)
  done;
  Measure.median_rate batches

let traced_handlers spans ~plan_requests =
  let on label handler =
    let span = Spans.name spans label in
    fun event -> Spans.wrap spans span (fun () -> handler event)
  in
  let proposed = Spans.name spans "protocol.plan" in
  let baselines = Spans.name spans "baselines.plan" in
  { on; scope = Spans.scope spans;
    wrap_plan =
      (fun technique plan txn ->
        match technique with
        | Workload.Dsl.Proposed | Workload.Dsl.Proposed_rule4 ->
          let requests = Spans.wrap spans proposed (fun () -> plan txn) in
          plan_requests := !plan_requests + List.length requests;
          requests
        | Workload.Dsl.Whole_object | Workload.Dsl.Tuple_level ->
          Spans.wrap spans baselines (fun () -> plan txn)) }

let trace report ~seed ~seconds =
  let batch_count = max 1 (populations_per_10_seconds * seconds / 40) in
  let metric name ~unit value = Report.metric report ("audit." ^ name) ~unit value in
  let plain = totals () in
  let plain_rate = run_batches direct plain ~seed ~batch_count in
  check report plain;
  let spans = Spans.create () in
  let plan_requests = ref 0 in
  let handlers = traced_handlers spans ~plan_requests in
  let traced = totals () in
  let traced_rate = run_batches handlers traced ~seed ~batch_count in
  check report traced;
  Sys.remove (Report.output_file "audit.jsonl");
  Spans.write spans (Report.output_file "audit.spans.tsv");
  report.Report.attempted <- report.Report.attempted + plain.jobs + traced.jobs;
  report.Report.failed <- report.Report.failed + plain.gave_up + traced.gave_up;
  Report.note "audit: tracing overhead %+.1f%% with spans (%.0f txn/s untraced)"
    (100.0 *. ((plain_rate /. traced_rate) -. 1.0))
    plain_rate;
  let committed = traced.committed in
  let mean label ~scale = Spans.mean_self spans label ~scale in
  metric "setup.generate_s" ~unit:"s" (mean "setup.generate" ~scale:1.0);
  metric "setup.graph_build_s" ~unit:"s" (mean "setup.graph_build" ~scale:1.0);
  metric "setup.compile_s" ~unit:"s" (mean "setup.compile" ~scale:1.0);
  metric "protocol.plan_us" ~unit:"us" (mean "protocol.plan" ~scale:1e6);
  metric "protocol.plan_steps" ~unit:"count"
    (Report.ratio !plan_requests (Spans.calls spans "protocol.plan"));
  metric "baselines.plan_us" ~unit:"us" (mean "baselines.plan" ~scale:1e6);
  metric "lockmgr.requests_per_txn" ~unit:"count" (Report.ratio traced.requests committed);
  metric "lockmgr.conflict_tests_per_request" ~unit:"count"
    (Report.ratio traced.conflict_tests traced.requests);
  metric "lockmgr.waits_per_txn" ~unit:"count" (Report.ratio traced.waits committed);
  metric "sim.run_us_per_txn" ~unit:"us"
    (Spans.self_seconds spans "sim.run" *. 1e6 /. float_of_int committed);
  metric "sim.wait_ticks_per_txn" ~unit:"ticks" (Report.ratio traced.wait committed);
  metric "obs.events_per_txn" ~unit:"count" (Report.ratio traced.events committed);
  metric "obs.bytes_per_txn" ~unit:"bytes" (Report.ratio traced.bytes committed);
  metric "obs.jsonl_write_ns" ~unit:"ns" (mean "obs.jsonl_write" ~scale:1e9);
  metric "obs.certify_handle_ns" ~unit:"ns" (mean "obs.certify_handle" ~scale:1e9);
  metric "obs.profile_handle_ns" ~unit:"ns" (mean "obs.profile_handle" ~scale:1e9);
  metric "obs.blame_handle_ns" ~unit:"ns" (mean "obs.blame_handle" ~scale:1e9);
  metric "obs.certify_finish_ms" ~unit:"ms" (mean "obs.certify_finish" ~scale:1e3);
  metric "obs.profile_finish_ms" ~unit:"ms" (mean "obs.profile_finish" ~scale:1e3);
  metric "obs.blame_finish_ms" ~unit:"ms" (mean "obs.blame_finish" ~scale:1e3)
