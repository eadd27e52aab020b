(* Workload [shared]: the non-disjoint case through [Sim.Runner] with the
   proposed protocol.

   A small catalog with a hot effector library (64 cells x 8 robots, 8
   effectors, 4 references per robot), Zipf popularity, and a mix of reads,
   robot updates, library updates and cell check-outs of 3 steps each, so
   deadlocks and restarts occur. Rule 4' keeps the library read-only except
   for library-update jobs, which get the modify right as they begin.
   Arrivals are open-loop in virtual time at a gap below saturation. The
   run replays [populations] distinct populations of 200 jobs, cycling, one
   [Runner.run] per batch, all on one lock table. *)

module Table = Lockmgr.Lock_table
module Metrics = Sim.Metrics

let scenario_text =
  {|scenario shared
catalog cells=64 objects=8 robots=8 effectors=8 refs=4
jobs 200
seed 7
techniques proposed
arrivals uniform gap=100
popularity zipf skew=1
mix read=0.6 update=0.3 library=0.05 checkout=0.05
checkout hold=300 steps=1
steps 3
cost 100
|}

let populations = 160

(* The run is [segments] equal segments, each on a freshly built set-up,
   so the set-up samples spread over the whole run like the batches do. *)
let segments = 10

(* Batches per second of [--seconds]; sized so one run measures about that
   long on a 2-core x86-64 host. *)
let batches_per_second = 80

(* A batch whose last commit lands this many single-job service times
   after its last arrival has built a backlog: its wall cost would grow
   with the batch length. *)
let backlog_limit = 12

let scenario =
  match Workload.Dsl.parse ~name:"shared" scenario_text with
  | Ok dsl -> dsl
  | Error message -> failwith message

let service_ticks (dsl : Workload.Dsl.t) = dsl.steps * dsl.cost

type setup = {
  dsl : Workload.Dsl.t;
  graph : Colock.Instance_graph.t;
  table : Table.t;
  specs : Sim.Scenario.job_spec list array;
  jobs : Sim.Runner.job list array;
  last_arrival : int array;
  rights : Authz.Rights.t;
  library_job : bool array array;  (* per population, per job *)
}

(* The catalog is the scenario's own (its [seed] directive); population [p]
   draws its jobs from seed [seed * 1000 + p], so the seed varies the work
   and not the data it runs over. *)
let build ?obs ?(scope = Spans.untraced) ~seed () =
  let dsl = scenario in
  let db = scope.within "setup.generate" (fun () -> Workload.Dsl.database dsl) in
  let graph =
    scope.within "setup.graph_build" (fun () -> Colock.Instance_graph.build db)
  in
  let table = Table.create ?obs () in
  let rights = Authz.Rights.create () in
  Authz.Rights.set_relation_default rights ~relation:"effectors" false;
  let protocol = Colock.Protocol.create ~rights graph table in
  let specs, jobs =
    scope.within "setup.compile" (fun () ->
        let specs =
          Array.init populations (fun population ->
              Sim.Scenario.of_dsl db graph
                { dsl with Workload.Dsl.seed = (seed * 1000) + population })
        in
        ( specs,
          Array.map
            (Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol))
            specs ))
  in
  let last_arrival =
    Array.map
      (List.fold_left (fun latest spec -> max latest spec.Sim.Scenario.arrival) 0)
      specs
  in
  let library_job =
    Array.map
      (fun specs ->
        Array.of_list
          (List.map
             (fun spec ->
               List.exists
                 (function
                   | Sim.Scenario.Node_update node ->
                     List.mem "effectors" (Colock.Node_id.steps node)
                   | Sim.Scenario.Node_read _ -> false)
                 spec.Sim.Scenario.ops)
             specs))
      specs
  in
  { dsl; graph; table; specs; jobs; last_arrival; rights; library_job }

type totals = {
  mutable committed : int;
  mutable gave_up : int;
  mutable restarts : int;
  mutable response : int;
  mutable finished : int;
  mutable wait : int;
  mutable deadlocks : int;
  mutable backlogged : int;
  mutable worst_overrun : int;  (* ticks from last arrival to last commit *)
  mutable unclean : int;  (* batches leaving entries or invariant breaks *)
}

let totals () =
  { committed = 0; gave_up = 0; restarts = 0; response = 0; finished = 0;
    wait = 0; deadlocks = 0; backlogged = 0; worst_overrun = 0; unclean = 0 }

let account totals setup population (metrics : Metrics.t) =
  totals.committed <- totals.committed + metrics.committed;
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
  let overrun = metrics.makespan - setup.last_arrival.(population) in
  totals.worst_overrun <- max totals.worst_overrun overrun;
  if overrun > backlog_limit * service_ticks setup.dsl then
    totals.backlogged <- totals.backlogged + 1;
  if Table.entry_count setup.table <> 0 || Table.check_invariants setup.table <> []
  then totals.unclean <- totals.unclean + 1

let run_batch setup batch =
  let population = batch mod populations in
  let metrics =
    Sim.Runner.run ~config:(Sim.Scenario.config_of_dsl setup.dsl)
      ~on_begin:(fun txn ->
        if setup.library_job.(population).(txn - 1) then
          Authz.Rights.grant_modify setup.rights ~txn ~relation:"effectors"
        else Authz.Rights.revoke_modify setup.rights ~txn ~relation:"effectors")
      ~table:setup.table setup.jobs.(population)
  in
  (population, metrics)

let check report ~jobs totals =
  Report.check report (totals.committed + totals.gave_up = jobs)
    (Printf.sprintf "shared: %d committed + %d gave up <> %d jobs"
       totals.committed totals.gave_up jobs);
  Report.check report (totals.backlogged = 0)
    (Printf.sprintf "shared: %d batch(es) built a backlog" totals.backlogged);
  Report.note "shared: worst overrun past the last arrival %d ticks (limit %d)"
    totals.worst_overrun (backlog_limit * service_ticks scenario);
  Report.check report (totals.unclean = 0)
    (Printf.sprintf "shared: %d batch(es) left the lock table unclean"
       totals.unclean)

let jobs_per_batch setup = List.length setup.specs.(0)

(* --------------------------------------------------------------- untraced *)

let measure report ~seed ~seconds =
  let per_segment = max 1 (batches_per_second * seconds / segments) in
  let batch_count = segments * per_segment in
  let setups = Float.Array.make segments 0.0 in
  let raw_setups = Float.Array.make segments 0.0 in
  let setup = ref None in
  let totals = totals () in
  let batches = Measure.batches batch_count in
  let latencies_us = Float.Array.make batch_count 0.0 in
  let jobs = ref 0 in
  let start = Measure.now_ns () in
  for batch = 0 to batch_count - 1 do
    if batch mod per_segment = 0 then begin
      setup := None;
      let built, raw, normalized = Measure.time_normalized (fun () -> build ~seed ()) in
      Float.Array.set setups (batch / per_segment) normalized;
      Float.Array.set raw_setups (batch / per_segment) raw;
      setup := Some built
    end;
    let setup = Option.get !setup in
    let batch_start = Measure.now_ns () in
    let population, metrics = run_batch setup batch in
    let elapsed = Measure.seconds_since batch_start in
    let probe_ms =
      Measure.record_batch batches ~work:metrics.Metrics.committed ~seconds:elapsed
    in
    Float.Array.set latencies_us batch (Measure.to_reference ~probe_ms elapsed *. 1e6);
    jobs := !jobs + List.length setup.jobs.(population);
    account totals setup population metrics
  done;
  let measured = Measure.seconds_since start in
  let heap_mb = Measure.live_mb () in
  let setup = Option.get !setup in
  check report ~jobs:!jobs totals;
  report.Report.attempted <- !jobs;
  report.Report.failed <- totals.gave_up;
  Report.note
    "shared: %d batches of %d jobs, %d committed, %d restarts, %d deadlocks, \
     %.3f s measured, latency samples %d (one per batch; quantiles per \
     cycle through the populations, median over cycles)"
    batch_count (jobs_per_batch setup) totals.committed totals.restarts
    totals.deadlocks measured batch_count;
  let metric = Report.metric report in
  Report.note_wall_clock batches ~setup_s:(Measure.median raw_setups);
  metric "txn_per_s" ~unit:"1/s" (Measure.median_rate batches);
  (* a cycle through the populations runs each once: quantiles per cycle,
     median over cycles *)
  let latency q =
    Measure.median
      (Measure.slice_quantiles latencies_us ~count:(batch_count / populations) q)
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

let run_batches ?(scope = Spans.untraced) setup ~batch_count totals =
  let batches = Measure.batches batch_count in
  let jobs = ref 0 in
  for batch = 0 to batch_count - 1 do
    let batch_start = Measure.now_ns () in
    let population, metrics =
      scope.within "sim.run" (fun () -> run_batch setup batch)
    in
    ignore
      (Measure.record_batch batches ~work:metrics.Metrics.committed
         ~seconds:(Measure.seconds_since batch_start)
        : float);
    jobs := !jobs + List.length setup.jobs.(population);
    account totals setup population metrics
  done;
  (!jobs, Measure.median_rate batches)

(* Every step's plan closure runs under a span; returns the number of
   requests the closures produced. *)
let wrap_plans spans setup =
  let span = Spans.name spans "protocol.plan" in
  let requests = ref 0 in
  let jobs =
    Array.map
      (List.map (fun job ->
           { job with
             Sim.Runner.steps =
               List.map
                 (fun step ->
                   { step with
                     Sim.Runner.plan =
                       (fun txn ->
                         let plan =
                           Spans.wrap spans span (fun () -> step.Sim.Runner.plan txn)
                         in
                         requests := !requests + List.length plan;
                         plan) })
                 job.Sim.Runner.steps }))
      setup.jobs
  in
  ({ setup with jobs }, requests)

(* [Protocol.plan] over every operation of the populations the run used,
   with each job's rights as [run_batch] installs them: exact step counts. *)
let count_plans setup ~batch_count =
  let rights = Authz.Rights.create () in
  Authz.Rights.set_relation_default rights ~relation:"effectors" false;
  let protocol =
    Colock.Protocol.create ~rights setup.graph (Table.create ())
  in
  let spans = Spans.create ~keep:0 () in
  let requests = ref [] in
  for population = 0 to min populations batch_count - 1 do
    List.iteri
      (fun index spec ->
        let txn = index + 1 in
        if setup.library_job.(population).(index) then
          Authz.Rights.grant_modify rights ~txn ~relation:"effectors"
        else Authz.Rights.revoke_modify rights ~txn ~relation:"effectors";
        let plans =
          Replay.protocol_plans spans protocol
            (List.map
               (fun op ->
                 match op with
                 | Sim.Scenario.Node_read node -> (txn, node, Lockmgr.Lock_mode.S)
                 | Sim.Scenario.Node_update node -> (txn, node, Lockmgr.Lock_mode.X))
               spec.Sim.Scenario.ops)
        in
        requests := plans :: !requests)
      setup.specs.(population)
  done;
  List.fold_left
    (fun (calls, downward) plans ->
      (calls + plans.Replay.calls, downward + plans.Replay.downward))
    (0, 0) !requests

let trace report ~seed ~seconds =
  let batch_count = max 1 (batches_per_second * seconds / 4) in
  let metric name ~unit value = Report.metric report ("shared." ^ name) ~unit value in
  let plain_totals = totals () in
  let jobs, plain_rate = run_batches (build ~seed ()) ~batch_count plain_totals in
  check report ~jobs plain_totals;
  let spans = Spans.create () in
  let spanned_setup, plan_requests =
    wrap_plans spans (build ~scope:(Spans.scope spans) ~seed ())
  in
  let spanned_totals = totals () in
  let _jobs, spanned_rate =
    run_batches ~scope:(Spans.scope spans) spanned_setup ~batch_count
      spanned_totals
  in
  check report ~jobs spanned_totals;
  let capture = Replay.capture () in
  let captured_setup = build ~obs:capture.Replay.sink ~seed () in
  let captured_totals = totals () in
  let _jobs, captured_rate =
    run_batches captured_setup ~batch_count captured_totals
  in
  check report ~jobs captured_totals;
  let ops = Replay.ops capture in
  Replay.object_lookups spans captured_setup.graph ops;
  let replayed, left =
    Replay.lock_table spans
      ~meta:(Colock.Instance_graph.lu_resolver captured_setup.graph) ops
  in
  let stats = Table.stats captured_setup.table in
  Report.check report (Replay.stats_agree stats replayed && left = 0)
    "shared: the replayed lock table diverged from the captured run";
  let plan_calls, downward = count_plans captured_setup ~batch_count in
  Spans.write spans (Report.output_file "shared.spans.tsv");
  report.Report.attempted <- report.Report.attempted + (3 * jobs);
  report.Report.failed <-
    report.Report.failed + plain_totals.gave_up + spanned_totals.gave_up
    + captured_totals.gave_up;
  Report.note
    "shared: tracing overhead %+.1f%% with spans, %+.1f%% with the capture \
     sink (%.0f txn/s untraced)"
    (100.0 *. ((plain_rate /. spanned_rate) -. 1.0))
    (100.0 *. ((plain_rate /. captured_rate) -. 1.0))
    plain_rate;
  let committed = spanned_totals.committed in
  let mean label ~scale = Spans.mean_self spans label ~scale in
  metric "setup.generate_s" ~unit:"s" (Spans.self_seconds spans "setup.generate");
  metric "setup.graph_build_s" ~unit:"s" (Spans.self_seconds spans "setup.graph_build");
  metric "setup.compile_s" ~unit:"s" (Spans.self_seconds spans "setup.compile");
  metric "graph.object_node_ns" ~unit:"ns" (mean "graph.object_node" ~scale:1e9);
  metric "protocol.plan_us" ~unit:"us" (mean "protocol.plan" ~scale:1e6);
  metric "protocol.plan_steps" ~unit:"count"
    (Report.ratio !plan_requests (Spans.calls spans "protocol.plan"));
  metric "protocol.downward_steps" ~unit:"count" (Report.ratio downward plan_calls);
  metric "lockmgr.request_ns" ~unit:"ns" (mean "lockmgr.request" ~scale:1e9);
  metric "lockmgr.release_all_us" ~unit:"us" (mean "lockmgr.release_all" ~scale:1e6);
  metric "lockmgr.requests_per_txn" ~unit:"count"
    (Report.ratio stats.requests captured_totals.committed);
  metric "lockmgr.conflict_tests_per_request" ~unit:"count"
    (Report.ratio stats.conflict_tests stats.requests);
  metric "lockmgr.waits_per_txn" ~unit:"count"
    (Report.ratio stats.waits captured_totals.committed);
  metric "lockmgr.deadlocks_per_1k_txn" ~unit:"count"
    (1000.0 *. Report.ratio stats.deadlocks captured_totals.committed);
  metric "lockmgr.peak_entries" ~unit:"count"
    (float_of_int (Table.peak_entry_count captured_setup.table));
  metric "sim.run_us_per_txn" ~unit:"us"
    (Spans.self_seconds spans "sim.run" *. 1e6 /. float_of_int committed);
  metric "sim.wait_ticks_per_txn" ~unit:"ticks"
    (Report.ratio spanned_totals.wait committed)
