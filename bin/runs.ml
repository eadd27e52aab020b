(* The run commands: the simulator on a generated workload (simulate),
   the committed scenario suite (soak) and its baseline gate (bench
   diff). *)

open Cmdliner
open Plumbing

let technique_conv =
  conv Workload.Dsl.technique_of_string (fun ppf technique ->
      Format.pp_print_string ppf (Workload.Dsl.technique_to_string technique))

(* Integers from [least] up; [what] names them in the usage error. *)
let int_from least ~what =
  conv
    (fun text ->
      match int_of_string_opt text with
      | Some value when value >= least -> Ok value
      | Some _ | None -> Error (Printf.sprintf "%S is not %s" text what))
    Format.pp_print_int

let positive_int = int_from 1 ~what:"a positive integer"

let jobs_arg =
  Arg.(value & opt (int_from 0 ~what:"a non-negative integer") 60
       & info [ "jobs" ] ~docv:"N" ~doc:"Number of transactions.")

let cells_arg =
  Arg.(value & opt positive_int 8
       & info [ "cells" ] ~docv:"N" ~doc:"Cells in the database.")

let read_fraction_arg =
  let fraction =
    conv
      (fun text ->
        match float_of_string_opt text with
        | Some value when value >= 0.0 && value <= 1.0 -> Ok value
        | Some _ | None ->
          Error (Printf.sprintf "%S is not a fraction in [0, 1]" text))
      Format.pp_print_float
  in
  Arg.(value & opt fraction 0.5
       & info [ "read-fraction" ] ~docv:"F" ~doc:"Fraction of Q1-like reads.")

let seed_arg =
  Arg.(value & opt int 17 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let resolution_conv =
  conv Lockmgr.Policy.resolution_of_string Lockmgr.Policy.pp_resolution

let victim_conv =
  conv Lockmgr.Policy.victim_of_string Lockmgr.Policy.pp_victim

let backoff_conv =
  conv Lockmgr.Policy.backoff_of_string Lockmgr.Policy.pp_backoff

let faults_conv =
  let print formatter spec =
    Format.pp_print_string formatter (Sim.Fault.to_string spec)
  in
  Arg.conv (Sim.Fault.of_string, print)

let restart_conv =
  conv Lockmgr.Policy.restart_of_string Lockmgr.Policy.pp_restart

let admission_conv =
  conv Robust.Admission.config_of_string (fun formatter config ->
      Format.pp_print_string formatter
        (Robust.Admission.config_to_string config))

let retry_budget_conv =
  conv Robust.Budget.config_of_string
    (fun formatter (config : Robust.Budget.config) ->
      Format.fprintf formatter "%g:%g" config.ratio config.burst)

let breaker_conv =
  conv Robust.Breaker.config_of_string
    (fun formatter (config : Robust.Breaker.config) ->
      Format.fprintf formatter "%g:%d:%d" config.failure_rate config.open_for
        config.probes)

let resolution_arg =
  Arg.(value & opt resolution_conv Lockmgr.Policy.Detection
       & info [ "resolution" ] ~docv:"STRATEGY"
           ~doc:"How stuck waits resolve: $(b,detection) (waits-for cycle \
                 search on every wait), $(b,timeout)[:TICKS] (abort any \
                 wait older than TICKS, no detection), or \
                 $(b,hybrid)[:TICKS] (both).")

let victim_arg =
  Arg.(value & opt victim_conv Lockmgr.Policy.Youngest
       & info [ "victim" ] ~docv:"POLICY"
           ~doc:"Deadlock victim selection: $(b,youngest), $(b,oldest), \
                 $(b,fewest-locks) or $(b,least-work).")

let backoff_arg =
  Arg.(value & opt backoff_conv (Lockmgr.Policy.Fixed 50)
       & info [ "backoff" ] ~docv:"SPEC"
           ~doc:"Victim restart delay: $(b,fixed):N or \
                 $(b,exp):BASE:CAP[:SEED] (exponential with deterministic \
                 jitter).")

let max_restarts_arg =
  Arg.(value & opt int 20
       & info [ "max-restarts" ] ~docv:"N"
           ~doc:"Abort budget per job; a job victimized more often gives up.")

let faults_arg =
  Arg.(value & opt faults_conv Sim.Fault.none
       & info [ "faults" ] ~docv:"PLAN"
           ~doc:"Inject faults, e.g. $(b,crash:0.1,stall:0.2x4,hog:0.05): \
                 each job draws a fate from the --seed-derived RNG; crashed \
                 jobs die holding their locks, stalled jobs access N times \
                 slower, hogs camp on their locks without committing.")

let restart_policy_arg =
  Arg.(value & opt restart_conv Lockmgr.Policy.No_restart
       & info [ "restart-policy" ] ~docv:"POLICY"
           ~doc:"Contention-control restart policy applied the moment a \
                 request starts waiting: $(b,none), $(b,wdl)[:D] (abort a \
                 transaction when its wait chain exceeds depth D) or \
                 $(b,running-priority) (abort blockers that are themselves \
                 waiting).")

let admission_arg =
  Arg.(value & opt (some admission_conv) None
       & info [ "admission" ] ~docv:"INIT[:MIN:MAX[:QUEUE]]"
           ~doc:"Gate job begins through an adaptive (AIMD) concurrency \
                 limit starting at INIT, clamped to [MIN,MAX], with a \
                 bounded priority entry queue of QUEUE slots; overflow is \
                 shed.")

let retry_budget_arg =
  Arg.(value & opt (some retry_budget_conv) None
       & info [ "retry-budget" ] ~docv:"RATIO[:BURST]"
           ~doc:"Couple restarts to useful work: each commit earns RATIO \
                 retry tokens (bucket capacity BURST); a restart with an \
                 empty bucket gives up instead of retrying.")

let breaker_arg =
  Arg.(value & opt (some breaker_conv) None
       & info [ "breaker" ] ~docv:"RATE:OPEN[:PROBES]"
           ~doc:"Abort-storm circuit breaker: when the abort fraction of \
                 recent outcomes crosses RATE the breaker opens for OPEN \
                 ticks, then half-opens and lets PROBES probe restarts \
                 decide whether to close.")

let check_invariants_arg =
  Arg.(value & flag
       & info [ "check-invariants" ]
           ~doc:"Audit the lock table and job states after every simulator \
                 event (chaos-run oracle; slows large runs down).")

(* One run's capture as JSONL, behind the run_meta line that labels it. *)
let write_run channel ~label events =
  Obs.Jsonl.write_events channel
    ({ Obs.Event.time = 0.0; kind = Obs.Event.Run_meta { label } } :: events)

(* Saves a run's capture as DIR/NAME.jsonl, creating DIR; returns the
   path. *)
let save_run ~dir ~name ~label events =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (name ^ ".jsonl") in
  with_out path (fun channel -> write_run channel ~label events);
  path

(* --------------------------------------------------------------- simulate *)

let simulate_cmd =
  let technique =
    Arg.(value
         & opt (list technique_conv)
             Workload.Dsl.[ Proposed; Whole_object; Tuple_level ]
         & info [ "technique"; "t" ] ~docv:"TECH"
             ~doc:"Techniques to compare: proposed, rule4, whole-object, \
                   tuple-level.")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event capture of the run(s) to \
                   $(docv) ('-' for stdout) — open it in chrome://tracing or \
                   Perfetto; lock waits appear as spans, one timeline row \
                   per transaction.")
  in
  let stats_json_file =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ] ~docv:"FILE"
             ~doc:"Write per-technique metrics (simulator counters, lock \
                   table counters, wait/grant/response latency quantiles and \
                   histogram buckets) as JSON to $(docv) ('-' for stdout). \
                   Whichever of $(b,--trace), $(b,--jsonl) and \
                   $(b,--stats-json) writes to stdout suppresses the table \
                   and the SLO verdicts; at most one of them may.")
  in
  let jsonl_file =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Write the raw event stream of the run(s) as JSON lines to \
                   $(docv) ('-' for stdout), one run_meta delimiter line per \
                   technique — the input format of $(b,colock analyze).")
  in
  let snapshot_every =
    Arg.(value & opt (some positive_int) None
         & info [ "snapshot-every" ] ~docv:"TICKS"
             ~doc:"Emit a wait-for-graph snapshot event every $(docv) \
                   virtual ticks, so deadlock structure is observable over \
                   time in traces and contention reports.")
  in
  let trace_all =
    Arg.(value & flag
         & info [ "trace-all" ]
             ~doc:"Keep per-step sim_step noise in captures; by default it \
                   is filtered out of --trace/--jsonl output (counters still \
                   see every event).")
  in
  let run () techniques jobs cells read_fraction seed resolution victim
      backoff max_restarts restart admission retry_budget breaker faults
      check_invariants trace_file stats_json_file jsonl_file snapshot_every
      trace_all window slo_file =
    let on_stdout =
      List.filter
        (fun file -> file = Some "-")
        [ trace_file; jsonl_file; stats_json_file ]
    in
    if List.length on_stdout > 1 then begin
      Fmt.epr
        "colock: only one of --trace, --jsonl and --stats-json may write to \
         stdout@.";
      exit Cmd.Exit.cli_error
    end;
    let quiet = on_stdout <> [] in
    let graph, specs =
      Bench.Run.manufacturing
        { Workload.Generator.default_manufacturing with cells; seed }
        { Sim.Scenario.default_mix with jobs; read_fraction; seed }
    in
    let slo = load_slo slo_file in
    let overload =
      if admission <> None || retry_budget <> None || breaker <> None then
        Some
          { Sim.Runner.admission;
            controller = Robust.Controller.default_config;
            budget = retry_budget; breaker }
      else None
    in
    let config =
      { Sim.Runner.default_config with
        engine = { Txn.Txn_manager.resolution; victim; restart }; backoff;
        max_restarts; overload; check_invariants; snapshot_every }
    in
    let faults = { faults with Sim.Fault.fault_seed = seed } in
    let capturing = trace_file <> None || jsonl_file <> None in
    let counting = stats_json_file <> None in
    let keep = if trace_all then None else Some Obs.Sink.not_sim_step in
    let monitor = Option.map (fun _ -> Obs.Monitor.create ~span:window ()) slo in
    let breach_total = ref 0 in
    if not quiet then
      Printf.printf "%-22s %9s %9s %9s %9s %9s %9s %9s %9s\n" "technique"
        "committed" "aborts" "crashed" "makespan" "thruput" "avg resp" "waits"
        "locks";
    let runs =
      List.map
        (fun selector ->
          (* only what the flags read: the whole run's raw events, filtered
             by [keep], for --trace and --jsonl; a collector for the
             counters and latency histograms, which sees every event, for
             --stats-json; the live monitor for --slo *)
          let obs, events =
            if capturing then
              let sink, events = Obs.Sink.memory ?keep () in
              (Some sink, events)
            else if counting || monitor <> None then
              (Some (Obs.Sink.create []), Fun.const [])
            else (None, Fun.const [])
          in
          let collector =
            match obs with
            | Some sink when counting ->
              let collector = Obs.Collector.create () in
              Obs.Sink.attach sink (Obs.Collector.handle collector);
              Some collector
            | Some _ | None -> None
          in
          let run = Bench.Run.setup ~obs graph selector specs in
          (* one live monitor across techniques, restarted per technique so
             no run's stats bleed into the next; a fresh SLO watch per
             technique restarts the breach tally and window phase *)
          let watch =
            match monitor, obs with
            | Some monitor, Some sink ->
              watch_live sink monitor ~label:run.name slo
            | _ -> None
          in
          let metrics =
            Sim.Runner.run ~config ~faults ~table:run.table run.jobs
          in
          (match watch with
           | None -> ()
           | Some watch ->
             let breaches =
               Obs.Slo.finish watch
                 ~time:(float_of_int metrics.Sim.Metrics.makespan)
             in
             breach_total := !breach_total + breaches);
          if not quiet then
            Printf.printf "%-22s %9d %9d %9d %9d %9.2f %9.1f %9d %9d\n"
              run.name metrics.Sim.Metrics.committed
              (metrics.Sim.Metrics.deadlock_aborts
               + metrics.Sim.Metrics.timeout_aborts)
              metrics.Sim.Metrics.crashed metrics.Sim.Metrics.makespan
              (Sim.Metrics.throughput metrics)
              (Sim.Metrics.avg_response metrics)
              metrics.Sim.Metrics.total_wait metrics.Sim.Metrics.lock_requests;
          (match watch, monitor with
           | Some watch, Some monitor when not quiet ->
             print_verdicts ~label:run.name
               (Obs.Slo.evaluate (Obs.Slo.watched watch) monitor)
           | _ -> ());
          (run, events, collector, metrics))
        techniques
    in
    Option.iter
      (fun path ->
        with_out path (fun channel ->
            Obs.Trace.write channel
              (List.map
                 (fun (run, events, _, _) -> (run.Bench.Run.name, events ()))
                 runs)))
      trace_file;
    Option.iter
      (fun path ->
        with_out path (fun channel ->
            List.iter
              (fun (run, events, _, _) ->
                write_run channel ~label:run.Bench.Run.name (events ()))
              runs))
      jsonl_file;
    Option.iter
      (fun path ->
        let stats (run, _, collector, metrics) =
          Option.map
            (fun collector ->
              ( run.Bench.Run.name,
                Obs.Json.Obj
                  (List.map
                     (fun (key, value) -> (key, Obs.Json.Float value))
                     (Bench.Run.row run metrics collector)
                   @ Obs.Registry.bucket_fields
                       (Obs.Collector.registry collector)) ))
            collector
        in
        with_out path (fun channel ->
            Obs.Json.output channel
              (Obs.Json.Obj (List.filter_map stats runs));
            output_char channel '\n'))
      stats_json_file;
    if !breach_total > 0 then begin
      Fmt.epr "colock: %d SLO breach(es)@." !breach_total;
      exit_slo_breach
    end
    else 0
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the concurrency simulator on a generated manufacturing \
             workload and compare techniques; optionally enforce SLOs while \
             it runs.")
    Term.(const run $ setup_logs $ technique $ jobs_arg $ cells_arg
          $ read_fraction_arg $ seed_arg $ resolution_arg $ victim_arg
          $ backoff_arg $ max_restarts_arg $ restart_policy_arg
          $ admission_arg $ retry_budget_arg $ breaker_arg $ faults_arg
          $ check_invariants_arg $ trace_file $ stats_json_file $ jsonl_file
          $ snapshot_every $ trace_all $ window_arg $ slo_arg)

(* ------------------------------------------------------------------- soak *)

(* One scenario × technique run under a live monitor, with the scenario's
   inline SLO rules watching the windows. [?post_mortem] names a directory
   that receives the run's full event capture as JSONL — written only when
   the run breaches an SLO or fails certification, so a red soak always
   leaves a trace behind for [colock why]/[colock analyze]. *)
let soak_run ~quiet ?post_mortem db graph (dsl : Workload.Dsl.t) selector =
  let technique_name = Workload.Dsl.technique_to_string selector in
  let label = dsl.name ^ "/" ^ technique_name in
  let sink, events =
    match post_mortem with
    | None -> (Obs.Sink.create [], None)
    | Some _ ->
      let sink, events = Obs.Sink.memory ~keep:Obs.Sink.not_sim_step () in
      (sink, Some events)
  in
  let certifier =
    if dsl.certify then begin
      let certifier =
        Obs.Certify.create ~modes:Lockmgr.Lock_mode.certify_modes ()
      in
      Obs.Sink.attach sink (Obs.Certify.handle certifier);
      Some certifier
    end
    else None
  in
  let monitor = Obs.Monitor.create ~span:dsl.window () in
  let watch =
    watch_live sink monitor ~label
      (match dsl.slo with [] -> None | rules -> Some (Obs.Slo.of_rules rules))
  in
  let run =
    Bench.Run.setup ~obs:(Some sink) graph selector
      (Sim.Scenario.of_dsl db graph dsl)
  in
  let metrics =
    Sim.Runner.run
      ~config:(Sim.Scenario.config_of_dsl dsl)
      ~faults:(Sim.Scenario.faults_of_dsl dsl) ~table:run.table run.jobs
  in
  let breaches =
    match watch with
    | None -> 0
    | Some watch ->
      Obs.Slo.finish watch
        ~time:(float_of_int metrics.Sim.Metrics.makespan)
  in
  let certificate =
    Option.map (fun certifier -> Obs.Certify.finish ~label certifier) certifier
  in
  if not quiet then begin
    Printf.printf "%-19s %-14s %9d %6d %6d %5d %7d %8d %7.2f %8d\n" dsl.name
      technique_name metrics.Sim.Metrics.committed
      (metrics.Sim.Metrics.deadlock_aborts + metrics.Sim.Metrics.timeout_aborts
       + metrics.Sim.Metrics.wdl_aborts)
      metrics.Sim.Metrics.gave_up metrics.Sim.Metrics.shed
      metrics.Sim.Metrics.crashed metrics.Sim.Metrics.makespan
      (Sim.Metrics.throughput metrics)
      breaches;
    if breaches > 0 then
      print_verdicts
        ~label:("  " ^ dsl.name)
        (match watch with
         | Some watch -> Obs.Slo.evaluate (Obs.Slo.watched watch) monitor
         | None -> [])
  end;
  (* a certified run stays silent; a violation names itself even under
     --quiet, since it is the whole point of the stanza *)
  (match certificate with
   | Some cert when not (Obs.Certify.certified cert) ->
     Printf.printf "  %s/%s: NOT CERTIFIED: %d violation(s)\n" dsl.name
       technique_name
       (List.length cert.Obs.Certify.violations);
     List.iter
       (fun violation ->
         Printf.printf "    %s\n"
           (Format.asprintf "%a" Obs.Certify.pp_violation violation))
       cert.Obs.Certify.violations
   | Some _ | None -> ());
  let cert_violations =
    match certificate with
    | None -> 0
    | Some cert -> List.length cert.Obs.Certify.violations
  in
  (match post_mortem, events with
   | Some dir, Some events when breaches > 0 || cert_violations > 0 ->
     let events = events () in
     let path =
       save_run ~dir ~name:(dsl.name ^ "-" ^ technique_name) ~label events
     in
     Printf.printf "  post-mortem: %s (%d event(s))\n" path
       (List.length events)
   | _ -> ());
  (breaches, certificate <> None, cert_violations)

let soak_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATH"
             ~doc:"A scenario file ($(b,*.scn)) or a directory holding a \
                   suite of them (sorted, non-recursive).")
  in
  let parse_only =
    Arg.(value & flag
         & info [ "parse-only" ]
             ~doc:"Parse every scenario and print it back in canonical \
                   form instead of running — the round-trip check behind \
                   the fixture tests.")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet"; "q" ] ~doc:"Print only the summary line.")
  in
  let post_mortem_arg =
    Arg.(value & opt string "post-mortem"
         & info [ "post-mortem" ] ~docv:"DIR"
             ~doc:"Capture the full event stream of every SLO-breaching or \
                   uncertified run into $(docv) as \
                   $(b,SCENARIO-TECHNIQUE.jsonl), ready for $(b,colock \
                   why) / $(b,colock analyze). An empty $(docv) disables \
                   the capture.")
  in
  let run () path parse_only quiet post_mortem_dir =
    let post_mortem =
      if post_mortem_dir = "" then None else Some post_mortem_dir
    in
    match Workload.Dsl.load_path path with
    | Error message ->
      Fmt.epr "colock: %s@." message;
      1
    | Ok [] ->
      Fmt.epr "colock: %s: no scenarios@." path;
      1
    | Ok scenarios ->
      if parse_only then begin
        List.iteri
          (fun index dsl ->
            if index > 0 then print_newline ();
            print_string (Workload.Dsl.print dsl))
          scenarios;
        0
      end
      else begin
        if not quiet then
          Printf.printf "%-19s %-14s %9s %6s %6s %5s %7s %8s %7s %8s\n"
            "scenario" "technique" "committed" "aborts" "gaveup" "shed"
            "crashed" "makespan" "thruput" "breaches";
        let runs = ref 0 in
        let certified_runs = ref 0 in
        let clean_runs = ref 0 in
        let violation_total = ref 0 in
        let breach_total =
          List.fold_left
            (fun total (dsl : Workload.Dsl.t) ->
              let db = Workload.Dsl.database dsl in
              let graph = Colock.Instance_graph.build db in
              List.fold_left
                (fun total selector ->
                  incr runs;
                  let breaches, certified, violations =
                    soak_run ~quiet ?post_mortem db graph dsl selector
                  in
                  if certified then begin
                    incr certified_runs;
                    if violations = 0 then incr clean_runs
                  end;
                  violation_total := !violation_total + violations;
                  total + breaches)
                total dsl.techniques)
            0 scenarios
        in
        Printf.printf "soak: %d run(s), %d scenario(s), %d breach(es)%s\n"
          !runs (List.length scenarios) breach_total
          (if !certified_runs = 0 then ""
           else Printf.sprintf ", %d/%d certified" !clean_runs !certified_runs);
        if breach_total > 0 || !violation_total > 0 then exit_slo_breach
        else 0
      end
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Run a committed scenario suite (declarative $(b,.scn) files: \
             catalog scale, arrival process, Zipf popularity, operation \
             mix, faults, inline SLO rules) under the live monitor; exit 3 \
             if any scenario breaches its SLOs, leaving each breaching \
             run's event capture in the post-mortem directory.")
    Term.(const run $ setup_logs $ path_arg $ parse_only $ quiet
          $ post_mortem_arg)

(* ------------------------------------------------------------------ bench *)

let bench_diff_cmd =
  let scenarios_arg =
    Arg.(value & opt string "scenarios"
         & info [ "scenarios" ] ~docv:"PATH"
             ~doc:"Scenario file or directory to measure.")
  in
  let baseline_arg =
    Arg.(value & opt string "BENCH_scenarios.json"
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"The committed baseline store to compare against.")
  in
  let update_arg =
    Arg.(value & flag
         & info [ "update-baseline" ]
             ~doc:"Write the fresh measurement to the baseline file \
                   instead of comparing.")
  in
  let all_arg =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"List every metric comparison, not only the ones \
                   outside their tolerance band.")
  in
  let perturb_arg =
    let parse text =
      match String.index_opt text '=' with
      | Some eq -> (
        let metric = String.sub text 0 eq in
        let factor =
          String.sub text (eq + 1) (String.length text - eq - 1)
        in
        match float_of_string_opt factor with
        | Some factor when metric <> "" -> Ok (metric, factor)
        | _ -> Error (Printf.sprintf "bad perturbation %S" text))
      | None ->
        Error (Printf.sprintf "bad perturbation %S (want METRIC=FACTOR)" text)
    in
    let print ppf (metric, factor) = Fmt.pf ppf "%s=%g" metric factor in
    let perturbation = conv parse print in
    Arg.(value & opt_all perturbation []
         & info [ "perturb" ] ~docv:"METRIC=FACTOR"
             ~doc:"Scale a fresh metric by $(b,FACTOR) before comparing — \
                   a sensitivity self-test proving the gate fires \
                   (repeatable).")
  in
  let json_arg =
    json_flag
      ~doc:"Emit the gate verdict as machine-readable JSON (metric family, \
            band direction, observed vs baseline) instead of tables; exit \
            codes are unchanged."
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Re-run every regressed scenario × technique pair with a \
                   JSONL event capture and append a ranked attribution \
                   (worst metric families first, plus the capture's \
                   hottest levels and resources) to the failure output. \
                   Captures land in $(b,bench-explain/).")
  in
  let history_arg =
    Arg.(value & opt string "BENCH_HISTORY.jsonl"
         & info [ "history" ] ~docv:"FILE"
             ~doc:"Append one aggregate record per unperturbed gate run to \
                   the run-history store $(docv) (see $(b,colock trends)). \
                   An empty $(docv) disables the append.")
  in
  let verdict_row finding =
    let open Bench.Baseline in
    let status, detail =
      match finding.f_verdict with
      | Within { delta } -> ("within", Printf.sprintf "%+g" delta)
      | Improved { delta } -> ("IMPROVED", Printf.sprintf "%+g" delta)
      | Regressed { delta; slack } ->
        ("REGRESSED", Printf.sprintf "%+g (slack %g)" delta slack)
    in
    Printf.printf "%-10s %-14s %-22s %12g %12g  %-9s %s\n" finding.f_scenario
      finding.f_technique finding.f_metric finding.f_base finding.f_fresh
      status detail
  in
  (* --explain: one ranked-attribution stanza per regressed pair, worst
     excess (amount past the band, in the bad direction) first. *)
  let explain_pair scenarios regressions (scenario, technique) =
    let findings =
      List.filter
        (fun finding ->
          finding.Bench.Baseline.f_scenario = scenario
          && finding.Bench.Baseline.f_technique = technique)
        regressions
    in
    let excess finding =
      match finding.Bench.Baseline.f_verdict with
      | Bench.Baseline.Regressed { delta; slack } ->
        if Float.is_nan delta then Float.infinity
        else
          let { Bench.Baseline.direction; _ } =
            Bench.Baseline.band finding.Bench.Baseline.f_metric
          in
          let worse =
            match direction with
            | Bench.Baseline.Lower_better -> delta
            | Bench.Baseline.Higher_better -> -.delta
          in
          worse -. slack
      | _ -> 0.0
    in
    let ranked =
      List.sort
        (fun a b ->
          match Float.compare (excess b) (excess a) with
          | 0 ->
            String.compare a.Bench.Baseline.f_metric b.Bench.Baseline.f_metric
          | order -> order)
        findings
    in
    Printf.printf "explain: %s/%s: %d regressed metric(s)\n" scenario
      technique (List.length ranked);
    List.iteri
      (fun index finding ->
        let open Bench.Baseline in
        let detail =
          match finding.f_verdict with
          | Regressed { delta; slack = _ } when Float.is_nan delta ->
            "present on one side only"
          | Regressed { delta; slack } ->
            Printf.sprintf "%+g, excess %g over slack %g" delta
              (excess finding) slack
          | Within { delta } | Improved { delta } ->
            Printf.sprintf "%+g" delta
        in
        Printf.printf "  %d. %-17s %-22s %s\n" (index + 1)
          (family finding.f_metric) finding.f_metric detail)
      ranked;
    (* re-run the pair with a capture so the regression has a trace *)
    match
      List.find_opt
        (fun (dsl : Workload.Dsl.t) -> dsl.name = scenario)
        scenarios
    with
    | None -> ()
    | Some dsl -> (
      match
        List.find_opt
          (fun selector ->
            Workload.Dsl.technique_to_string selector = technique)
          dsl.techniques
      with
      | None -> ()
      | Some selector ->
        let db = Workload.Dsl.database dsl in
        let graph = Colock.Instance_graph.build db in
        let _name, events =
          Bench.Run.capture
            ~config:(Sim.Scenario.config_of_dsl dsl)
            ~faults:(Sim.Scenario.faults_of_dsl dsl) [] graph selector
            (Sim.Scenario.of_dsl db graph dsl)
        in
        let label = scenario ^ "/" ^ technique in
        let profile = Obs.Profile.of_events ~label events in
        let path =
          save_run ~dir:"bench-explain" ~name:(scenario ^ "-" ^ technique)
            ~label events
        in
        Printf.printf
          "  capture: %s (%d event(s), %g tick(s) blocked across %d \
           wait(s))\n"
          path (List.length events) profile.Obs.Profile.total_blocked
          profile.Obs.Profile.wait_count;
        let hot title render stats =
          match List.filteri (fun index _ -> index < 3) stats with
          | [] -> ()
          | top ->
            Printf.printf "  hot %s: %s\n" title
              (String.concat ", " (List.map render top))
        in
        hot "levels"
          (fun { Obs.Profile.v_level; v_blocked; _ } ->
            Printf.sprintf "%s %g" v_level v_blocked)
          profile.Obs.Profile.levels;
        hot "resources"
          (fun { Obs.Profile.r_resource; r_blocked; _ } ->
            Printf.sprintf "%s %g" r_resource r_blocked)
          profile.Obs.Profile.resources)
  in
  let run () scenarios_path baseline_path update all perturbations json
      explain history_path =
    match Workload.Dsl.load_path scenarios_path with
    | Error message ->
      Fmt.epr "colock: %s@." message;
      1
    | Ok scenarios -> (
      match
        Bench.Baseline.perturb perturbations (Bench.Baseline.collect scenarios)
      with
      | Error message ->
        Fmt.epr "colock: %s@." message;
        1
      | Ok fresh ->
      if update then begin
        Bench.Baseline.save baseline_path fresh;
        Printf.printf "bench diff: wrote %s (%d run(s))\n" baseline_path
          (List.length fresh);
        0
      end
      else begin
        match Bench.Baseline.load baseline_path with
        | Error message ->
          Fmt.epr "colock: %s: %s@." baseline_path message;
          1
        | Ok baseline ->
          let report = Bench.Baseline.diff ~baseline ~fresh in
          let regressions = Bench.Baseline.regressions report in
          let improvements = Bench.Baseline.improvements report in
          if json then print_json (Bench.Baseline.diff_to_json ~all report)
          else begin
            let shown =
              if all then report.Bench.Baseline.findings
              else regressions @ improvements
            in
            if shown <> [] then begin
              Printf.printf "%-10s %-14s %-22s %12s %12s  %-9s %s\n"
                "scenario" "technique" "metric" "baseline" "fresh" "status"
                "delta";
              List.iter verdict_row shown
            end;
            List.iter
              (fun (scenario, technique) ->
                Printf.printf "missing: %s/%s (in baseline, not measured)\n"
                  scenario technique)
              report.Bench.Baseline.missing;
            List.iter
              (fun (scenario, technique) ->
                Printf.printf
                  "added: %s/%s (measured, not in baseline — rerun with \
                   --update-baseline)\n"
                  scenario technique)
              report.Bench.Baseline.added;
            Printf.printf
              "bench diff: %d comparison(s), %d regression(s), %d \
               improvement(s)\n"
              (List.length report.Bench.Baseline.findings)
              (List.length regressions)
              (List.length improvements)
          end;
          (* the trajectory records honest gate runs only: a --perturb run
             measures the self-test, not the code *)
          if perturbations = [] && history_path <> "" then begin
            let total key =
              List.fold_left
                (fun sum (run : Bench.Baseline.run) ->
                  sum
                  +. Option.value ~default:0.0
                       (List.assoc_opt key run.Bench.Baseline.metrics))
                0.0 fresh
            in
            let record =
              Bench.History.append ~path:history_path ~source:"bench-diff"
                ~label:scenarios_path
                [ ("committed", total "committed");
                  ("throughput", total "throughput");
                  ("total_wait", total "total_wait");
                  ("makespan", total "makespan");
                  ( "comparisons",
                    float_of_int
                      (List.length report.Bench.Baseline.findings) );
                  ("regressions", float_of_int (List.length regressions));
                  ("improvements", float_of_int (List.length improvements))
                ]
            in
            if not json then
              Printf.printf "bench diff: history seq %d -> %s\n"
                record.Bench.History.seq history_path
          end;
          if explain && regressions <> [] then begin
            let pairs =
              List.sort_uniq compare
                (List.map
                   (fun finding ->
                     ( finding.Bench.Baseline.f_scenario,
                       finding.Bench.Baseline.f_technique ))
                   regressions)
            in
            List.iter (explain_pair scenarios regressions) pairs
          end;
          if Bench.Baseline.clean report then 0 else 2
      end)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Re-measure the scenario suite and compare against the \
             committed baseline through per-metric tolerance bands; exit 2 \
             on regressions (or baseline drift), with $(b,--explain) \
             attaching a ranked attribution and event capture to every \
             regressed pair.")
    Term.(const run $ setup_logs $ scenarios_arg $ baseline_arg $ update_arg
          $ all_arg $ perturb_arg $ json_arg $ explain_arg $ history_arg)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Benchmark baseline management: track the perf trajectory of \
             the committed scenario suite.")
    [ bench_diff_cmd ]

