(* The operations experiments, E15-E22: the lock stack under faults and
   overload, and the cost and exactness of watching it (see
   EXPERIMENTS.md). Each prints its tables and writes a JSON report. *)

module Mode = Lockmgr.Lock_mode

(* E15 and E19 offer every job at once (MPL = jobs), two steps each, on a
   four-cell catalog, so AB-BA deadlocks actually form. *)
let all_at_once ~seed ~mpl technique =
  let graph, specs =
    Bench.Run.manufacturing
      { Workload.Generator.default_manufacturing with cells = 4; seed }
      { Sim.Scenario.default_mix with jobs = mpl; arrival_gap = 0;
        steps_per_job = 2; read_fraction = 0.2; seed }
  in
  Bench.Run.setup ~obs:None graph technique specs

(* ------------------------------------------------------------------ E15 *)

let e15_resilience () =
  let module Policy = Lockmgr.Policy in
  Tables.note
    "\n=== E15: resolution strategies under rising MPL (and faults) ===\n\
     Manufacturing workload, every job arriving at once (MPL = jobs),\n\
     two steps per job so AB-BA deadlocks actually form; detection vs\n\
     lock-wait timeout vs hybrid, invariants audited after every event.";
  let chaos =
    { Sim.Fault.crash = 0.05; stall = 0.1; stall_factor = 4; hog = 0.05;
      fault_seed = 15 }
  in
  let run ~resolution ~faults ~mpl =
    let setup = all_at_once ~seed:15 ~mpl Workload.Dsl.Proposed in
    let config =
      { Sim.Runner.default_config with
        engine = { Sim.Runner.default_config.engine with resolution };
        backoff = Policy.Exponential { base = 25; cap = 400; seed = 15 };
        hog_hold = 1500; check_invariants = true }
    in
    Sim.Runner.run ~config ~faults ~table:setup.table setup.jobs
  in
  let strategies =
    [ ("detection", Policy.Detection); ("timeout", Policy.Timeout 400);
      ("hybrid", Policy.Hybrid 400) ]
  in
  let mpls = [ 4; 8; 16; 32 ] in
  let results =
    List.concat_map
      (fun (name, resolution) ->
        List.concat_map
          (fun mpl ->
            let faultless =
              (name, mpl, "none", run ~resolution ~faults:Sim.Fault.none ~mpl)
            in
            if mpl = List.nth mpls (List.length mpls - 1) then
              [ faultless;
                ( name, mpl, Sim.Fault.to_string chaos,
                  run ~resolution ~faults:chaos ~mpl ) ]
            else [ faultless ])
          mpls)
      strategies
  in
  Tables.print ~title:"E15: detection vs timeout vs hybrid"
    ~header:[ "strategy"; "mpl"; "faults"; "committed"; "dl aborts";
              "to aborts"; "crashed"; "makespan"; "avg resp"; "total wait" ]
    (List.map
       (fun (name, mpl, faults, metrics) ->
         [ Tables.Text name; Tables.Int mpl; Tables.Text faults;
           Tables.Int metrics.Sim.Metrics.committed;
           Tables.Int metrics.Sim.Metrics.deadlock_aborts;
           Tables.Int metrics.Sim.Metrics.timeout_aborts;
           Tables.Int metrics.Sim.Metrics.crashed;
           Tables.Int metrics.Sim.Metrics.makespan;
           Tables.Float (Sim.Metrics.avg_response metrics);
           Tables.Int metrics.Sim.Metrics.total_wait ])
       results);
  Tables.note
    "expected shape: detection aborts exactly the cycle members and keeps\n\
     waits short; pure timeouts trade extra (false-positive) aborts for\n\
     zero detection work and still clear every stall; hybrid matches\n\
     detection until faults make victims unreachable by cycle search.";
  Harness.write_json "BENCH_resilience.json"
    (Obs.Json.List
       (List.map
          (fun (name, mpl, faults, metrics) ->
            Obs.Json.Obj
              (("strategy", Obs.Json.String name)
               :: ("mpl", Obs.Json.Int mpl)
               :: ("faults", Obs.Json.String faults)
               :: List.map
                    (fun (key, value) -> (key, Obs.Json.Float value))
                    (Sim.Metrics.row metrics)))
          results))

(* ------------------------------------------------------------------ E16 *)

let e16_contention_profile () =
  Tables.note
    "\n=== E16: contention attribution across lock granularities ===\n\
     The same manufacturing workload under whole-object locking and the\n\
     proposed colock protocol, events folded through the contention\n\
     profiler: where in the object-specific lock graph does blocked time\n\
     actually accumulate?";
  let graph, specs =
    Bench.Run.manufacturing
      { Workload.Generator.default_manufacturing with cells = 6; seed = 16 }
      { Sim.Scenario.default_mix with jobs = 24; arrival_gap = 5;
        read_fraction = 0.4; seed = 16 }
  in
  let config = { Sim.Runner.default_config with snapshot_every = Some 100 } in
  let run technique =
    let label, events =
      Bench.Run.capture ~config ~faults:Sim.Fault.none [] graph technique specs
    in
    Obs.Profile.of_events ~label (List.filter Obs.Sink.not_sim_step events)
  in
  let reports = [ run Workload.Dsl.Whole_object; run Workload.Dsl.Proposed ] in
  let label report = Option.value ~default:"?" report.Obs.Profile.label in
  Tables.print ~title:"E16: blocked time by lockable-unit level"
    ~header:[ "technique"; "level"; "blocked"; "waits"; "resources"; "share" ]
    (List.concat_map
       (fun report ->
         let total = report.Obs.Profile.total_blocked in
         List.map
           (fun level ->
             [ Tables.Text (label report);
               Tables.Text level.Obs.Profile.v_level;
               Tables.Float level.Obs.Profile.v_blocked;
               Tables.Int level.Obs.Profile.v_waits;
               Tables.Int level.Obs.Profile.v_resources;
               Tables.Float
                 (if total > 0.0 then level.Obs.Profile.v_blocked /. total
                  else 0.0) ])
           report.Obs.Profile.levels)
       reports);
  Tables.print ~title:"E16: blocked time by lock-graph depth"
    ~header:[ "technique"; "depth"; "blocked"; "waits" ]
    (List.concat_map
       (fun report ->
         List.map
           (fun depth ->
             [ Tables.Text (label report);
               Tables.Int depth.Obs.Profile.d_depth;
               Tables.Float depth.Obs.Profile.d_blocked;
               Tables.Int depth.Obs.Profile.d_waits ])
           report.Obs.Profile.depths)
       reports);
  Tables.note
    "expected shape: whole-object locking piles every blocked tick onto\n\
     the object roots (one shallow depth, few hot resources), while the\n\
     colock protocol pushes contention down to the BLU/HoLU leaves it\n\
     actually touches — less total blocked time, spread deeper.";
  Harness.write_json "BENCH_contention.json"
    (Obs.Json.List (List.map Obs.Profile.to_json reports))

(* ------------------------------------------------------------------ E17 *)

let e17_monitoring_overhead () =
  Tables.note
    "\n=== E17: what does watching cost? ===\n\
     The same simulated workload three ways: observability off, cumulative\n\
     counters only (collector), and the full live monitor (gauges + sliding\n\
     windows, LU-labelled). Wall-clock per run, so the overhead of the\n\
     monitoring pipeline itself is the measurement.";
  let graph, specs =
    Bench.Run.manufacturing
      { Workload.Generator.default_manufacturing with cells = 6; seed = 17 }
      { Sim.Scenario.default_mix with jobs = 40; arrival_gap = 5;
        read_fraction = 0.4; seed = 17 }
  in
  let run_once mode =
    let sink =
      match mode with
      | `Off -> None
      | `Counters ->
        let sink = Obs.Sink.create [] in
        let collector = Obs.Collector.create () in
        Obs.Sink.attach sink (Obs.Collector.handle collector);
        Some sink
      | `Monitor ->
        let sink = Obs.Sink.create [] in
        let monitor = Obs.Monitor.create ~span:200.0 () in
        Obs.Sink.attach sink (Obs.Monitor.handle monitor);
        Some sink
    in
    let setup = Bench.Run.setup ~obs:sink graph Workload.Dsl.Proposed specs in
    let elapsed, metrics =
      Harness.time (fun () -> Sim.Runner.run ~table:setup.table setup.jobs)
    in
    let events =
      match sink with Some sink -> Obs.Sink.emit_count sink | None -> 0
    in
    (elapsed, (events, metrics.Sim.Metrics.committed))
  in
  let modes =
    [ ("off", `Off); ("counters", `Counters); ("monitor", `Monitor) ]
  in
  let results =
    List.map
      (fun (name, mode) ->
        (name, Harness.median_of_7 (fun () -> run_once mode)))
      modes
  in
  let base =
    match results with (_, (median, _)) :: _ -> median | [] -> 0.0
  in
  Tables.print ~title:"E17: monitoring overhead (median wall ms per run)"
    ~header:[ "mode"; "ms"; "vs off"; "events" ]
    (List.map
       (fun (name, (median, (events, _committed))) ->
         [ Tables.Text name; Tables.Float median;
           Tables.Float (if base > 0.0 then median /. base else 0.0);
           Tables.Int events ])
       results);
  Tables.note
    "expected shape: counters cost little over off; the live monitor adds\n\
     window bookkeeping per event. Both should stay within a small\n\
     multiple of the bare run — monitoring is meant to be always-on.";
  Harness.write_json "BENCH_obs_overhead.json"
    (Obs.Json.Obj
       (List.map
          (fun (name, (median, (events, committed))) ->
            ( name,
              Obs.Json.Obj
                [ ("median_ms", Obs.Json.Float median);
                  ( "vs_off",
                    Obs.Json.Float
                      (if base > 0.0 then median /. base else 0.0) );
                  ("events", Obs.Json.Float (float_of_int events));
                  ("committed", Obs.Json.Float (float_of_int committed)) ] ))
          results))

(* ------------------------------------------------------------------ E19 *)

let e19_overload_control () =
  let module Policy = Lockmgr.Policy in
  Tables.note
    "\n=== E19: closed-loop overload control under rising MPL ===\n\
     Whole-object locking (the paper's coarse baseline, so conflicts are\n\
     brutal), every job arriving at once (MPL = jobs), two steps per job.\n\
     Uncontrolled restarting vs wait-depth limiting (WDL) vs the adaptive\n\
     AIMD admission gate steered by the run's own wait and abort windows.";
  let run ~mode ~mpl =
    let setup = all_at_once ~seed:19 ~mpl Workload.Dsl.Whole_object in
    let base =
      { Sim.Runner.default_config with
        backoff = Policy.Exponential { base = 25; cap = 400; seed = 19 };
        check_invariants = true }
    in
    let config =
      match mode with
      | `Uncontrolled -> base
      | `Wdl ->
        { base with
          engine =
            { base.Sim.Runner.engine with restart = Policy.Wait_depth 1 } }
      | `Admission ->
        { base with
          overload =
            Some
              { Sim.Runner.admission =
                  Some
                    { Robust.Admission.default_config with
                      initial = 4; min_limit = 2; max_limit = 16;
                      (* queue holds the whole backlog: the gate schedules
                         work, it does not drop it *)
                      queue_capacity = mpl };
                controller = Robust.Controller.default_config;
                budget = Some Robust.Budget.default_config;
                breaker = Some Robust.Breaker.default_config } }
    in
    Sim.Runner.run ~config ~table:setup.table setup.jobs
  in
  let modes =
    [ ("uncontrolled", `Uncontrolled); ("wdl:1", `Wdl);
      ("admission", `Admission) ]
  in
  let mpls = [ 8; 16; 32; 64 ] in
  let results =
    List.concat_map
      (fun (name, mode) ->
        List.map (fun mpl -> (name, mpl, run ~mode ~mpl)) mpls)
      modes
  in
  Tables.print ~title:"E19: uncontrolled vs WDL vs adaptive admission"
    ~header:[ "mode"; "mpl"; "committed"; "aborts"; "wdl"; "gaveup"; "shed";
              "makespan"; "thruput"; "avg resp" ]
    (List.map
       (fun (name, mpl, metrics) ->
         [ Tables.Text name; Tables.Int mpl;
           Tables.Int metrics.Sim.Metrics.committed;
           Tables.Int
             (metrics.Sim.Metrics.deadlock_aborts
              + metrics.Sim.Metrics.timeout_aborts);
           Tables.Int metrics.Sim.Metrics.wdl_aborts;
           Tables.Int metrics.Sim.Metrics.gave_up;
           Tables.Int metrics.Sim.Metrics.shed;
           Tables.Int metrics.Sim.Metrics.makespan;
           Tables.Float (Sim.Metrics.throughput metrics);
           Tables.Float (Sim.Metrics.avg_response metrics) ])
       results);
  Tables.note
    "expected shape: uncontrolled deadlock-restart churn grows with MPL\n\
     and collapses committed throughput at the top of the sweep; WDL\n\
     caps wait chains early and converts the churn into cheap restarts;\n\
     the admission gate holds concurrency near the sweet spot, so the\n\
     backlog drains at a steady rate regardless of offered MPL.";
  Harness.write_json "BENCH_overload.json"
    (Obs.Json.List
       (List.map
          (fun (name, mpl, metrics) ->
            Obs.Json.Obj
              (("mode", Obs.Json.String name)
               :: ("mpl", Obs.Json.Int mpl)
               :: List.map
                    (fun (key, value) -> (key, Obs.Json.Float value))
                    (Sim.Metrics.row metrics)))
          results))

(* ------------------------------------------------------------------ E20 *)

let e20_blame_overhead () =
  Tables.note
    "\n=== E20: what does assigning blame cost — and is it exact? ===\n\
     The same simulated workload with a plain trace capture (the\n\
     [--trace] baseline) and with the online blame accumulator attached:\n\
     the always-on delta must stay within 10% of the bare capture. The\n\
     offline folds (profile + blame + flame) are priced separately in\n\
     absolute ms, and every attribution identity must hold on the\n\
     captured stream.";
  let graph, specs =
    Bench.Run.manufacturing
      { Workload.Generator.default_manufacturing with cells = 6; seed = 20 }
      { Sim.Scenario.default_mix with jobs = 300; arrival_gap = 5;
        read_fraction = 0.4; seed = 20 }
  in
  (* the timed capture includes its set-up, the same under both modes *)
  let run_once handlers =
    Harness.time (fun () ->
        snd
          (Bench.Run.capture ~config:Sim.Runner.default_config
             ~faults:Sim.Fault.none (handlers ()) graph Workload.Dsl.Proposed
             specs))
  in
  let modes =
    [ ("trace", fun () -> []);
      ("+blame", fun () -> [ Obs.Blame.handle (Obs.Blame.create ()) ]) ]
  in
  let results =
    List.map
      (fun (name, handlers) ->
        (name, Harness.median_of_7 (fun () -> run_once handlers)))
      modes
  in
  let base, events =
    match results with (_, first) :: _ -> first | [] -> (0.0, [])
  in
  (* the offline folds are post-processing, not per-run overhead: price
     them on their own, as absolute wall time over the captured stream *)
  let fold_once () =
    Harness.time (fun () ->
        let profile = Obs.Profile.of_events events in
        let flame = Obs.Flame.of_report profile in
        let report = Obs.Blame.of_events events in
        ignore (Obs.Flame.total flame : float);
        ignore (report.Obs.Blame.total_blamed : float))
  in
  let fold_ms, () = Harness.median_of_7 fold_once in
  (* --------------------------- attribution exactness on the captured run *)
  let profile = Obs.Profile.of_events events in
  let report = Obs.Blame.of_events events in
  let flame = Obs.Flame.of_report profile in
  let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a) in
  let share_sum wait =
    List.fold_left
      (fun acc { Obs.Blame.sh_blame; _ } -> acc +. sh_blame)
      0.0 wait.Obs.Blame.w_shares
  in
  let blocked_agree =
    close profile.Obs.Profile.total_blocked report.Obs.Blame.total_blocked
  in
  let blame_conserves =
    close report.Obs.Blame.total_blocked report.Obs.Blame.total_blamed
  in
  let shares_exact =
    List.for_all
      (fun wait -> close (Obs.Blame.duration wait) (share_sum wait))
      report.Obs.Blame.waits
  in
  let blockers_partition =
    close report.Obs.Blame.total_blamed
      (List.fold_left
         (fun acc { Obs.Blame.k_blame; _ } -> acc +. k_blame)
         0.0 report.Obs.Blame.blockers)
  in
  let flame_total =
    close profile.Obs.Profile.total_blocked (Obs.Flame.total flame)
  in
  (* the bounded sketch must agree exactly with the true per-resource
     blocked time while the catalog fits in k *)
  let sketch = Obs.Sketch.create ~k:32 in
  List.iter
    (fun { Obs.Profile.r_resource; r_blocked; _ } ->
      ignore (Obs.Sketch.observe ~weight:r_blocked sketch r_resource
              : string option))
    profile.Obs.Profile.resources;
  let sketch_exact =
    List.length profile.Obs.Profile.resources > 32
    || List.for_all
         (fun { Obs.Profile.r_resource; r_blocked; _ } ->
           match Obs.Sketch.find sketch r_resource with
           | Some (estimate, error) -> close estimate r_blocked && error = 0.0
           | None -> false)
         profile.Obs.Profile.resources
  in
  let checks =
    [ ("blame total = profile total", blocked_agree);
      ("blamed = blocked (conservation)", blame_conserves);
      ("wait shares sum to durations", shares_exact);
      ("blocker table partitions the total", blockers_partition);
      ("flame total = profile total", flame_total);
      ("sketch exact below capacity", sketch_exact) ]
  in
  Tables.print ~title:"E20: blame pipeline overhead (median wall ms per run)"
    ~header:[ "mode"; "ms"; "vs trace"; "events" ]
    (List.map
       (fun (name, (median, events)) ->
         [ Tables.Text name; Tables.Float median;
           Tables.Float (if base > 0.0 then median /. base else 0.0);
           Tables.Int (List.length events) ])
       results
     @ [ [ Tables.Text "offline folds"; Tables.Float fold_ms;
           Tables.Text "-"; Tables.Int (List.length events) ] ]);
  Harness.print_identities ~title:"E20: attribution exactness" checks;
  Tables.note
    "expected shape: the online blame accumulator costs hashtable work\n\
     per lock event, well under the 10% budget over the bare capture\n\
     (that is the number that must stay small — it is always on); the\n\
     offline folds are one pass over the captured list, priced in\n\
     absolute ms because they run on demand. Every identity must hold —\n\
     blame is only useful if it is conservative.";
  Harness.write_json "BENCH_blame.json"
    (Obs.Json.Obj
       (List.map
          (fun (name, (median, events)) ->
            ( name,
              Obs.Json.Obj
                [ ("median_ms", Obs.Json.Float median);
                  ( "vs_trace",
                    Obs.Json.Float
                      (if base > 0.0 then median /. base else 0.0) );
                  ("events", Obs.Json.Int (List.length events)) ] ))
          results
        @ [ ("offline_folds_ms", Obs.Json.Float fold_ms);
            ("exactness", Harness.identities_json checks);
            ( "total_blocked",
              Obs.Json.Float profile.Obs.Profile.total_blocked ) ]))

(* ------------------------------------------------------------------ E21 *)

let e21_certifier () =
  Tables.note
    "\n=== E21: how fast is the certifier — and is it exact? ===\n\
     A real simulated workload is captured once; the offline certifier\n\
     then replays the stream and must (a) certify the real run clean,\n\
     (b) reject the same stream with a fabricated conflict cycle or a\n\
     post-release acquire spliced in, blaming exactly the corrupted\n\
     transactions, and (c) do all of it at a throughput that keeps\n\
     certification viable as a routine post-run gate.";
  let graph, specs =
    Bench.Run.manufacturing
      { Workload.Generator.default_manufacturing with cells = 6; seed = 21 }
      { Sim.Scenario.default_mix with jobs = 300; arrival_gap = 5;
        read_fraction = 0.4; seed = 21 }
  in
  let _, events =
    Bench.Run.capture ~config:Sim.Runner.default_config ~faults:Sim.Fault.none
      [] graph Workload.Dsl.Proposed specs
  in
  let certify stream =
    Obs.Certify.of_events ~modes:Mode.certify_modes stream
  in
  let median_ms, certificate =
    Harness.median_of_7 (fun () -> Harness.time (fun () -> certify events))
  in
  let edges = Lazy.force certificate.Obs.Certify.graph_edges in
  let events_per_sec =
    if median_ms > 0.0 then
      float_of_int certificate.Obs.Certify.events /. (median_ms /. 1000.0)
    else 0.0
  in
  (* ------------------------------------------------ exactness identities *)
  let at time kind = { Obs.Event.time; kind } in
  let grant txn resource =
    at 1e9
      (Obs.Event.Lock_granted
         { txn; resource; mode = "X"; immediate = true; lu = None;
           holders = [] })
  in
  let release txn resource =
    at 1e9 (Obs.Event.Lock_released { txn; resource; lu = None })
  in
  let commit txn = at 1e9 (Obs.Event.Txn_commit { txn }) in
  let t_a = 900001 and t_b = 900002 in
  (* a criss-cross on fresh resources: T_a before T_b on ca, T_b before
     T_a on cb — exactly one conflict cycle between the two *)
  let cycled =
    events
    @ [ grant t_a "bench-ca"; release t_a "bench-ca";
        grant t_b "bench-ca"; release t_b "bench-ca";
        grant t_b "bench-cb"; release t_b "bench-cb";
        grant t_a "bench-cb"; release t_a "bench-cb";
        commit t_a; commit t_b ]
  in
  (* one transaction that keeps growing after an uncovered release *)
  let nontwopl =
    events
    @ [ grant t_a "bench-ca"; release t_a "bench-ca";
        grant t_a "bench-cb"; commit t_a; release t_a "bench-cb" ]
  in
  let cycle_certificate = certify cycled in
  let phase_certificate = certify nontwopl in
  let injected_txn = function
    | Obs.Certify.Unserializable { cycle; _ } ->
      List.for_all (fun txn -> txn = t_a || txn = t_b) cycle
    | Obs.Certify.Phase_violation { txn; _ }
    | Obs.Certify.Concurrent_conflict { txn; _ }
    | Obs.Certify.Uncovered_grant { txn; _ }
    | Obs.Certify.Escalation_violation { txn; _ } ->
      txn = t_a || txn = t_b
  in
  let cycle_caught =
    List.exists
      (function Obs.Certify.Unserializable _ -> true | _ -> false)
      cycle_certificate.Obs.Certify.violations
  in
  let phase_caught =
    List.exists
      (function Obs.Certify.Phase_violation _ -> true | _ -> false)
      phase_certificate.Obs.Certify.violations
  in
  let endpoints_committed =
    List.for_all
      (fun edge ->
        List.mem edge.Obs.Certify.e_from certificate.Obs.Certify.graph_txns
        && List.mem edge.Obs.Certify.e_to certificate.Obs.Certify.graph_txns)
      edges
  in
  let dot = Obs.Dot.render certificate in
  let dot_covers_graph =
    List.for_all
      (fun txn ->
        let needle = Printf.sprintf "t%d [" txn in
        let length = String.length needle in
        let rec scan index =
          index + length <= String.length dot
          && (String.sub dot index length = needle || scan (index + 1))
        in
        scan 0)
      certificate.Obs.Certify.graph_txns
  in
  let algebra_agrees =
    let ours = Obs.Certify.default_modes and theirs = Mode.certify_modes in
    List.for_all
      (fun a ->
        List.for_all
          (fun b ->
            ours.Obs.Certify.m_compatible a b
            = theirs.Obs.Certify.m_compatible a b
            && ours.Obs.Certify.m_sup a b = theirs.Obs.Certify.m_sup a b)
          ours.Obs.Certify.m_known)
      ours.Obs.Certify.m_known
  in
  let checks =
    [ ("real run certifies clean", Obs.Certify.certified certificate);
      ("edge endpoints are committed txns", endpoints_committed);
      ("dot render covers the graph", dot_covers_graph);
      ("mode algebras agree pointwise", algebra_agrees);
      ( "injected cycle rejected, blame exact",
        cycle_caught
        && List.for_all injected_txn cycle_certificate.Obs.Certify.violations
      );
      ( "injected 2PL break rejected, blame exact",
        phase_caught
        && List.for_all injected_txn phase_certificate.Obs.Certify.violations
      ) ]
  in
  Tables.print ~title:"E21: certifier throughput (median of 7 passes)"
    ~header:[ "events"; "committed"; "edges"; "ms"; "events/sec" ]
    [ [ Tables.Int certificate.Obs.Certify.events;
        Tables.Int certificate.Obs.Certify.committed;
        Tables.Int (List.length edges);
        Tables.Float median_ms; Tables.Float events_per_sec ] ];
  Harness.print_identities ~title:"E21: certification exactness" checks;
  Tables.note
    "expected shape: one pass over the stream with hashtable work per\n\
     lock event, then a per-resource conflict frontier and Kahn's\n\
     algorithm over the committed transactions, both linear in the\n\
     episodes; the timed passes never build the all-pairs graph, which\n\
     only the edges column forces. So certifying every soak run is\n\
     cheap. The identities are the point: the certifier must pass what\n\
     the real lock table produced and reject both corruption patterns,\n\
     blaming only the spliced-in transactions.";
  Harness.write_json "BENCH_certify.json"
    (Obs.Json.Obj
       [ ("events", Obs.Json.Int certificate.Obs.Certify.events);
         ("committed", Obs.Json.Int certificate.Obs.Certify.committed);
         ("edges", Obs.Json.Int (List.length edges));
         ("median_ms", Obs.Json.Float median_ms);
         ("events_per_sec", Obs.Json.Float events_per_sec);
         ("exactness", Harness.identities_json checks) ])

let e22_differential_attribution () =
  Tables.note
    "\n=== E22: does differential attribution conserve the delta? ===\n\
     Two live captures of the same manufacturing workload — a calm run\n\
     and a contended run (denser arrivals) — are profiled and diffed.\n\
     Every attribution table (levels, depths, resources, conflict cells,\n\
     blockers) must sum exactly to the total wait-time delta: an\n\
     explanation that invents or loses ticks is worse than none. A\n\
     self-diff must attribute exactly zero everywhere, and a run present\n\
     on one side only must surface as drift, never vanish.";
  let capture ~arrival_gap ~label =
    let graph, specs =
      Bench.Run.manufacturing
        { Workload.Generator.default_manufacturing with cells = 6; seed = 22 }
        { Sim.Scenario.default_mix with jobs = 250; arrival_gap;
          read_fraction = 0.4; seed = 22 }
    in
    let _, events =
      Bench.Run.capture ~config:Sim.Runner.default_config
        ~faults:Sim.Fault.none [] graph Workload.Dsl.Proposed specs
    in
    Obs.Profile.of_events ~label events
  in
  let base = capture ~arrival_gap:6 ~label:"calm" in
  let cand = capture ~arrival_gap:2 ~label:"contended" in
  let report = Obs.Diff.of_reports ~base ~cand () in
  let partitions =
    [ ("levels", report.Obs.Diff.levels); ("depths", report.Obs.Diff.depths);
      ("resources", report.Obs.Diff.resources);
      ("cells", report.Obs.Diff.cells);
      ("blockers", report.Obs.Diff.blockers) ]
  in
  let partition_sum entries =
    List.fold_left
      (fun sum (entry : Obs.Diff.entry) -> sum +. entry.e_delta)
      0.0 entries
  in
  let self = Obs.Diff.of_reports ~base ~cand:base () in
  let self_zero =
    self.Obs.Diff.delta = 0.0
    && List.for_all
         (fun (entry : Obs.Diff.entry) -> entry.e_delta = 0.0)
         (self.Obs.Diff.levels @ self.Obs.Diff.depths
          @ self.Obs.Diff.resources @ self.Obs.Diff.cells
          @ self.Obs.Diff.blockers)
  in
  let drift =
    Obs.Diff.pair_reports ~base:[ base; cand ] ~cand:[ base ]
  in
  let drift_surfaced =
    List.length drift.Obs.Diff.pairs = 1
    && drift.Obs.Diff.only_base = [ "contended" ]
    && drift.Obs.Diff.only_cand = []
  in
  let median_ms, _ =
    Harness.median_of_7 (fun () ->
        Harness.time (fun () -> Obs.Diff.of_reports ~base ~cand ()))
  in
  let checks =
    ("conserves (1e-9 relative)", Obs.Diff.conserves report)
    :: ("self-diff attributes exactly zero", self_zero)
    :: ("one-sided run surfaces as drift", drift_surfaced)
    :: List.map
         (fun (name, entries) ->
           ( Printf.sprintf "%s sum equals delta to the tick" name,
             partition_sum entries = report.Obs.Diff.delta ))
         partitions
  in
  Tables.print ~title:"E22: calm vs contended (proposed technique)"
    ~header:[ "side"; "blocked"; "waits" ]
    [ [ Tables.Text "base (calm)";
        Tables.Float report.Obs.Diff.base_total;
        Tables.Int report.Obs.Diff.base_waits ];
      [ Tables.Text "cand (contended)";
        Tables.Float report.Obs.Diff.cand_total;
        Tables.Int report.Obs.Diff.cand_waits ];
      [ Tables.Text "delta"; Tables.Float report.Obs.Diff.delta;
        Tables.Int (report.Obs.Diff.cand_waits - report.Obs.Diff.base_waits)
      ] ];
  Harness.print_identities
    ~title:"E22: attribution exactness (median diff over 7 passes)" checks;
  Tables.note
    (Printf.sprintf
       "median of_reports: %.3f ms over %d+%d spans.  Expected shape: the\n\
        residue-folding discipline (largest share absorbs the float dust)\n\
        makes every table a true partition of the delta — the same\n\
        invariant colock why relies on when it explains a regression."
       median_ms report.Obs.Diff.base_waits report.Obs.Diff.cand_waits);
  Harness.write_json "BENCH_diffprof.json"
    (Obs.Json.Obj
       [ ("base_blocked", Obs.Json.Float report.Obs.Diff.base_total);
         ("cand_blocked", Obs.Json.Float report.Obs.Diff.cand_total);
         ("delta", Obs.Json.Float report.Obs.Diff.delta);
         ("base_waits", Obs.Json.Int report.Obs.Diff.base_waits);
         ("cand_waits", Obs.Json.Int report.Obs.Diff.cand_waits);
         ("median_ms", Obs.Json.Float median_ms);
         ("exactness", Harness.identities_json checks) ])

let experiments =
  [ ("E15", e15_resilience); ("E16", e16_contention_profile);
    ("E17", e17_monitoring_overhead); ("E19", e19_overload_control);
    ("E20", e20_blame_overhead); ("E21", e21_certifier);
    ("E22", e22_differential_attribution) ]
