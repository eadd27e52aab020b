(* Tests for the discrete-event simulator: determinism, blocking, deadlock
   recovery, and the headline concurrency comparisons between techniques. *)

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph
module Technique = Baselines.Technique

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let node steps = Option.get (Node_id.of_steps steps)

let request steps mode =
  let node = node steps in
  { Technique.node; mode; resource = Node_id.to_resource node }

let fixed_plan requests _txn = requests

(* the engine's defaults, for [{ engine with ... }] overrides *)
let engine = Sim.Runner.default_config.Sim.Runner.engine

(* ------------------------------------------------------------ Event queue *)

let test_event_queue_order () =
  let queue = Sim.Event_queue.create () in
  Sim.Event_queue.schedule queue ~time:5 "b";
  Sim.Event_queue.schedule queue ~time:1 "a";
  Sim.Event_queue.schedule queue ~time:5 "c";
  Alcotest.(check (list (pair int string)))
    "time then fifo"
    [ (1, "a"); (5, "b"); (5, "c") ]
    (List.init 3 (fun _ -> Option.get (Sim.Event_queue.pop queue)));
  check_bool "empty" true (Sim.Event_queue.is_empty queue)

(* Random interleavings of [schedule] and [pop], times drawn from a small
   range so ties are common, against a list kept in (time, insertion)
   order; [size] and [is_empty] agree after every operation. Long runs of
   schedules make the heap deep enough to sift over several levels. *)
let prop_event_queue_matches_sorted_list =
  let op =
    QCheck.Gen.(
      frequency [ (3, map Option.some (int_range 0 7)); (2, return None) ])
  in
  QCheck.Test.make ~count:300 ~name:"pops in (time, insertion) order"
    (QCheck.make
       ~print:(fun ops ->
         String.concat " "
           (List.map
              (function Some time -> string_of_int time | None -> "pop")
              ops))
       QCheck.Gen.(list_size (int_range 0 300) op))
    (fun ops ->
      let queue = Sim.Event_queue.create () in
      (* the reference: (time, insertion) pairs, earliest first *)
      let pending = ref [] and inserted = ref 0 in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Some time ->
              incr inserted;
              Sim.Event_queue.schedule queue ~time !inserted;
              pending := List.merge compare !pending [ (time, !inserted) ];
              true
            | None -> (
              match Sim.Event_queue.pop queue, !pending with
              | None, [] -> true
              | Some popped, expected :: rest ->
                pending := rest;
                popped = expected
              | Some _, [] | None, _ :: _ -> false)
          in
          agrees
          && Sim.Event_queue.size queue = List.length !pending
          && Sim.Event_queue.is_empty queue = (!pending = []))
        ops)

(* ----------------------------------------------------------------- Runner *)

let test_runner_single_job () =
  let table = Table.create () in
  let job =
    { Sim.Runner.arrival = 0;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ "db1" ] Mode.S ];
            access_cost = 100 } ] }
  in
  let metrics = Sim.Runner.run ~table [ job ] in
  check_int "committed" 1 metrics.Sim.Metrics.committed;
  check_int "makespan" 100 metrics.Sim.Metrics.makespan;
  check_int "no waits" 0 metrics.Sim.Metrics.total_wait;
  check_int "no entries left" 0 (Table.entry_count table)

let test_runner_serializes_conflicts () =
  let table = Table.create () in
  let job mode =
    { Sim.Runner.arrival = 0;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ "db1" ] mode ];
            access_cost = 100 } ] }
  in
  let metrics = Sim.Runner.run ~table [ job Mode.X; job Mode.X ] in
  check_int "both commit" 2 metrics.Sim.Metrics.committed;
  (* second had to wait for the first: makespan 200, wait 100 *)
  check_int "makespan doubled" 200 metrics.Sim.Metrics.makespan;
  check_int "wait recorded" 100 metrics.Sim.Metrics.total_wait

let test_runner_concurrent_when_compatible () =
  let table = Table.create () in
  let job =
    { Sim.Runner.arrival = 0;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ "db1" ] Mode.S ];
            access_cost = 100 } ] }
  in
  let metrics = Sim.Runner.run ~table [ job; job; job ] in
  check_int "all commit" 3 metrics.Sim.Metrics.committed;
  check_int "fully parallel" 100 metrics.Sim.Metrics.makespan

let test_runner_deadlock_recovery () =
  (* AB-BA in two steps: T1 locks a then b; T2 locks b then a. *)
  let table = Table.create () in
  let two_step first second =
    { Sim.Runner.arrival = 0;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ first ] Mode.X ];
            access_cost = 50 };
          { Sim.Runner.plan = fixed_plan [ request [ second ] Mode.X ];
            access_cost = 50 } ] }
  in
  let metrics = Sim.Runner.run ~table [ two_step "a" "b"; two_step "b" "a" ] in
  check_int "both commit eventually" 2 metrics.Sim.Metrics.committed;
  check_bool "a victim died at least once" true
    (metrics.Sim.Metrics.deadlock_aborts >= 1);
  check_int "nothing left locked" 0 (Table.entry_count table)

let test_runner_gave_up () =
  (* A job that always deadlocks against a permanent holder cannot happen
     with strict 2PL, so test the restart cap via an artificial self-cycle:
     two jobs forever colliding with zero backoff progress is impossible;
     instead check the config plumbs through: max_restarts 0 means a single
     victimhood gives up. *)
  let table = Table.create () in
  let two_step first second =
    { Sim.Runner.arrival = 0;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ first ] Mode.X ];
            access_cost = 50 };
          { Sim.Runner.plan = fixed_plan [ request [ second ] Mode.X ];
            access_cost = 50 } ] }
  in
  let config =
    { Sim.Runner.default_config with backoff = Lockmgr.Policy.Fixed 10;
      max_restarts = 0 }
  in
  let metrics =
    Sim.Runner.run ~config ~table [ two_step "a" "b"; two_step "b" "a" ]
  in
  check_int "survivor commits" 1 metrics.Sim.Metrics.committed;
  check_int "victim gave up" 1 metrics.Sim.Metrics.gave_up

(* Regression: gave-up jobs must both contribute their (truncated) response
   time and count in the denominator, so abandoned work can neither inflate
   nor flatter the mean. *)
let test_avg_response_counts_gave_up () =
  let table = Table.create () in
  let two_step first second =
    { Sim.Runner.arrival = 0;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ first ] Mode.X ];
            access_cost = 50 };
          { Sim.Runner.plan = fixed_plan [ request [ second ] Mode.X ];
            access_cost = 50 } ] }
  in
  let config =
    { Sim.Runner.default_config with backoff = Lockmgr.Policy.Fixed 10;
      max_restarts = 0 }
  in
  let metrics =
    Sim.Runner.run ~config ~table [ two_step "a" "b"; two_step "b" "a" ]
  in
  check_int "one committed, one gave up" 2
    (metrics.Sim.Metrics.committed + metrics.Sim.Metrics.gave_up);
  (* the survivor alone responds in exactly the makespan (arrival 0); the
     victim's give-up time must add on top *)
  check_bool "gave-up job contributes response time" true
    (metrics.Sim.Metrics.total_response > metrics.Sim.Metrics.makespan);
  Alcotest.(check (float 1e-9))
    "mean divides by committed + gave_up"
    (float_of_int metrics.Sim.Metrics.total_response /. 2.0)
    (Sim.Metrics.avg_response metrics);
  (* pure accessor check on a synthetic record *)
  let synthetic =
    { Sim.Metrics.committed = 1; deadlock_aborts = 1; timeout_aborts = 0;
      wdl_aborts = 0; gave_up = 1; crashed = 0; shed = 0; retry_denied = 0;
      makespan = 100; total_response = 200; total_wait = 0; lock_requests = 0;
      conflict_tests = 0; peak_lock_entries = 0; escalations = 0 }
  in
  Alcotest.(check (float 1e-9))
    "synthetic mean" 100.0
    (Sim.Metrics.avg_response synthetic)

(* Regression: a job victimized while it sits in a wait queue must credit
   the time it already spent blocked — the abort used to clear [waiting_on]
   without booking [time - blocked_since]. *)
let test_victim_wait_time_credited () =
  let table = Table.create () in
  let two_step arrival first second =
    { Sim.Runner.arrival;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ first ] Mode.X ];
            access_cost = 50 };
          { Sim.Runner.plan = fixed_plan [ request [ second ] Mode.X ];
            access_cost = 50 } ] }
  in
  (* T1 (arrival 0) blocks on b at t=50; T2 (arrival 5) closes the cycle at
     t=55; the Oldest policy sacrifices T1, which by then has waited 5. *)
  let config =
    { Sim.Runner.default_config with
      engine = { engine with victim = Lockmgr.Policy.Oldest };
      backoff = Lockmgr.Policy.Fixed 50 }
  in
  let metrics =
    Sim.Runner.run ~config ~table
      [ two_step 0 "a" "b"; two_step 5 "b" "a" ]
  in
  check_int "both commit" 2 metrics.Sim.Metrics.committed;
  check_int "one deadlock abort" 1 metrics.Sim.Metrics.deadlock_aborts;
  check_int "victim's blocked time survives the abort" 5
    metrics.Sim.Metrics.total_wait

let test_timeout_resolution () =
  (* T1 camps on a for 500 ticks; T2 cannot deadlock (no cycle), so only
     the lock-wait timeout can break its stall. *)
  let table = Table.create () in
  let config =
    { Sim.Runner.default_config with
      engine = { engine with resolution = Lockmgr.Policy.Timeout 100 };
      backoff = Lockmgr.Policy.Fixed 50; check_invariants = true }
  in
  let holder =
    { Sim.Runner.arrival = 0;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ "a" ] Mode.X ];
            access_cost = 500 } ] }
  in
  let contender =
    { Sim.Runner.arrival = 10;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ "a" ] Mode.X ];
            access_cost = 100 } ] }
  in
  let metrics = Sim.Runner.run ~config ~table [ holder; contender ] in
  check_int "both commit" 2 metrics.Sim.Metrics.committed;
  check_int "no detection ran" 0 metrics.Sim.Metrics.deadlock_aborts;
  (* waits of 100 abort at t=110, 260, 410; the 460 wait is granted at 500 *)
  check_int "three timeout aborts" 3 metrics.Sim.Metrics.timeout_aborts;
  check_int "wait fully accounted" 340 metrics.Sim.Metrics.total_wait;
  check_int "nothing left locked" 0 (Table.entry_count table)

let test_timeout_breaks_deadlock () =
  (* AB-BA with detection switched off entirely: the deadline is the only
     thing standing between the cycle and a hung simulation. *)
  let table = Table.create () in
  let config =
    { Sim.Runner.default_config with
      engine = { engine with resolution = Lockmgr.Policy.Timeout 80 };
      backoff = Lockmgr.Policy.Exponential { base = 20; cap = 200; seed = 3 };
      check_invariants = true }
  in
  let two_step first second =
    { Sim.Runner.arrival = 0;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ first ] Mode.X ];
            access_cost = 50 };
          { Sim.Runner.plan = fixed_plan [ request [ second ] Mode.X ];
            access_cost = 50 } ] }
  in
  let metrics = Sim.Runner.run ~config ~table [ two_step "a" "b"; two_step "b" "a" ] in
  check_int "both commit" 2 metrics.Sim.Metrics.committed;
  check_int "no cycle search" 0 metrics.Sim.Metrics.deadlock_aborts;
  check_bool "timeout had to fire" true (metrics.Sim.Metrics.timeout_aborts >= 1);
  check_int "nothing left locked" 0 (Table.entry_count table)

let test_victim_policy_selects () =
  (* Same AB-BA, staggered arrivals; which side dies is pure policy. *)
  let victim_of policy =
    let sink, events = Obs.Sink.memory () in
    let table = Table.create ~obs:sink () in
    let two_step arrival first second =
      { Sim.Runner.arrival;
      priority = Robust.Admission.Normal;
        steps =
          [ { Sim.Runner.plan = fixed_plan [ request [ first ] Mode.X ];
              access_cost = 50 };
            { Sim.Runner.plan = fixed_plan [ request [ second ] Mode.X ];
              access_cost = 50 } ] }
    in
    let config =
      { Sim.Runner.default_config with engine = { engine with victim = policy } }
    in
    let (_ : Sim.Metrics.t) =
      Sim.Runner.run ~config ~table
        [ two_step 0 "a" "b"; two_step 5 "b" "a" ]
    in
    List.filter_map
      (fun event ->
        match event.Obs.Event.kind with
        | Obs.Event.Victim_aborted { txn; _ } -> Some txn
        | _ -> None)
      (events ())
  in
  Alcotest.(check (list int)) "youngest: the later arrival dies" [ 2 ]
    (victim_of Lockmgr.Policy.Youngest);
  Alcotest.(check (list int)) "oldest: the earlier arrival dies" [ 1 ]
    (victim_of Lockmgr.Policy.Oldest)

let test_fault_fates () =
  let spec =
    { Sim.Fault.crash = 0.3; stall = 0.3; stall_factor = 4; hog = 0.2;
      fault_seed = 11 }
  in
  (* pure in (seed, txn) *)
  List.iter
    (fun txn ->
      check_bool "fate is deterministic" true
        (Sim.Fault.fate spec ~txn ~steps:3 = Sim.Fault.fate spec ~txn ~steps:3))
    [ 1; 2; 3; 50; 999 ];
  (* every kind shows up across enough draws *)
  let fates = List.init 200 (fun i -> Sim.Fault.fate spec ~txn:(i + 1) ~steps:3) in
  let has predicate = List.exists predicate fates in
  check_bool "normals" true (has (fun f -> f = Sim.Fault.Normal));
  check_bool "crashes" true
    (has (function Sim.Fault.Crash_at _ -> true | _ -> false));
  check_bool "stalls" true
    (has (function Sim.Fault.Stall _ -> true | _ -> false));
  check_bool "hogs" true (has (fun f -> f = Sim.Fault.Hog));
  (* parser round-trips the clause syntax *)
  (match Sim.Fault.of_string "crash:0.1,stall:0.2x4,hog:0.05" with
   | Ok parsed ->
     check_bool "parse" true
       (parsed.Sim.Fault.crash = 0.1 && parsed.Sim.Fault.stall = 0.2
        && parsed.Sim.Fault.stall_factor = 4 && parsed.Sim.Fault.hog = 0.05)
   | Error (`Msg message) -> Alcotest.fail message);
  check_bool "over-unity rejected" true
    (match Sim.Fault.of_string "crash:0.9,hog:0.9" with
     | Error _ -> true
     | Ok _ -> false)

let test_fault_crash_releases_locks () =
  let table = Table.create () in
  let job =
    { Sim.Runner.arrival = 0;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ "a" ] Mode.X ];
            access_cost = 100 } ] }
  in
  let faults = { Sim.Fault.none with crash = 1.0; fault_seed = 7 } in
  let config = { Sim.Runner.default_config with check_invariants = true } in
  let metrics = Sim.Runner.run ~config ~faults ~table [ job; job; job ] in
  check_int "all crashed" 3 metrics.Sim.Metrics.crashed;
  check_int "none committed" 0 metrics.Sim.Metrics.committed;
  check_int "locks released" 0 (Table.entry_count table)

let test_fault_hog_eventually_yields () =
  (* One hog camps on a; under pure Detection no cycle ever forms, so only
     the hog-hold crash lets the honest job through. *)
  let table = Table.create () in
  let job cost =
    { Sim.Runner.arrival = 0;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ "a" ] Mode.X ];
            access_cost = cost } ] }
  in
  (* hog probability 1 gives every job the hog fate; keep the honest job
     honest by injecting faults only via a spec whose draw spares txn 2 *)
  let faults = { Sim.Fault.none with hog = 0.45; fault_seed = 2 } in
  (* seeded draws: txn 1 -> Hog, txn 2 -> Normal *)
  check_bool "txn 1 drew hog" true
    (Sim.Fault.fate faults ~txn:1 ~steps:1 = Sim.Fault.Hog);
  check_bool "txn 2 drew normal" true
    (Sim.Fault.fate faults ~txn:2 ~steps:1 = Sim.Fault.Normal);
  let config =
    { Sim.Runner.default_config with hog_hold = 300; check_invariants = true }
  in
  let metrics = Sim.Runner.run ~config ~faults ~table [ job 50; job 50 ] in
  check_int "hog crashed" 1 metrics.Sim.Metrics.crashed;
  check_int "honest job committed" 1 metrics.Sim.Metrics.committed;
  (* the honest job waited exactly for the hog hold *)
  check_int "waited out the hog" 300 metrics.Sim.Metrics.total_wait;
  check_int "locks released" 0 (Table.entry_count table)

let test_runner_deterministic () =
  let build () =
    let db = Workload.Generator.manufacturing Workload.Generator.default_manufacturing in
    let graph = Graph.build db in
    let specs =
      Sim.Scenario.manufacturing_mix db graph
        { Sim.Scenario.default_mix with jobs = 30; seed = 5 }
    in
    let table = Table.create () in
    let protocol = Colock.Protocol.create graph table in
    let jobs = Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol) specs in
    Sim.Runner.run ~table jobs
  in
  let first = build () in
  let second = build () in
  check_bool "identical metrics" true
    (Sim.Metrics.row first = Sim.Metrics.row second)

let test_runner_on_begin () =
  let table = Table.create () in
  let seen = ref [] in
  let job =
    { Sim.Runner.arrival = 0;
      priority = Robust.Admission.Normal;
      steps =
        [ { Sim.Runner.plan = fixed_plan [ request [ "db1" ] Mode.S ];
            access_cost = 10 } ] }
  in
  let (_ : Sim.Metrics.t) =
    Sim.Runner.run ~on_begin:(fun txn -> seen := txn :: !seen) ~table
      [ job; job ]
  in
  Alcotest.(check (list int)) "txn ids" [ 2; 1 ] !seen

(* The controller senses the run itself, so a controlled run needs no sink
   and makes the same decisions whether or not anything records it. *)
let test_runner_overload_unobserved () =
  let graph, specs = Lazy.force Lifecycle.catalog in
  let config =
    List.find_map
      (fun (name, config, _, _) -> if name = "overload" then Some config else None)
      Lifecycle.runs
    |> Option.get
  in
  let run obs =
    let table = Table.create ?obs () in
    let protocol = Colock.Protocol.create graph table in
    Sim.Runner.run ~config ~table
      (Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol) specs)
  in
  let limits = ref 0 in
  let recorded =
    run
      (Some
         (Obs.Sink.create
            [ (fun event ->
                match event.Obs.Event.kind with
                | Obs.Event.Admission_limit _ -> incr limits
                | _ -> ()) ]))
  in
  check_bool "the controller moved the limit" true (!limits > 0);
  check_bool "no sink" true (run None = recorded);
  check_bool "a sink with no handlers" true
    (run (Some (Obs.Sink.create [])) = recorded)

let x_job resource access_cost =
  { Sim.Runner.arrival = 0;
    priority = Robust.Admission.Normal;
    steps =
      [ { Sim.Runner.plan = fixed_plan [ request [ resource ] Mode.X ];
          access_cost } ] }

(* A controlled run's limit changes, as (tick, new limit), with the
   controller reading its senses every 100 ticks. *)
let limit_changes ?(faults = Sim.Fault.none)
    ?(admission =
      { Robust.Admission.default_config with
        initial = 2; min_limit = 1; max_limit = 4 }) ~engine ~max_restarts
    ~thresholds jobs =
  let changes = ref [] in
  let sink =
    Obs.Sink.create
      [ (fun event ->
          match event.Obs.Event.kind with
          | Obs.Event.Admission_limit { limit; _ } ->
            changes := (int_of_float event.Obs.Event.time, limit) :: !changes
          | _ -> ()) ]
  in
  let config =
    { Sim.Runner.default_config with
      engine; max_restarts;
      overload =
        Some
          { Sim.Runner.default_overload with
            admission = Some admission;
            controller = { Robust.Controller.every = 100; thresholds } } }
  in
  let (_ : Sim.Metrics.t) =
    Sim.Runner.run ~config ~faults ~table:(Table.create ~obs:sink ()) jobs
  in
  List.rev !changes

(* Where the controller's senses end: at a control tick the windows reach
   back 200 ticks, a wait that ended exactly 200 ticks before has aged
   out, and a give-up counts as an abort on top of its victim's. *)
let test_runner_controller_senses () =
  (* T2 waits on a from 0 to 100, behind T1, and commits at 200: the wait
     is live at the tick of 200 and gone at 300 *)
  Alcotest.(check (list (pair int int)))
    "a wait ended at 100 breaches at 200, not at 300"
    [ (100, 3); (200, 2); (300, 3) ]
    (limit_changes ~engine ~max_restarts:20
       ~thresholds:
         { Robust.Controller.p95_wait = 50.0; abort_rate = 1.0;
           queue_depth = 8 }
       [ x_job "a" 100; x_job "a" 100 ]);
  (* T1 commits at 20; T3 times out behind T2 at 50 and gives up: one
     commit and two aborts read 2/3, above 0.6, and lower the limit from 2
     to 1 (one abort would read 1/2 and raise it to 3) *)
  match
    limit_changes
      ~engine:{ engine with resolution = Lockmgr.Policy.Timeout 50 }
      ~max_restarts:0
      ~thresholds:
        { Robust.Controller.p95_wait = 1000.0; abort_rate = 0.6;
          queue_depth = 8 }
      [ x_job "a" 20; x_job "b" 300; x_job "b" 10 ]
  with
  | (100, limit) :: _ ->
    check_int "a give-up is a second abort" 1 limit
  | _ -> Alcotest.fail "no limit change at the first tick"

(* The outcome rules: a crash counts as an abort, shed work as nothing.
   Each run reads at 100 ticks, after every job has ended, and a limit of
   3 means the controller saw no abort (raised from 2), 1 that it saw
   more than 40% of outcomes abort (lowered from 2). *)
let test_runner_controller_outcomes () =
  let thresholds =
    { Robust.Controller.p95_wait = 1000.0; abort_rate = 0.4; queue_depth = 8 }
  in
  let faults = { Sim.Fault.none with crash = 0.5; fault_seed = 2 } in
  check_bool "txn 1 drew a crash" true
    (Sim.Fault.fate faults ~txn:1 ~steps:1 = Sim.Fault.Crash_at 0);
  check_bool "txn 2 drew normal" true
    (Sim.Fault.fate faults ~txn:2 ~steps:1 = Sim.Fault.Normal);
  (* T1 crashes at 0 and T2 commits at 20: one abort in two *)
  Alcotest.(check (list (pair int int)))
    "a crash is an abort" [ (100, 1) ]
    (limit_changes ~faults ~engine ~max_restarts:0 ~thresholds
       [ x_job "a" 20; x_job "b" 20 ]);
  (* with no queue, T3 and T4 are shed at 0 while T1 and T2 commit at 20:
     two commits and nothing else *)
  Alcotest.(check (list (pair int int)))
    "shed work is no outcome" [ (100, 3) ]
    (limit_changes
       ~admission:
         { Robust.Admission.default_config with
           initial = 2; min_limit = 1; max_limit = 4; queue_capacity = 0 }
       ~engine ~max_restarts:0 ~thresholds
       [ x_job "a" 20; x_job "b" 20; x_job "c" 20; x_job "d" 20 ])

(* ------------------------------------------------------- Lifecycle pin *)

(* Each of [Lifecycle.runs]' JSONL traces is compared by digest with the
   value recorded before the transaction lifecycle moved into
   [Txn_manager]. *)
let lifecycle_digest ?faults config =
  let events = Lifecycle.events ?faults config in
  let path = Filename.temp_file "lifecycle" ".jsonl" in
  let channel = open_out path in
  Obs.Jsonl.write_events channel events;
  close_out channel;
  let digest = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  let kinds =
    List.sort_uniq String.compare
      (List.map (fun event -> Obs.Event.name event.Obs.Event.kind) events)
  in
  (digest, kinds)

let test_lifecycle_pinned () =
  let seen =
    List.concat_map
      (fun (name, config, faults, expected) ->
        let digest, kinds = lifecycle_digest ~faults config in
        Alcotest.(check string) (name ^ ": trace digest") expected digest;
        kinds)
      Lifecycle.runs
  in
  List.iter
    (fun kind ->
      check_bool (kind ^ " emitted by some run") true (List.mem kind seen))
    [ "victim_aborted"; "deadlock_detected"; "timeout_abort";
      "contention_abort"; "txn_abort"; "waits_for"; "admission";
      "admission_limit"; "breaker"; "retry_denied" ]

(* ----------------------------------------------------- Technique contrasts *)

let scenario_env () =
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells = 6 }
  in
  let graph = Graph.build db in
  (db, graph)

let run_mix db graph technique_of_table mix =
  let specs = Sim.Scenario.manufacturing_mix db graph mix in
  let table = Table.create () in
  let technique = technique_of_table table in
  let jobs = Sim.Scenario.compile graph technique specs in
  Sim.Runner.run ~table jobs

let proposed table_graph table =
  Sim.Scenario.Proposed (Colock.Protocol.create table_graph table)

let test_proposed_beats_whole_object_on_mixed_load () =
  (* E4 shape: contended Q1/Q2 mix on few cells — sub-object granules win. *)
  let db, graph = scenario_env () in
  let mix =
    { Sim.Scenario.default_mix with jobs = 60; arrival_gap = 5; seed = 23 }
  in
  let proposed_metrics = run_mix db graph (proposed graph) mix in
  let whole_metrics =
    run_mix db graph (fun _table -> Sim.Scenario.Whole_object) mix
  in
  check_bool "everything commits (proposed)" true
    (proposed_metrics.Sim.Metrics.committed = 60);
  check_bool "proposed waits less" true
    (proposed_metrics.Sim.Metrics.total_wait
     < whole_metrics.Sim.Metrics.total_wait);
  check_bool "proposed finishes no later" true
    (proposed_metrics.Sim.Metrics.makespan
     <= whole_metrics.Sim.Metrics.makespan)

let test_proposed_needs_fewer_locks_than_tuple_level () =
  let db, graph = scenario_env () in
  let mix =
    { Sim.Scenario.default_mix with jobs = 40; read_fraction = 0.9; seed = 31 }
  in
  let proposed_metrics = run_mix db graph (proposed graph) mix in
  let tuple_metrics =
    run_mix db graph (fun _table -> Sim.Scenario.Tuple_level) mix
  in
  check_bool "tuple level issues many more lock requests" true
    (tuple_metrics.Sim.Metrics.lock_requests
     > 2 * proposed_metrics.Sim.Metrics.lock_requests);
  check_bool "tuple level fills the lock table" true
    (tuple_metrics.Sim.Metrics.peak_lock_entries
     > proposed_metrics.Sim.Metrics.peak_lock_entries)

let test_rule4_prime_beats_rule4_under_authz () =
  (* E7 shape: robot updates by transactions that may not modify the
     library: rule 4' shares the effectors in S, rule 4 serializes on X. *)
  let db, graph = scenario_env () in
  let mix =
    { Sim.Scenario.default_mix with jobs = 50; read_fraction = 0.0;
      arrival_gap = 2; seed = 41 }
  in
  let run rule =
    let specs = Sim.Scenario.manufacturing_mix db graph mix in
    let table = Table.create () in
    let rights = Authz.Rights.create () in
    Authz.Rights.set_relation_default rights ~relation:"effectors" false;
    let protocol = Colock.Protocol.create ~rule ~rights graph table in
    let jobs = Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol) specs in
    Sim.Runner.run ~table jobs
  in
  let rule4 = run Colock.Protocol.Rule_4 in
  let rule4_prime = run Colock.Protocol.Rule_4_prime in
  check_bool "rule 4' commits everything" true
    (rule4_prime.Sim.Metrics.committed = 50);
  check_bool "rule 4' waits less" true
    (rule4_prime.Sim.Metrics.total_wait < rule4.Sim.Metrics.total_wait)

let () =
  Alcotest.run "sim"
    [ ("event_queue",
       [ Alcotest.test_case "order" `Quick test_event_queue_order;
         QCheck_alcotest.to_alcotest prop_event_queue_matches_sorted_list ]);
      ("runner",
       [ Alcotest.test_case "single job" `Quick test_runner_single_job;
         Alcotest.test_case "serializes conflicts" `Quick
           test_runner_serializes_conflicts;
         Alcotest.test_case "concurrent when compatible" `Quick
           test_runner_concurrent_when_compatible;
         Alcotest.test_case "deadlock recovery" `Quick
           test_runner_deadlock_recovery;
         Alcotest.test_case "gave up" `Quick test_runner_gave_up;
         Alcotest.test_case "avg response counts gave up" `Quick
           test_avg_response_counts_gave_up;
         Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
         Alcotest.test_case "on_begin" `Quick test_runner_on_begin;
         Alcotest.test_case "lifecycle pinned" `Quick test_lifecycle_pinned;
         Alcotest.test_case "overload needs no sink" `Quick
           test_runner_overload_unobserved;
         Alcotest.test_case "controller senses" `Quick
           test_runner_controller_senses;
         Alcotest.test_case "controller outcomes" `Quick
           test_runner_controller_outcomes ]);
      ("resilience",
       [ Alcotest.test_case "victim wait time credited" `Quick
           test_victim_wait_time_credited;
         Alcotest.test_case "timeout resolution" `Quick
           test_timeout_resolution;
         Alcotest.test_case "timeout breaks deadlock" `Quick
           test_timeout_breaks_deadlock;
         Alcotest.test_case "victim policy selects" `Quick
           test_victim_policy_selects;
         Alcotest.test_case "fault fates" `Quick test_fault_fates;
         Alcotest.test_case "crash releases locks" `Quick
           test_fault_crash_releases_locks;
         Alcotest.test_case "hog eventually yields" `Quick
           test_fault_hog_eventually_yields ]);
      ("contrasts",
       [ Alcotest.test_case "proposed vs whole-object" `Quick
           test_proposed_beats_whole_object_on_mixed_load;
         Alcotest.test_case "proposed vs tuple-level" `Quick
           test_proposed_needs_fewer_locks_than_tuple_level;
         Alcotest.test_case "rule 4' vs rule 4" `Quick
           test_rule4_prime_beats_rule4_under_authz ]) ]
