(* Chaos soak: a large faulted workload (crashes mid-step, stalled accesses,
   never-committing lock hogs) must terminate cleanly under every
   collision-resolution strategy, with the lock table's structural
   invariants audited after every simulator event and no waiter left stuck.
   Everything is seeded, so two runs must agree bit for bit. *)

module Table = Lockmgr.Lock_table
module Policy = Lockmgr.Policy
module Graph = Colock.Instance_graph
module Protocol = Colock.Protocol

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let jobs_per_run =
  (* CHAOS_JOBS shrinks the soak for quick local iteration *)
  match Sys.getenv_opt "CHAOS_JOBS" with
  | Some count -> int_of_string count
  | None -> 1000

let faults =
  { Sim.Fault.crash = 0.05; stall = 0.1; stall_factor = 2; hog = 0.03;
    fault_seed = 99 }

let run_chaos resolution =
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells = 12;
        effectors = 32; seed = 9 }
  in
  let graph = Graph.build db in
  (* the arrival gap keeps the offered load just below capacity (hogs
     included) so the backlog — and with it the per-event audit cost — stays
     bounded over the whole soak *)
  let mix =
    { Sim.Scenario.default_mix with jobs = jobs_per_run; arrival_gap = 60;
      steps_per_job = 2; read_fraction = 0.3; seed = 9 }
  in
  let specs = Sim.Scenario.manufacturing_mix db graph mix in
  let table = Table.create () in
  let protocol = Protocol.create graph table in
  let jobs = Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol) specs in
  let config =
    { Sim.Runner.default_config with
      engine = { Sim.Runner.default_config.engine with resolution };
      backoff = Policy.Exponential { base = 20; cap = 300; seed = 9 };
      hog_hold = 400; check_invariants = true }
  in
  let metrics = Sim.Runner.run ~config ~faults ~table jobs in
  (metrics, Table.entry_count table)

let soak ?(determinism = false) name resolution () =
  let metrics, leftover = run_chaos resolution in
  Format.printf "%s: %a@." name Sim.Metrics.pp metrics;
  (* the run draining its event queue with every job in a terminal state is
     the "no permanently stuck waiter" guarantee: a stuck waiter would be
     unaccounted for here *)
  check_int (name ^ ": every job accounted for") jobs_per_run
    (metrics.Sim.Metrics.committed + metrics.Sim.Metrics.gave_up
    + metrics.Sim.Metrics.crashed);
  check_int (name ^ ": table drained") 0 leftover;
  check_bool (name ^ ": faults actually fired") true
    (metrics.Sim.Metrics.crashed > 0);
  check_bool (name ^ ": most jobs still commit") true
    (metrics.Sim.Metrics.committed > jobs_per_run / 2);
  (match resolution with
   | Policy.Detection ->
     check_int (name ^ ": no timeout aborts without timeouts") 0
       metrics.Sim.Metrics.timeout_aborts
   | Policy.Timeout _ ->
     check_int (name ^ ": no detection aborts without detection") 0
       metrics.Sim.Metrics.deadlock_aborts
   | Policy.Hybrid _ -> ());
  if determinism then begin
    let metrics2, _ = run_chaos resolution in
    Alcotest.(check (list (pair string (float 0.0))))
      (name ^ ": deterministic")
      (Sim.Metrics.row metrics) (Sim.Metrics.row metrics2)
  end

let () =
  Alcotest.run "chaos"
    [ ("soak",
       [ Alcotest.test_case "detection" `Quick
           (soak "detection" Policy.Detection);
         (* above the hog hold a deadline only fires on pathological waits;
            hog- and stall-blocked jobs abort once or twice, retry after the
            faulty holder is crash-released, and still commit *)
         Alcotest.test_case "timeout" `Quick
           (soak ~determinism:true "timeout" (Policy.Timeout 500));
         Alcotest.test_case "hybrid" `Quick
           (soak "hybrid" (Policy.Hybrid 500)) ]) ]
