(* Ten seeded simulator runs that between them emit every lifecycle event
   kind the simulator has: four victim policies, timeouts, hybrid
   resolution under crash/stall/hog faults, wait-depth-limited and
   running-priority restarts, a restart budget with wait-for snapshots,
   and overload control. [test_sim] pins their JSONL traces by digest;
   [test_spans] pins what every trace fold makes of them. *)

module Graph = Colock.Instance_graph

let engine = Sim.Runner.default_config.Sim.Runner.engine

let catalog =
  lazy
    (let db =
       Workload.Generator.manufacturing
         { Workload.Generator.default_manufacturing with cells = 3 }
     in
     let graph = Graph.build db in
     let mix =
       { Sim.Scenario.default_mix with jobs = 40; steps_per_job = 3;
         arrival_gap = 20; read_fraction = 0.2; seed = 17 }
     in
     (graph, Sim.Scenario.manufacturing_mix db graph mix))

(* The run's event stream, in emission order. *)
let events ?(faults = Sim.Fault.none) config =
  let graph, specs = Lazy.force catalog in
  let events = ref [] in
  let sink = Obs.Sink.create [ (fun event -> events := event :: !events) ] in
  let table = Lockmgr.Lock_table.create ~obs:sink () in
  let protocol = Colock.Protocol.create graph table in
  let jobs =
    Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol) specs
  in
  let (_ : Sim.Metrics.t) = Sim.Runner.run ~config ~faults ~table jobs in
  List.rev !events

(* [(name, config, faults, digest)]: the digests are of each run's JSONL
   trace; they were recorded once and must never be edited to make a
   change pass. *)
let runs =
  let base = Sim.Runner.default_config in
  let with_engine engine = { base with Sim.Runner.engine } in
  let victim victim = with_engine { engine with victim } in
  let overload =
    { Sim.Runner.default_overload with
      admission =
        Some
          { Robust.Admission.default_config with
            initial = 2; min_limit = 1; max_limit = 4; queue_capacity = 2 };
      budget = Some { Robust.Budget.ratio = 0.2; burst = 1.0 };
      breaker =
        Some
          { Robust.Breaker.failure_rate = 0.3; min_events = 4; open_for = 100;
            probes = 2 } }
  in
  let none = Sim.Fault.none in
  [ ("youngest", victim Lockmgr.Policy.Youngest, none,
     "2ac8706bc74079e30742bd15070ccc83");
    ("oldest", victim Lockmgr.Policy.Oldest, none,
     "e6fbdca5334f2bd15ad2f6c5cc742859");
    ("fewest-locks", victim Lockmgr.Policy.Fewest_locks, none,
     "3fd15fe522b723ef21a6f979f7b89489");
    ("least-work", victim Lockmgr.Policy.Least_work, none,
     "5f691df9b0b12cea69b84615f2a38d9f");
    ("timeout", with_engine { engine with resolution = Lockmgr.Policy.Timeout 150 },
     none,
     "8973300fcd2ea95e8344b80f81580e7f");
    ("hybrid with faults",
     { (with_engine { engine with resolution = Lockmgr.Policy.Hybrid 200 })
       with hog_hold = 500 },
     { Sim.Fault.crash = 0.05; stall = 0.2; stall_factor = 4; hog = 0.05;
       fault_seed = 3 },
     "7c927cd54b66e197c7926773a0ecf3ba");
    ("wdl", with_engine { engine with restart = Lockmgr.Policy.Wait_depth 1 },
     none,
     "d82fa3cd5b343480c9d54aa92cf20396");
    ("running-priority",
     with_engine { engine with restart = Lockmgr.Policy.Running_priority },
     none,
     "2f0be456d1975f06477b873adac8b323");
    ("restarts and snapshots",
     { base with max_restarts = 1; snapshot_every = Some 200 }, none,
     "692f1fc92fd3043bf5eacd9fed252ce5");
    ("overload",
     { (with_engine { engine with restart = Lockmgr.Policy.Wait_depth 1 })
       with overload = Some overload },
     none, "9685ee662869b1eda4fe2ce14e7ddaa1") ]
