let manufacturing catalog mix =
  let db = Workload.Generator.manufacturing catalog in
  let graph = Colock.Instance_graph.build db in
  (graph, Sim.Scenario.manufacturing_mix db graph mix)

type t = {
  name : string;
  table : Lockmgr.Lock_table.t;
  jobs : Sim.Runner.job list;
}

let setup ~obs graph technique specs =
  (* the baselines have no protocol to install the resolver, so the table
     gets it here for every technique *)
  let table =
    Lockmgr.Lock_table.create ?obs
      ~meta:(Colock.Instance_graph.lu_resolver graph) ()
  in
  let technique = Sim.Scenario.technique_of_dsl graph table technique in
  { name = Sim.Scenario.technique_name technique; table;
    jobs = Sim.Scenario.compile graph technique specs }

let capture ~config ~faults handlers graph technique specs =
  let sink, events = Obs.Sink.memory () in
  List.iter (Obs.Sink.attach sink) handlers;
  let run = setup ~obs:(Some sink) graph technique specs in
  let (_ : Sim.Metrics.t) =
    Sim.Runner.run ~config ~faults ~table:run.table run.jobs
  in
  (run.name, events ())

let row run metrics collector =
  Sim.Metrics.row metrics
  @ List.map
      (fun (key, value) -> ("lock." ^ key, value))
      (Lockmgr.Lock_stats.row (Lockmgr.Lock_table.stats run.table))
  @ Obs.Registry.row (Obs.Collector.registry collector)
