(** One simulated run with its observers: the set-up the [colock] CLI, the
    scenario baselines and the experiment harness share. It lives here, in
    a library the benchmark binary does not link, so the shared code can
    change without moving what the benchmark measures. *)

val manufacturing :
  Workload.Generator.manufacturing ->
  Sim.Scenario.mix ->
  Colock.Instance_graph.t * Sim.Scenario.job_spec list
(** Generates the manufacturing catalog, builds its instance graph and
    draws the job mix over it. *)

type t = {
  name : string;  (** the technique's {!Sim.Scenario.technique_name} *)
  table : Lockmgr.Lock_table.t;
  jobs : Sim.Runner.job list;
}

val setup :
  obs:Obs.Sink.t option ->
  Colock.Instance_graph.t ->
  Workload.Dsl.technique ->
  Sim.Scenario.job_spec list ->
  t
(** A fresh lock table feeding [obs], whose events carry the graph's
    lockable-unit tags under every technique, the technique on it, and the
    specs compiled for it. Run it with [Sim.Runner.run ~table jobs]. *)

val capture :
  config:Sim.Runner.config ->
  faults:Sim.Fault.spec ->
  (Obs.Event.t -> unit) list ->
  Colock.Instance_graph.t ->
  Workload.Dsl.technique ->
  Sim.Scenario.job_spec list ->
  string * Obs.Event.t list
(** Runs the specs with every event captured in order; the handlers see
    each event after the capture. Returns the technique's name and the
    events. [colock bench diff --explain] re-runs a regressed scenario
    pair through it. *)

val row : t -> Sim.Metrics.t -> Obs.Collector.t -> (string * float) list
(** The row every run report shares: {!Sim.Metrics.row}, the lock table's
    {!Lockmgr.Lock_stats.row} under a [lock.] prefix, then the collector's
    registry row. *)
