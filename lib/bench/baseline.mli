(** Per-scenario performance baselines with noise-aware tolerance bands.

    A baseline is the committed record of what every (scenario × technique)
    pair measured on a known-good build: simulator outcome metrics, lock
    manager counters and the collector's latency quantiles. [colock bench
    diff] replays the committed scenario suite, compares fresh numbers
    against the stored ones through per-metric-family tolerance bands, and
    fails on regressions — a perf trajectory that travels with the code.

    Bands are relative-plus-absolute: metric [m] with band [{rel; abs}]
    tolerates [|fresh - base| <= rel * |base| + abs] before a move in the
    bad direction counts as {!Regressed}. The absolute floor keeps tiny
    counts (0 deadlocks vs 1) from tripping percentage-only gates. *)

type run = {
  scenario : string;
  technique : string;
  metrics : (string * float) list;  (** sorted by key *)
}

type t = run list

val measure :
  Nf2.Database.t ->
  Colock.Instance_graph.t ->
  Workload.Dsl.t ->
  Workload.Dsl.technique ->
  run
(** One deterministic run of [dsl] under one technique: a fresh lock table
    with a collector sink, {!Sim.Scenario.of_dsl} jobs, the scenario's
    faults. Metrics are the {!Sim.Metrics.row} keys, the
    {!Lockmgr.Lock_stats.row} counters under a [lock.] prefix, and the
    collector's [lock_wait_*] / [grant_latency_*] / [txn_response_*]
    registry rows. *)

val collect : Workload.Dsl.t list -> t
(** {!measure} over every scenario × its listed techniques, in order. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result

val save : string -> t -> unit
(** Writes the baseline as versioned JSON (one indent level, so diffs of
    the committed file stay reviewable). *)

val load : string -> (t, string) result

(** {2 Tolerance bands and verdicts} *)

type direction = Higher_better | Lower_better

type band = { direction : direction; rel : float; abs : float }

val band : string -> band
(** The tolerance band for a metric key, by family: committed count and
    throughput want to stay high (tight bands); abort/crash counts, wait
    totals and latency quantiles want to stay low (looser bands sized to
    scheduler noise); raw lock-manager counters, being deterministic under
    the seeded simulator, get a tight band of their own; anything else
    gets the loosest band. *)

val family : string -> string
(** The human name of the metric family {!band} sorted [key] into:
    ["committed"], ["throughput"], ["abort counts"], ["response times"],
    ["latency quantiles"], ["lock counters"], or ["other"]. [--explain]
    and [--json] output group findings by these names. *)

type verdict =
  | Within of { delta : float }
  | Improved of { delta : float }
  | Regressed of { delta : float; slack : float }

type finding = {
  f_scenario : string;
  f_technique : string;
  f_metric : string;
  f_base : float;
  f_fresh : float;
  f_verdict : verdict;
}

type diff = {
  findings : finding list;
  missing : (string * string) list;
      (** (scenario, technique) in baseline but not fresh *)
  added : (string * string) list;
      (** (scenario, technique) in fresh but not baseline *)
}

val diff : baseline:t -> fresh:t -> diff
(** Pairs runs by (scenario, technique) and metrics by key. A metric
    present on one side only is a {!Regressed} finding with the missing
    side read as [nan] — baselines must be regenerated deliberately via
    [--update-baseline], never drift silently. *)

val regressions : diff -> finding list
val improvements : diff -> finding list

val clean : diff -> bool
(** No regressions, nothing missing, nothing added. *)

val finding_to_json : finding -> Obs.Json.t
(** One finding as a self-describing object: the pair, the metric and its
    family, the band's direction and slack, base/fresh/delta, and the
    verdict tag. *)

val diff_to_json : ?all:bool -> diff -> Obs.Json.t
(** Machine-readable gate output for [colock bench diff --json]: counts,
    the regression and improvement findings (every finding when [all]),
    and the missing/added drift lists. *)

val perturb : (string * float) list -> t -> (t, string) result
(** Scales matching metrics by a factor — [perturb [("total_wait", 2.0)]]
    doubles every run's [total_wait]. The bench-diff cram test uses this to
    prove the gate actually fires on a synthetic slowdown. A factor naming
    a metric no run measured is an error (it would silently perturb
    nothing). *)
