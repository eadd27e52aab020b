(** The discrete-event concurrency simulator.

    Jobs are transactions described as sequences of steps; a step acquires a
    lock plan and then holds the locks while "accessing data" for a fixed
    simulated duration. Strict 2PL: everything is released at commit.
    Blocked jobs sit in the lock table's queues; releases wake them.
    Admission, waits, deadlock resolution, timeouts, contention restarts
    and aborts are decided by the front door's engine ({!Txn.Txn_manager});
    the simulator keeps virtual time, events, faults, metrics and the
    restart verdict (restart budget, backoff, breaker). Victims restart
    with the same transaction id (so authorization assignments are
    stable). The run is fully deterministic, including jittered backoff
    and injected faults ({!Fault}).

    Plans are transaction-id-indexed functions, so the same scenario runs
    unchanged under the proposed protocol (whose plans depend on the
    transaction's rights) and under the baselines. *)

type step = {
  plan : Lockmgr.Lock_table.txn_id -> Baselines.Technique.request list;
  access_cost : int;
}

type job = {
  arrival : int;
  priority : Robust.Admission.priority;
      (** admission class under overload control: checkout sessions run
          [High], updates [Normal], read-only work [Low]. Ignored (but
          carried) when no [overload] config is set. *)
  steps : step list;
}

type overload = {
  admission : Robust.Admission.config option;
      (** AIMD concurrency limit + bounded priority entry queue; [None]
          disables the gate (restart policies et al. still apply) *)
  controller : Robust.Controller.config;
      (** closed-loop sensing: how often to read the run's senses and what
          signal levels count as overload *)
  budget : Robust.Budget.config option;  (** retry token bucket *)
  breaker : Robust.Breaker.config option;  (** abort-storm circuit breaker *)
}

val default_overload : overload
(** Default admission gate and controller; no retry budget, no breaker. *)

type config = {
  max_restarts : int;  (** per job; exhausted jobs count as [gave_up] *)
  engine : Txn.Txn_manager.config;
      (** what the transaction engine decides: deadlock [resolution], the
          [victim] policy and the contention [restart] policy *)
  backoff : Lockmgr.Policy.backoff;  (** restart delay for victims *)
  hog_hold : int;
      (** ticks a {!Fault.Hog} job sits on its locks before it is forced to
          crash-release them (bounds chaos runs even without detection) *)
  check_invariants : bool;
      (** audit the lock table and job states after {e every} event; any
          violation raises [Failure] (chaos-test oracle — expensive) *)
  snapshot_every : int option;
      (** emit an {!Obs.Event.Waits_for} wait-for-graph snapshot every this
          many virtual ticks (deadlock structure over time, not just at
          detection); [None] disables. Snapshots stop once the event queue
          drains, so runs still terminate. *)
  overload : overload option;
      (** closed-loop overload control. When set, job begins pass an
          admission gate (shed work shows up as [Metrics.shed] and
          [Admission] events), an AIMD controller re-sizes the concurrency
          limit from what the run senses itself (the p95 of the lock
          waits and the abort rate of the outcomes that ended in the last
          200 ticks), and restarts are subject to the retry budget and
          circuit breaker. [None]: the engine behaves exactly as before. *)
}

val default_config : config
(** The engine's defaults (detection, youngest victim, no contention
    restarts), fixed backoff 50, max 20 restarts, hog hold 4000, no invariant checking, no snapshots, no pacing
    hook, no overload control. *)

val run :
  ?config:config -> ?faults:Fault.spec ->
  ?on_begin:(Lockmgr.Lock_table.txn_id -> unit) ->
  ?obs:Obs.Sink.t -> table:Lockmgr.Lock_table.t -> job list -> Metrics.t
(** [on_begin] fires once per job with its transaction id before its first
    step (e.g. to install authorization rights). Job [i] (0-based) gets
    transaction id [i + 1].

    [?faults] (default {!Fault.none}) assigns each job a seeded fate:
    crashed jobs die holding their locks, stalled jobs access slowly, hog
    jobs camp on their first step's locks until [hog_hold] expires.

    [?obs] (default: the table's own sink) receives simulation lifecycle
    events (txn begin/commit, steps, deadlocks, victim and timeout aborts,
    give-ups). The sink's clock is re-pointed at virtual simulation time
    for the duration of the run, so lock events emitted by the table line
    up with the simulator's integer ticks. Nothing the sink's handlers
    do steers the run: overload control senses the simulator itself, so
    an observed and an unobserved run decide alike. *)
