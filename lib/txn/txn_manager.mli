(** The transaction manager: strict 2PL over the paper's protocol, with
    configurable collision resolution (deadlock detection, lock-wait
    timeouts, or both) and pluggable victim selection. *)

type t

type config = {
  resolution : Lockmgr.Policy.resolution;
      (** detection runs inline on every wait; a timeout stamps each wait
          with a deadline that {!expire_timeouts} enforces *)
  victim : Lockmgr.Policy.victim;
      (** who dies when detection finds a cycle. [Least_work] uses the lock
          footprint as its work proxy here — the manager does not see its
          clients' application steps *)
}

val default_config : config
(** Detection with youngest-victim selection (the seed behaviour). *)

val create :
  ?clock:(unit -> int) -> ?obs:Obs.Sink.t ->
  ?admission:Robust.Admission.config -> ?config:config ->
  Colock.Protocol.t -> t
(** [clock] supplies logical begin timestamps and the "now" of timeout
    deadlines (default: a counter). [?obs] defaults to the protocol's sink,
    so transaction lifecycle events (begin/commit/abort, deadlocks, victim
    and timeout aborts) land in the same stream as the lock events.
    [?admission] installs an overload-control gate: {!try_begin} then
    enforces the configured concurrency limit, and commits/aborts free
    slots for queued work (collect it with {!drain_admitted}). *)

val protocol : t -> Colock.Protocol.t
val config : t -> config

val admission : t -> Robust.Admission.t option
(** The live admission gate, when one was configured — the handle a
    {!Robust.Controller} resizes from monitor windows. *)

val begin_txn : ?kind:Transaction.kind -> t -> Transaction.t
(** Unconditional begin — bypasses any admission gate (the transaction
    holds no slot). Prefer {!try_begin} when admission is configured. *)

type begin_outcome =
  | Started of Transaction.t  (** admitted (or no gate configured) *)
  | Queued of int
      (** no free slot; the ticket identifies this request in later
          [Admission] events. The transaction starts when a slot frees —
          collect it from {!drain_admitted}. *)
  | Shed  (** refused: queue full of equal-or-higher-priority work *)

val try_begin :
  ?kind:Transaction.kind -> ?priority:Robust.Admission.priority ->
  t -> begin_outcome
(** Admission-gated begin. Queueing, eviction and shedding emit
    {!Obs.Event.Admission} events; admitted transactions start silently
    (their [Txn_begin] already marks them). *)

val drain_admitted : t -> Transaction.t list
(** Starts every queued request a freed slot can now admit (highest
    priority first, FIFO within a class) and returns the new transactions,
    oldest first. Call after {!commit} or {!abort}. *)

val find : t -> Lockmgr.Lock_table.txn_id -> Transaction.t option
(** Live transactions only: {!commit} and {!abort} forget the transaction
    they finish, so the manager retains nothing per finished transaction. *)

val active_txns : t -> Transaction.t list
(** The live transactions, by id; O(live transactions). *)

val active_count : t -> int
(** [List.length (active_txns m)] in O(1) — the live active-transaction
    level a monitor gauge should agree with. *)

type acquire_outcome =
  | Granted
  | Waiting of {
      node : Colock.Node_id.t;
      blockers : Lockmgr.Lock_table.txn_id list;
    }
      (** enqueued; re-call {!acquire} after a blocker finishes *)
  | Deadlock_victim
      (** this transaction was chosen as the victim and has been aborted *)

val acquire :
  t -> Transaction.t -> ?duration:Lockmgr.Lock_table.duration ->
  Colock.Node_id.t -> Lockmgr.Lock_mode.t -> acquire_outcome
(** Runs the protocol plan. On a wait (when the resolution detects),
    deadlock detection runs on the waits-for graph; if a cycle exists its
    victim is aborted — either this transaction ({!Deadlock_victim}) or
    another. When another victim's released locks have already granted this
    transaction's queued request, the plan resumes immediately and the call
    reports the true outcome (e.g. [Granted]) instead of a stale wait.
    Under a timeout resolution each wait carries a deadline of
    [clock () + timeout]. Aborted or committed transactions may not acquire
    ([Invalid_argument]). *)

val expire_timeouts : ?now:int -> t -> Transaction.t list
(** Aborts (reason [Timeout_victim]) every transaction whose lock wait has
    outlived its deadline at [now] (default [clock ()]), releasing its locks
    and waking the freed waiters. Returns the victims; empty under pure
    [Detection]. Call periodically — the manager has no scheduler of its
    own. *)

val commit :
  ?release_long:bool -> t -> Transaction.t -> Lockmgr.Lock_table.grant list
(** Releases the transaction's locks — all of them for short transactions;
    for long transactions only the short-duration ones (check-out locks
    persist across commits, §3.1) unless [release_long] is set (end of the
    whole conversational session). Returns the queued requests that became
    granted. *)

val abort :
  t -> ?reason:Transaction.abort_reason -> Transaction.t ->
  Lockmgr.Lock_table.grant list
(** Cancels waits and releases every lock (long ones included). *)

val unblocked : t -> Lockmgr.Lock_table.grant list -> Transaction.t list
(** Maps grant notifications to the transactions that stopped waiting,
    updating their status back to [Active]. *)
