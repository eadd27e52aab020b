(** The transaction engine: strict 2PL over the lock table, and the one
    place that decides what happens when a request waits and when a
    transaction dies.

    It owns {b admission} (gate, entry queue, shedding, draining), {b the
    wait} (one {!Transaction.wait} record per wait; the contention restart
    policy; deadlock resolution and its candidate facts; timeouts) and
    {b abort and commit} (withdraw waits, release, count [victim_aborts]
    and [timeout_aborts], emit [Victim_aborted], [Timeout_abort] and
    [Contention_abort], leave admission).

    Its clients are the front door built by {!create} ([Session],
    [Checkout], {!Blocking}) and the simulator ([Sim.Runner]). A client
    keeps what is its own — the simulator its clock, events, faults and
    restart verdict (restart budget, backoff, breaker); a session its undo
    log — and the engine calls it back at fixed points ({!client}). *)

type t

type config = {
  resolution : Lockmgr.Policy.resolution;
      (** detection on every wait; a timeout aborts any wait older than its
          delta ({!expire_timeouts}, or the client's timer) *)
  victim : Lockmgr.Policy.victim;  (** who dies when detection finds a cycle *)
  restart : Lockmgr.Policy.restart;
      (** contention restarts (WDL / running priority), applied the moment a
          request starts waiting, before deadlock resolution *)
}

val default_config : config
(** Detection, youngest victim, no contention restarts. Victim selection
    reads a transaction's birth and work ({!Transaction.t}); work is what
    its client counts — simulator steps, front-door acquisitions, session
    statements. *)

(** {2 Clients} *)

type client = {
  arm : t -> Transaction.t -> epoch:int -> deadline:int -> unit;
      (** a wait with a timeout began: {!expire} it at [deadline] *)
  undo : t -> Transaction.t -> unit;
      (** a victim is about to lose its locks: undo its writes now *)
  victim :
    t -> Transaction.t -> Transaction.abort_reason -> waited:int option -> unit;
      (** the victim's locks are gone and the abort is counted; [waited] is
          how long its interrupted wait lasted, [None] when it was not
          waiting (a grant had already ended its wait). Restart it under
          its id, or finish it. *)
  woken : t -> Transaction.t -> waited:int -> unit;
      (** a grant ended the transaction's wait *)
  admitted : t -> Transaction.t -> unit;
      (** a queued entry got a slot; {!enter} it again to begin it *)
  shed : t -> Transaction.t -> unit;
      (** an entry was refused at the gate or evicted from the queue *)
}

val front_door : client
(** No timers, no undo; a victim finishes [Aborted] with a [Txn_abort]
    event; a queued entry begins as soon as it gets a slot. *)

val make :
  client -> ?clock:(unit -> int) -> ?obs:Obs.Sink.t ->
  ?admission:Robust.Admission.config -> ?config:config ->
  [ `Protocol of Colock.Protocol.t | `Table of Lockmgr.Lock_table.t ] -> t
(** [`Protocol] releases through {!Colock.Protocol.end_of_transaction},
    forgetting authorization entries; [`Table] releases the bare table, so
    a restarted job keeps its rights. [clock] gives births of {!begin_txn},
    wait starts and timeouts (default: a counter). [?obs] defaults to the
    table's sink; [?admission] installs the overload gate. *)

val create :
  ?clock:(unit -> int) -> ?obs:Obs.Sink.t ->
  ?admission:Robust.Admission.config -> ?config:config ->
  Colock.Protocol.t -> t
(** [make front_door ... (`Protocol protocol)]. *)

val protocol : t -> Colock.Protocol.t
(** [Invalid_argument] for an engine over a bare table. *)

val admission : t -> Robust.Admission.t option
(** The live gate — the handle a {!Robust.Controller} resizes. *)

(** {2 Admission and begin} *)

type begin_outcome =
  | Started of Transaction.t  (** admitted (or no gate configured) *)
  | Queued of Lockmgr.Lock_table.txn_id
      (** no free slot; it keeps this id and begins when a slot frees (the
          front door then {!find}s it live) *)
  | Shed  (** refused: queue full of equal-or-higher-priority work *)

val enter :
  ?priority:Robust.Admission.priority -> t -> Transaction.t -> begin_outcome
(** The entry gate for a transaction the client numbered and dated itself;
    one already holding a slot passes. Queueing and shedding emit
    [Admission] events, passing emits [Txn_begin]. *)

val begin_txn : ?kind:Transaction.kind -> t -> Transaction.t
(** Begins the next id, born at [clock ()], bypassing any gate. *)

val try_begin :
  ?kind:Transaction.kind -> ?priority:Robust.Admission.priority ->
  t -> begin_outcome
(** {!begin_txn} through the gate. *)

val admit_queued : t -> unit
(** Hands every queued entry a free slot admits (highest priority first,
    FIFO within a class) to the client's [admitted]. Leaving admission
    does this already; call it after raising the limit. *)

val find : t -> Lockmgr.Lock_table.txn_id -> Transaction.t option
(** Live transactions only: the engine retains nothing per finished one. *)

val active_txns : t -> Transaction.t list
(** The live transactions, by id. *)

val active_count : t -> int
(** [List.length (active_txns m)] in O(1). *)

(** {2 Waits} *)

val wait :
  t -> Transaction.t -> resource:string ->
  blockers:Lockmgr.Lock_table.txn_id list -> bool
(** The transaction's request on [resource] was just queued behind
    [blockers]: record the wait, apply the contention restart policy, then
    break every waits-for cycle when the resolution detects. [true] when
    the transaction itself was sacrificed; otherwise it is still waiting,
    or [Active] again because a victim's release granted its request.
    A request re-issued while still queued on [resource] continues its
    wait as it began ([false]). *)

val wake : t -> Lockmgr.Lock_table.grant list -> unit
(** Ends the waits the grants satisfied. *)

val expire : t -> Transaction.t -> epoch:int -> unit
(** A client's timer: a [Timeout_victim] if still in wait [epoch]. *)

val expire_timeouts : ?now:int -> t -> Transaction.t list
(** Aborts as [Timeout_victim] every live transaction whose wait has lasted
    the timeout at [now] (default [clock ()]) and returns them. The front
    door has no scheduler: call it periodically. *)

(** {2 Front-door locking} *)

type acquire_outcome =
  | Granted
  | Waiting of {
      node : Colock.Node_id.t;
      blockers : Lockmgr.Lock_table.txn_id list;
    }
      (** enqueued; re-call {!acquire} after a blocker finishes *)
  | Deadlock_victim  (** sacrificed by the engine, and aborted *)

val acquire :
  t -> Transaction.t -> ?duration:Lockmgr.Lock_table.duration ->
  Colock.Instance_graph.node -> Lockmgr.Lock_mode.t -> acquire_outcome
(** Runs the protocol plan; a blocked step goes to {!wait}, and a step a
    victim's release granted resumes at once. Each [Granted] is one unit
    of the transaction's work. A transaction the engine sacrificed while it
    waited gets [Deadlock_victim]; a committed or user-aborted one may not
    acquire ([Invalid_argument]). *)

(** {2 Ending} *)

val release : t -> Transaction.t -> Lockmgr.Lock_table.grant list
(** Withdraws the queued request of a waiting transaction and releases
    every lock; pass the grants to {!wake}. *)

val leave : t -> Transaction.t -> unit
(** Forgets the transaction and gives its slot to queued work. *)

val commit :
  ?release_long:bool -> t -> Transaction.t -> Lockmgr.Lock_table.grant list
(** Emits [Txn_commit], releases — all locks of a short transaction; only
    the short ones of a long transaction (check-out locks persist, §3.1)
    unless [release_long] — {!wake}s whom the release granted and
    {!leave}s. Returns the new grants. *)

val abort : t -> Transaction.t -> Lockmgr.Lock_table.grant list
(** User abort: {!release}, {!wake}, [Aborted User_abort], [Txn_abort],
    {!leave}. A transaction the engine already finished is left alone
    ([[]]). *)
