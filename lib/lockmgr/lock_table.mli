(** A transaction-oriented lock table with wait queues and conversions.

    The table is protocol-agnostic: resources are opaque strings (the lock
    technique of the paper maps its lockable units to hierarchical path
    strings). It is a purely synchronous data structure — a request either is
    granted or blocks (and queues, unless made without waiting), and
    releases report which queued requests became granted — so callers
    (tests, the discrete-event simulator, the transaction manager) own time
    and scheduling, and runs stay deterministic.

    Cost: a request hashes its resource string once to find the entry, and
    scans the entry's granted group and queue; a transaction's index is the
    list of its entries, so joining one is a cons and {!release_all} visits
    only its own. *)

type txn_id = int

type duration =
  | Short  (** released at end of (conventional) transaction *)
  | Long  (** check-out lock that must survive shutdowns (§3.1) *)

type t

type outcome =
  | Granted
  | Waiting of txn_id list
      (** the listed transactions block this request; it is enqueued unless
          it was made with [~wait:false] *)

type grant = { g_txn : txn_id; g_resource : string; g_mode : Lock_mode.t }
(** A queued request that became granted after a release. *)

val create :
  ?obs:Obs.Sink.t -> ?meta:(string -> Obs.Event.lu option) -> unit -> t
(** [?obs] attaches an observability sink: the table emits
    {!Obs.Event.kind} lock-lifecycle events (requested / granted / waited /
    released / conversion) through it. Omitted means zero overhead.

    [?meta] resolves a resource string to its lockable-unit annotation
    (granule kind and depth); every lock event the table emits for that
    resource carries the result. It is consulted only to build an event, so
    a table without a sink never calls it, and at most once per entry
    while it resolves: the tag found at an entry's first event is kept for
    its later ones, and [None] is asked again at the next event (a node
    locked by name before it exists gets its tag once inserted). The table itself knows nothing
    about lock graphs, so the default resolves everything to [None] — the
    colock protocol installs the real resolver via {!set_meta}. *)

val stats : t -> Lock_stats.t

val obs : t -> Obs.Sink.t option
(** The sink passed to {!create}, so higher layers (protocol, transaction
    manager) can inherit it. *)

val set_meta : t -> (string -> Obs.Event.lu option) -> unit
(** Replaces the lockable-unit resolver (see {!create}) and drops every
    kept tag, in one pass over the entries, so the next event on a held
    lock carries the new one. *)

val resource_lu : t -> string -> Obs.Event.lu option
(** Resolves a resource through the installed [meta] — for emitters above
    the table (timeout aborts, snapshots) that tag their own events. *)

val request :
  t -> txn:txn_id -> ?wait:bool -> ?duration:duration -> resource:string ->
  Lock_mode.t -> outcome
(** Requests (or converts to) the supremum of the given mode and the mode
    already held. FIFO fairness: a fresh request waits while the queue is
    non-empty; conversions jump the queue (standard upgrade handling). A
    request for a mode already covered is a no-op grant; a [Long] one marks
    the held lock [Long].

    [?wait] (default [true]) decides what a blocked request does. Waiting,
    it is enqueued and counted as a wait. Not waiting, it is neither queued
    nor counted as a wait and leaves the table as it found it, apart from
    the [requests] and [conflict_tests] counters; [Waiting] then only names
    the blockers. How long a request may wait is not the table's business:
    the transaction engine keeps the wait record and its timeout. *)

val release : t -> txn:txn_id -> resource:string -> grant list
(** Releases one lock (leaf-to-root release, de-escalation); returns the
    requests newly granted from the queue. Releasing a lock that is not held
    is a no-op. *)

val downgrade : t -> txn:txn_id -> resource:string -> Lock_mode.t -> grant list
(** Replaces the held mode by a weaker one (de-escalation support); no-op when
    nothing stronger is held. Returns newly granted queued requests. *)

val cancel_wait : t -> txn:txn_id -> grant list
(** Withdraws every queued (not yet granted) request of the transaction, e.g.
    on deadlock abort; returns requests that became grantable.

    Like {!release_all} and {!release_short}, it visits the transaction's
    resources in [String.compare] order, serving each queue as it goes:
    the returned grants and the emitted events come in that order, and so
    does every intermediate {!entry_count} that {!peak_entry_count} sees. *)

val release_all : t -> txn:txn_id -> grant list
(** End of transaction: drops every lock and queued request of [txn]. Long
    locks are dropped too — keeping them across commits is the transaction
    manager's job ({!val:release_short} below). *)

val release_short : t -> txn:txn_id -> grant list
(** Drops the [Short]-duration locks and the queued requests of [txn]
    (commit of a check-out transaction that keeps its long locks). *)

val held : t -> txn:txn_id -> resource:string -> Lock_mode.t
(** Mode held (NL when none). *)

val holders : t -> resource:string -> (txn_id * Lock_mode.t) list
val locks_of : t -> txn:txn_id -> (string * Lock_mode.t * duration) list
(** Sorted by resource. *)

val waiting_of : t -> txn:txn_id -> (string * Lock_mode.t) list
val resources : t -> string list
(** Resources with at least one granted or waiting entry, sorted. *)

val entry_count : t -> int
(** Currently granted lock entries. *)

val peak_entry_count : t -> int
(** High-water mark of {!entry_count} — "the number of the lock table
    entries" of §4.4.2.1. *)

val waiter_count : t -> int
(** Queued (not yet granted) requests across all resources — the live
    wait-queue depth a monitor gauge should agree with. *)

val waits_for_edges : t -> (txn_id * txn_id) list
(** Edges [waiter -> blocker] for deadlock detection: each queued request
    waits for the incompatible holders and for incompatible earlier
    waiters. *)

val wait_depth : t -> txn:txn_id -> int
(** Length of the longest blocker chain hanging off [txn] in the waits-for
    graph (0 when [txn] waits for nobody). This is the quantity Thomasian's
    wait-depth-limited restart policy bounds; cycles count once, so the
    result is finite even mid-deadlock. Transactions on no cycle are
    searched once each, so a DAG-shaped graph costs polynomial time. *)

val check_invariants : t -> string list
(** Structural soundness audit, for chaos tests and debugging: no two
    conflicting granted modes on one resource, no duplicate grants or queue
    entries, every queue head has a live blocker (no lost wakeups), the
    entry count matches the granted entries, and the per-transaction index
    agrees with the entries in both directions. Returns human-readable
    violations (empty means sound). Does not touch {!stats}. *)

val pp : Format.formatter -> t -> unit
