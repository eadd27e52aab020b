(** A thread-blocking front-end to the protocol for real concurrent clients
    (OCaml 5 domains or system threads).

    The core {!Protocol} is a synchronous, deterministic data structure — the
    discrete-event simulator owns time there. This wrapper adds the classic
    blocking behaviour instead: {!acquire} parks the calling thread until the
    whole lock plan is granted, and releases wake waiters. A blocked
    {!acquire} runs {!Lockmgr.Deadlock.resolve}, the resolver the
    transaction manager and the simulator use, with the [Youngest] policy
    and the transaction id as birth, so the largest id in a cycle dies. Each
    victim is counted and its locks are released at once; its {!acquire}
    returns [`Deadlock_victim].

    All lock-table access is serialized by one mutex, so the underlying
    protocol needs no internal synchronization; threads block on a condition
    variable, not on the lock manager. *)

type t

val create : Protocol.t -> t
val protocol : t -> Protocol.t

val acquire :
  t -> txn:Lockmgr.Lock_table.txn_id -> ?duration:Lockmgr.Lock_table.duration ->
  ?follow_references:bool -> Node_id.t -> Lockmgr.Lock_mode.t ->
  [ `Granted | `Deadlock_victim ]
(** Blocks until granted. On [`Deadlock_victim] every lock of the
    transaction has already been released; the caller should back off and
    restart its work under the same (or a fresh) transaction id. *)

val end_of_transaction : t -> txn:Lockmgr.Lock_table.txn_id -> unit
(** Commit/abort: releases everything and wakes waiters. *)

val run_txn :
  t -> txn:Lockmgr.Lock_table.txn_id ->
  locks:(Node_id.t * Lockmgr.Lock_mode.t) list -> (unit -> 'result) ->
  'result
(** Strict-2PL convenience: acquires all [locks] (restarting transparently
    after deadlock victimhood with exponential-free constant backoff), runs
    the action, then releases. *)
