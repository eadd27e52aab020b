(** A thread-blocking front-end for real concurrent clients (OCaml 5
    domains or system threads).

    The core {!Colock.Protocol} is a synchronous, deterministic data
    structure — the discrete-event simulator owns time there. This wrapper
    adds the classic blocking behaviour instead: {!acquire} parks the
    calling thread until the whole lock plan is granted, and releases wake
    waiters. What a wait means is the engine's decision ({!Txn_manager}'s
    front door, detection with the [Youngest] policy): a transaction is
    born with its id as birth, so the largest id in a cycle dies, and a
    victim's locks are released at once; its {!acquire} returns
    [`Deadlock_victim].

    Everything runs under one mutex, so neither the protocol nor the engine
    needs internal synchronization; threads block on a condition variable,
    not on the lock manager. *)

type t

val create : Colock.Protocol.t -> t

val acquire :
  t -> txn:Lockmgr.Lock_table.txn_id -> ?duration:Lockmgr.Lock_table.duration ->
  Colock.Instance_graph.node -> Lockmgr.Lock_mode.t ->
  [ `Granted | `Deadlock_victim ]
(** Blocks until granted. On [`Deadlock_victim] every lock of the
    transaction has already been released; the caller should back off and
    restart its work under the same (or a fresh) transaction id. *)

val end_of_transaction : t -> txn:Lockmgr.Lock_table.txn_id -> unit
(** Commit: releases everything and wakes waiters. A victim's call is a
    no-op — the engine already released its locks. *)

val run_txn :
  t -> txn:Lockmgr.Lock_table.txn_id ->
  locks:(Colock.Instance_graph.node * Lockmgr.Lock_mode.t) list ->
  (unit -> 'result) ->
  'result
(** Strict-2PL convenience: acquires all [locks] (restarting transparently
    after deadlock victimhood with exponential-free constant backoff), runs
    the action, then releases. *)
