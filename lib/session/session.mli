(** The front door: one object tying together the database, the instance
    lock graph, the protocol (rule 4′ + authorization), the query executor,
    the transaction manager and the undo log.

    {[
      let session = Session.create db in
      let txn = Session.begin_txn session in
      match Session.query session txn "SELECT ... FOR UPDATE" with
      | Ok rows -> ...; Session.commit session txn
      | Error _ -> Session.abort session txn   (* rolls data back too *)
    ]}

    For scripted demos and tests; components remain individually accessible
    for anything the façade does not cover. *)

type t

val create :
  ?rule:Colock.Protocol.rule -> ?threshold:int -> ?obs:Obs.Sink.t ->
  ?txn_config:Txn.Txn_manager.config -> Nf2.Database.t -> t
(** Builds the instance graph eagerly. Default rule 4′, threshold 16.
    [?obs] attaches an observability sink to the internally-created lock
    table; the protocol, executor and transaction manager inherit it.
    [?txn_config] selects the transaction engine's collision resolution
    (detection / timeout / hybrid), victim policy and contention restart
    policy. The engine's clock is session time: one tick per {!begin_txn}
    and per statement issued, so [Timeout n] expires a wait once [n] more
    of them were issued. *)

val database : t -> Nf2.Database.t
val manager : t -> Txn.Txn_manager.t
val graph : t -> Colock.Instance_graph.t
val lock_table : t -> Lockmgr.Lock_table.t

val begin_txn : ?kind:Txn.Transaction.kind -> t -> Txn.Transaction.t

val set_library_read_only : t -> relation:string -> unit
(** Marks a relation non-modifiable by default (rule 4′ weakening). *)

type 'result outcome = ('result, Query.Executor.error) result

val query :
  t -> Txn.Transaction.t -> string -> Query.Executor.row list outcome
(** Parses and executes. A conflicting statement queues and its wait goes
    to the transaction engine ({!Txn.Txn_manager.wait}), which resolves
    deadlocks and contention restarts at once; timeouts fire from
    [expire_timeouts] on {!manager}. [Blocked] means still queued: re-issue
    it later, and the wait goes on. [Victim] means this transaction was
    sacrificed (writes undone, locks released), now or while it waited; a
    request a victim's release granted is re-run. Each completed statement
    is one unit of the transaction's work. *)

val update :
  t -> Txn.Transaction.t -> string ->
  (Nf2.Value.t -> Nf2.Value.t) -> int outcome
(** Runs the (FOR UPDATE) query and maps every returned row's sub-value
    through the function, writing objects back under the X locks already
    held; returns the number of rows updated. Undo-logged. *)

val insert :
  t -> Txn.Transaction.t -> string -> Nf2.Value.t -> Nf2.Oid.t outcome

val delete : t -> Txn.Transaction.t -> Nf2.Oid.t -> unit outcome

val commit : t -> Txn.Transaction.t -> unit
(** Releases locks (keeping long ones for long transactions), wakes the
    waiters they granted and forgets the undo log. A victim cannot commit
    ([Invalid_argument]). *)

val abort : t -> Txn.Transaction.t -> (int, Query.Executor.error) result
(** Rolls back every write of the transaction (LIFO), then releases its
    locks; returns the number of records undone. A transaction the engine
    already aborted (a victim) is left alone: [Ok 0], no event, nothing
    counted. *)
