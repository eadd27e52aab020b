(** Per-transaction undo logs: the {!Colock.Store.change} of each of the
    executor's writes, so an abort really rolls the database, its indexes
    and the instance graph back.

    Strict 2PL makes this sound: until commit, the transaction holds X locks
    on everything it changed, so the before-images cannot have been
    overwritten by others. Changes are reverted last-in-first-out. *)

type t

val create : unit -> t

val attach : t -> Executor.t -> unit
(** Installs the executor's write hook so the change of every successful
    write is logged here automatically. *)

val pending : t -> txn:Lockmgr.Lock_table.txn_id -> int
(** Number of changes that a rollback would revert. *)

val rollback :
  t -> txn:Lockmgr.Lock_table.txn_id -> Executor.t ->
  (int, Executor.error) result
(** Reverts the transaction's changes in reverse order through
    {!Executor.revert}, then forgets them. Returns the number of changes
    undone. On error the remaining changes are kept (the database may be
    partially rolled back — a real system would escalate; here the error is
    surfaced for the caller). *)

val forget : t -> txn:Lockmgr.Lock_table.txn_id -> unit
(** Commit: drop the transaction's changes. *)
