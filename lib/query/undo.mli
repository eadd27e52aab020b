(** Per-transaction undo logs: before-images for the executor's write
    operations, so an abort really rolls the database (and the instance
    graph) back.

    Strict 2PL makes this sound: until commit, the transaction holds X locks
    on everything it changed, so the before-images cannot have been
    overwritten by others. Records are applied last-in-first-out. *)

type t

val create : unit -> t

val attach : t -> Executor.t -> unit
(** Installs the executor's write hook so every successful write operation
    is recorded here automatically. *)

type record =
  | Replaced of { oid : Nf2.Oid.t; before : Nf2.Value.t }
      (** an in-place object update; [before] is the prior version *)
  | Inserted of { oid : Nf2.Oid.t }  (** a fresh object: undo deletes it *)
  | Deleted of { relation : string; before : Nf2.Value.t }
      (** a removed object: undo re-inserts it *)

val note : t -> txn:Lockmgr.Lock_table.txn_id -> record -> unit

val pending : t -> txn:Lockmgr.Lock_table.txn_id -> int
(** Number of records that a rollback would apply. *)

val rollback :
  t -> txn:Lockmgr.Lock_table.txn_id -> Executor.t ->
  (int, Executor.error) result
(** Applies the transaction's records in reverse order against the executor's
    database and instance graph, then forgets them. Returns the number of
    records undone. On error the remaining records are kept (the database
    may be partially rolled back — a real system would escalate; here the
    error is surfaced for the caller). *)

val forget : t -> txn:Lockmgr.Lock_table.txn_id -> unit
(** Commit: drop the transaction's records. *)
