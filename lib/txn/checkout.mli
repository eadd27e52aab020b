(** The workstation–server environment (§1, §3.1): check-out of complex
    objects from the central database into private workstation databases,
    check-in of changed data, long locks that survive system shutdowns.

    A check-out acquires a *long* lock on the complex object through the
    paper's protocol (whole-object granule — the [HaLo82] usage pattern) and
    copies the value into the transaction's private store. Locks are held
    until the conversational session ends ({!finish_session}); check-in
    writes the changed object back under the X lock already held. Long
    locks persist to a lock file: after a simulated shutdown,
    {!restore_locks} replays them into a fresh lock table. *)

type t

type error =
  | Unknown_object of Nf2.Oid.t
  | Not_checked_out of Nf2.Oid.t
  | Not_exclusive of Nf2.Oid.t  (** check-in of a read-only check-out *)
  | Blocked of {
      node : Colock.Node_id.t;
      blockers : Lockmgr.Lock_table.txn_id list;
    }
  | Deadlock
  | Write_back of Nf2.Database.error

val pp_error : Format.formatter -> error -> unit

val create : ?lock_file:string -> Txn_manager.t -> Nf2.Database.t -> t
(** [lock_file] defaults to ["colock_long_locks.txt"] (relative to cwd). *)

val check_out :
  t -> Transaction.t -> Nf2.Oid.t -> mode:[ `Read | `Update ] ->
  (Nf2.Value.t, error) result
(** On success the private copy is returned (and kept in the workstation
    store). Under rule 4′ a check-out for update of an object referencing a
    library the transaction may not modify takes only S locks on the library
    entries. *)

val local_copy : t -> Transaction.t -> Nf2.Oid.t -> Nf2.Value.t option
val update_local : t -> Transaction.t -> Nf2.Oid.t -> Nf2.Value.t -> (unit, error) result
(** Mutates the private copy only (work happening on the workstation). *)

val check_in : t -> Transaction.t -> Nf2.Oid.t -> (unit, error) result
(** Writes the private copy back to the central database and the
    manager's graph through {!Colock.Store.replace} (requires an exclusive
    check-out), which refuses a copy whose object is gone or whose key was
    edited. Locks stay until {!finish_session} — strict 2PL. *)

val checked_out : t -> Transaction.t -> Nf2.Oid.t list
(** Sorted. *)

val finish_session :
  t -> Transaction.t -> Lockmgr.Lock_table.grant list
(** Commits the conversational transaction, releasing all its locks (long
    ones included) and dropping its private copies. *)

val save_locks : t -> unit
(** Persists every long lock in the table to the lock file (overwrites). *)

val restore_locks : t -> int
(** Replays the lock file into the (presumably fresh) lock table as long
    locks, parents before children; returns the number of locks restored.
    Missing file restores nothing. *)
