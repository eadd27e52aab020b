(** Query execution over an [Nf2] database, locking through the paper's
    protocol (§4.1): analyze, build the query-specific lock graph, request
    the planned locks during evaluation, then hand rows back.

    Lock placement follows the paper's examples: a condition that pins
    members of the selected collection (Q2's [r.robot_id = 'r1']) locks the
    matching member nodes individually (Fig. 7 locks "robot r1", not the
    whole list); otherwise the granule chosen by escalation anticipation is
    used. Locks stay held until the caller ends the transaction (strict
    two-phase locking).

    A conflicting statement only queues ([Blocked]); what the wait means is
    the transaction engine's decision, to which [Session] hands it. *)

type t

val create : ?threshold:int -> Nf2.Database.t -> Colock.Protocol.t -> t
(** [threshold] is the escalation threshold for lock planning (default 16).
    Statistics are computed once, here. Writes go through a
    {!Colock.Store} over the database and the protocol's instance graph. *)

val database : t -> Nf2.Database.t
val protocol : t -> Colock.Protocol.t

val set_write_hook :
  t -> (Lockmgr.Lock_table.txn_id -> Colock.Store.change -> unit) -> unit
(** Installs the (single) observer of the store's changes —
    {!Undo.attach} logs them for rollback. *)

type row = {
  oid : Nf2.Oid.t;  (** the complex object the row belongs to *)
  node : Colock.Instance_graph.node;
      (** instance node of the selected (sub-)value *)
  value : Nf2.Value.t;
}

type result_set = {
  rows : row list;
  plan : Colock.Query_graph.t;
  locks_requested : int;  (** explicit lock requests issued for this query *)
  used_index : bool;
      (** an equality condition was answered from a secondary index instead
          of a relation scan *)
}

type error =
  | Parse_error of Parser.error
  | Analysis_error of Analyzer.error
  | Blocked of {
      node : Colock.Node_id.t;
      blockers : Lockmgr.Lock_table.txn_id list;
      waiting : bool;  (** true: enqueued (retry later); false: try-only *)
    }
  | Database_error of Nf2.Database.error
  | Graph_error of string  (** incremental instance-graph maintenance *)
  | Victim
      (** the transaction engine sacrificed this transaction while the
          statement waited ([Session] reports it; {!run} never does) *)

val pp_error : Format.formatter -> error -> unit

val revert : t -> Colock.Store.change -> (unit, error) result
(** {!Colock.Store.revert} on the executor's store, unseen by the hook. *)

val run :
  t -> txn:Lockmgr.Lock_table.txn_id -> ?wait:bool -> Ast.t ->
  (result_set, error) result
(** [wait] (default true) chooses between queueing on conflict and try-only
    acquisition. On [Blocked] with [waiting = true] the transaction sits in
    the lock queue; re-invoke [run] once the blocker releases (already-held
    locks are no-ops). *)

val run_string :
  t -> txn:Lockmgr.Lock_table.txn_id -> ?wait:bool -> string ->
  (result_set, error) result

val insert_object :
  t -> txn:Lockmgr.Lock_table.txn_id -> ?wait:bool -> string -> Nf2.Value.t ->
  (Nf2.Oid.t, error) result
(** Inserts a complex object under the protocol: IX down to the relation
    node, X on the new object's (future) node, then {!Colock.Store.insert}
    (database, indexes and instance graph). A scan that S-locked the
    relation node therefore blocks the insert — phantom protection at
    relation granularity (finer-granule phantom protection is the paper's
    §5 future work). *)

val delete_object :
  t -> txn:Lockmgr.Lock_table.txn_id -> ?wait:bool -> Nf2.Oid.t ->
  (unit, error) result
(** Deletes a complex object through {!Colock.Store.delete}, under an X
    lock on its node (with the usual propagations). Refused while other
    objects still reference it. *)

val apply_update :
  t -> txn:Lockmgr.Lock_table.txn_id -> row ->
  (Nf2.Value.t -> Nf2.Value.t) ->
  (unit, Nf2.Database.error) result
(** Replaces the row's selected sub-value inside its complex object and writes
    the object back through {!Colock.Store.replace} (typechecked against the
    stored version, so only the rebuilt path is walked). The caller must
    have run the query FOR UPDATE, so the row's node is X-locked. The
    replace is value-level, so the update must preserve structure (member
    counts, reference targets). It must also keep the object's key: an
    update whose rebuilt object carries another key is refused with
    [Relation_error (Key_changed _)], writing nothing and logging no undo
    record. *)
